"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 asserts every cell of the computed dim <= 9 tables against the
external reference tables, with their one misprinted cell corrected
(``EXPECTED_MAXIMAL``).  The printed (8, 15/8) row is defective: its first
entry sums to 14 rather than 15, and its third entry is strictly dominated by
a tight sequence.  The supplementary erratum test checks the printed defect
and re-derives the corrected row through the skew-tableau oracle alone,
independently of the certificate search the tables come from.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from refdata import (
    CERT_4x7_RANKS_2221,
    CERT_5x8_RANKS_2222,
    CERT_5x8_RANKS_32111,
    CERT_6x11_RANKS_42221,
    CORRECTED_MAXIMAL_8_15_8,
    EXPECTED_MAXIMAL,
    GRID_3x7_RANKS_2221,
    GRID_4x7_RANKS_2221,
    GRID_5x8_RANKS_2222,
    GRID_5x8_RANKS_32111,
    GRID_6x11_RANKS_42221,
    NAIMARK_DUAL_3x7,
    REFERENCE_MAXIMAL,
    SPATIAL_DUAL_4x9,
    SPECTRA_42221,
)
from test_realize import (
    grid_eigenvalues,
    reference_projection_set,
    valid_multiplicity_functions,
)
from oracles import chain_count_configs, lr_oracle
from tffcomb import (
    config_naimark_dual,
    config_spatial_dual,
    count_configs,
    decide,
    enumerate_tff,
    first3_check,
    iter_configs,
    mu_chain,
    okada_product,
    realize_tff,
    spatial_dual,
    spectrum_chain,
    tableau_cells,
    two_projection_sum,
    validate_config,
    validate_multiplicity,
    verify_tff,
)
from tffcomb.cli import main
from tffcomb.partitions import dominance_leq, partitions_of


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status}{' - ' + detail if detail else ''}")


class TestCriterion1:
    def test_golden_maximal_tables(self, capsys):
        started = time.time()
        code = main(["maximal", "--all", "--max-dim", "9", "--json"])
        out = capsys.readouterr().out
        elapsed = time.time() - started
        assert code == 0
        cells = {
            (t["dim"], t["alpha"]): sorted(tuple(x) for x in t["maximal"])
            for t in json.loads(out)["tables"]
        }
        mismatches = []
        for key, expect in EXPECTED_MAXIMAL.items():
            if cells.get(key) != sorted(expect):
                mismatches.append((key, cells.get(key), sorted(expect)))
        ok = not mismatches and elapsed < 600
        with capsys.disabled():
            report(1, ok, f"{len(EXPECTED_MAXIMAL)} cells in {elapsed:.0f}s"
                          + (f"; {len(mismatches)} cell(s) differ" if mismatches else ""))
        assert elapsed < 600
        assert not mismatches, (
            "computed tables differ from the reference tables (with the "
            "corrected (8, 15/8) row) at "
            f"{[m[0] for m in mismatches]}; (cell, computed, expected): "
            f"{mismatches}"
        )


class TestCriterion1Erratum:
    def test_corrected_cell_is_machine_verified(self):
        # every claim behind the corrected (8, 15/8) row, checked directly
        from tffcomb import find_config

        row = CORRECTED_MAXIMAL_8_15_8
        listed = REFERENCE_MAXIMAL[(8, "15/8")]
        assert sum(listed[0]) == 14  # the misprint: total must be 15
        assert all(sum(seq) == 15 for seq in row)
        # the replacement dominates the printed entry and is tight
        assert dominance_leq((5, 3, 3, 2, 2), (5, 3, 3, 3, 1))
        cert = find_config((5, 3, 3, 3, 1), 8)
        assert cert is not None and validate_config(cert).ok
        chain = mu_chain(cert)
        for k, width in enumerate((5, 3, 3, 3, 1), start=1):
            assert lr_oracle(chain[k - 1], (8,) * width, chain[k]) >= 1
        ps = realize_tff((5, 3, 3, 3, 1), 8, seed=7, tol=1e-8, max_restarts=20)
        assert verify_tff(ps, tol=1e-8).passed
        # the corrected row is exactly what the enumeration produces
        from tffcomb import maximal_elements

        assert sorted(maximal_elements(Fraction(15, 8), 8)) == sorted(row)
        # the same row from the skew-tableau oracle alone: its entries are
        # tight and pairwise incomparable, and every partition of 15 into
        # ranks <= 8 that no entry dominates is not tight, so the row is
        # exactly the set of maximal tight sequences of the cell
        assert all(chain_count_configs(seq, 8) > 0 for seq in row)
        assert not any(
            a != b and dominance_leq(a, b) for a in row for b in row
        )
        undominated = [
            cand for cand in partitions_of(15, max_part=8)
            if not any(dominance_leq(cand, seq) for seq in row)
        ]
        # 62 strictly dominate an entry; 10 are incomparable with every entry
        assert len(undominated) == 72
        assert [c for c in undominated if chain_count_configs(c, 8)] == []


class TestCriterion2:
    def test_reference_certificates_and_tableaux(self, capsys):
        pairs = [
            (CERT_5x8_RANKS_2222, GRID_5x8_RANKS_2222),
            (CERT_5x8_RANKS_32111, GRID_5x8_RANKS_32111),
            (CERT_4x7_RANKS_2221, GRID_4x7_RANKS_2221),
            (SPATIAL_DUAL_4x9, None),
            (NAIMARK_DUAL_3x7, GRID_3x7_RANKS_2221),
            (CERT_6x11_RANKS_42221, GRID_6x11_RANKS_42221),
        ]
        ok = True
        for cert, grid in pairs:
            ok = ok and validate_config(cert).ok
            if grid is not None:
                ok = ok and tableau_cells(cert) == grid
        with capsys.disabled():
            report(2, ok, f"{len(pairs)} certificates, cell-for-cell tableaux")
        for cert, grid in pairs:
            assert validate_config(cert).ok
            if grid is not None:
                assert tableau_cells(cert) == grid


class TestCriterion3:
    def test_duality_bijections_exhaustive(self, capsys):
        from tffcomb.errors import DegenerateDual

        counts: dict = {}

        def count(ranks, dim):
            key = (tuple(sorted(ranks, reverse=True)), dim)
            if key not in counts:
                counts[key] = count_configs(key[0], dim)
            return counts[key]

        checked = 0
        for total in range(2, 10):
            for ranks in partitions_of(total, max_part=5):
                for dim in range(ranks[0], 6):
                    base = count(ranks, dim)
                    # sequence-level count preservation, zero counts included
                    try:
                        sd_seq, _ = spatial_dual(ranks, dim)
                        assert count(sd_seq, dim) == base
                    except DegenerateDual:
                        pass
                    if total > dim:
                        if ranks[0] <= total - dim:
                            assert count(ranks, total - dim) == base
                        else:
                            # a rank above the complement dimension forces
                            # zero certificates on both sides
                            assert base == 0
                    if base == 0:
                        continue
                    certs = list(iter_configs(ranks, dim))
                    assert len(certs) == base
                    if ranks[0] < dim:
                        sd_ranks, _ = spatial_dual(ranks, dim)
                        assert count(sd_ranks, dim) == base
                        images = set()
                        for cert in certs:
                            dual = config_spatial_dual(cert)
                            assert dual.ranks == sd_ranks
                            assert config_spatial_dual(dual) == cert
                            images.add(dual.entries)
                        assert len(images) == base
                    if total > dim:
                        assert count(ranks, total - dim) == base
                        images = set()
                        for cert in certs:
                            dual = config_naimark_dual(cert)
                            assert dual.dim == total - dim
                            assert config_naimark_dual(dual) == cert
                            images.add(dual.entries)
                        assert len(images) == base
                    checked += 1
        with capsys.disabled():
            report(3, True, f"{checked} rank sequences, exact counts and involutions")


class TestCriterion4:
    def test_printed_dual_certificates_exact(self, capsys):
        spatial = config_spatial_dual(CERT_4x7_RANKS_2221)
        naimark = config_naimark_dual(CERT_4x7_RANKS_2221)
        ok = spatial == SPATIAL_DUAL_4x9 and naimark == NAIMARK_DUAL_3x7
        with capsys.disabled():
            report(4, ok, "4x9 spatial and 3x7 complement images match exactly")
        assert spatial == SPATIAL_DUAL_4x9
        assert naimark == NAIMARK_DUAL_3x7


class TestCriterion5:
    def test_majorization_closure(self, capsys):
        counterexamples = []
        for dim in range(1, 7):
            for total in range(dim + 1, 2 * dim + 1):
                alpha = Fraction(total, dim)
                tights = enumerate_tff(alpha, dim)
                tight_set = set(tights)
                for cand in partitions_of(total, max_part=dim):
                    dominated = any(dominance_leq(cand, top) for top in tights)
                    if dominated and not decide(cand, dim):
                        counterexamples.append((cand, dim))
                    if (cand in tight_set) != decide(cand, dim):
                        counterexamples.append((cand, dim))
        with capsys.disabled():
            report(5, not counterexamples, "dim <= 6, all 1 < alpha <= 2")
        assert not counterexamples


class TestCriterion6:
    def test_first_three_ranks_against_search(self, capsys):
        disagreements = []
        for dim in range(2, 8):
            for total in range(dim + 1, 2 * dim):
                alpha = Fraction(total, dim)
                for l1 in range(1, dim + 1):
                    for l2 in range(1, l1 + 1):
                        for l3 in range(0, l2 + 1):
                            head = [x for x in (l1, l2, l3) if x > 0]
                            ones = total - sum(head)
                            if ones < 0:
                                continue
                            if ones > 0 and head[-1] < 1:
                                continue
                            seq = tuple(head) + (1,) * ones
                            predicted = first3_check(l1, l2, l3, alpha, dim)
                            actual = decide(seq, dim)
                            if predicted != actual:
                                disagreements.append((l1, l2, l3, str(alpha), dim))
        with capsys.disabled():
            report(6, not disagreements, "dim <= 7, 1 < alpha < 2, hook extensions")
        assert not disagreements


class TestCriterion7:
    def test_two_projection_spectra(self, capsys):
        eigs = grid_eigenvalues(12)
        checked = 0
        worst = 0.0
        sums = []
        expected = []
        for dim in range(1, 7):
            for p in range(dim + 1):
                for q in range(p + 1):
                    for m in valid_multiplicity_functions(p, q, dim, eigs):
                        assert validate_multiplicity(p, q, dim, m)
                        P, Q = two_projection_sum(p, q, dim, m)
                        target = np.sort(
                            np.array([
                                float(lam) for lam, mult in m.items()
                                for _ in range(mult)
                            ])
                        )
                        sums.append(P + Q)
                        expected.append(target)
                        checked += 1
            # batch the eigensolves per dimension
            if sums:
                eig = np.linalg.eigvalsh(np.array(sums))
                err = np.max(np.abs(np.sort(eig, axis=1) - np.array(expected)))
                worst = max(worst, float(err))
                sums, expected = [], []
        assert worst <= 1e-10, worst

        rng = np.random.default_rng(2024)
        worst_rand = 0.0
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            p = int(rng.integers(0, dim + 1))
            q = int(rng.integers(0, dim + 1))
            mats = []
            for rank in (p, q):
                if rank == 0:
                    mats.append(np.zeros((dim, dim)))
                else:
                    qmat, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
                    mats.append(qmat @ qmat.T)
            eig = np.sort(np.linalg.eigvalsh(mats[0] + mats[1]))
            tol = 1e-8
            assert eig[0] >= -tol and eig[-1] <= 2 + tol
            ones = np.sum(np.abs(eig - 1) <= tol)
            assert ones >= abs(p - q)
            zeros = np.sum(np.abs(eig) <= tol)
            twos = np.sum(np.abs(eig - 2) <= tol)
            assert zeros - twos == dim - p - q
            interior = eig[(eig > tol) & (eig < 2 - tol)]
            if interior.size:
                worst_rand = max(
                    worst_rand, float(np.max(np.abs(interior + interior[::-1] - 2)))
                )
        assert worst_rand <= 1e-8
        with capsys.disabled():
            report(
                7, True,
                f"{checked} multiplicity functions at 1e-10; 1000 random pairs at 1e-8",
            )


class TestCriterion8:
    def test_numerical_realization(self, capsys):
        ps = realize_tff((4, 2, 2, 2, 1), 6, seed=0, tol=1e-8, max_restarts=20)
        rep = verify_tff(ps, alpha=Fraction(11, 6), tol=1e-8)
        ref = verify_tff(
            reference_projection_set(), alpha=Fraction(11, 6), tol=1e-8
        )
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        ok = rep.passed and ref.passed and chain == SPECTRA_42221
        with capsys.disabled():
            report(
                8, ok,
                f"eigenstep residual {rep.sum_residual:.1e}; reference basis"
                f" residual {ref.sum_residual:.1e}; exact rational spectra",
            )
        assert rep.passed
        assert ref.passed
        assert chain == SPECTRA_42221


class TestCriterion9:
    def test_lr_oracle_cross_checks(self, capsys):
        checked = 0
        for total in range(1, 9):
            for ranks in partitions_of(total):
                for dim in range(ranks[0], total + 1):
                    assert count_configs(ranks, dim) == chain_count_configs(
                        ranks, dim
                    )
                    checked += 1
        products = 0
        for a in range(1, 5):
            for b in range(1, a + 1):
                if a + b > 5:
                    continue
                for n1 in range(1, 5):
                    for n2 in range(1, 5):
                        expected = set(okada_product(a, b, n1, n2))
                        total = a * n1 + b * n2
                        via_oracle = {
                            lam
                            for lam in partitions_of(total, max_part=n1 + n2)
                            if len(lam) <= a + b
                            and lr_oracle((n1,) * a, (n2,) * b, lam) >= 1
                        }
                        assert via_oracle == expected
                        products += 1
        with capsys.disabled():
            report(
                9, True,
                f"{checked} chain-product counts; {products} rectangle products",
            )
