import json
from collections import Counter
from functools import cache
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from oracles import (
    greedy_tetris_frame,
    reference_realize,
    reference_spatial_lift,
    reference_verify,
    split_exists,
    tetris_oracle,
    tetris_vectors,
)
from refdata import (
    CERT_6x11_RANKS_42221,
    REFERENCE_BASIS_6x11,
    REFERENCE_BASIS_RANKS,
    SPECTRA_42221,
)
from tffcomb import (
    ProjectionSet,
    decide,
    enumerate_tff,
    realize_tff,
    spectrum_chain,
    two_projection_sum,
    validate_multiplicity,
    verify_tff,
)
from tffcomb import realize
from tffcomb.configmat import iter_configs
from tffcomb.errors import (
    ConvergenceFailure,
    InvalidAlpha,
    InvalidMultiplicity,
    InvalidParameter,
    MalformedInput,
    NotATFFSequence,
)
from tffcomb.partitions import partitions_of
from tffcomb.realize import (
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    _alternate,
    _eigenstep_frame,
    _eigenstep_weights,
    _spatial_lift,
    _tetris_frame,
)
from tffcomb.tffcore import descend


def grid_eigenvalues(max_den):
    """Reduced rationals strictly between 1 and 2 with small denominators."""
    vals = set()
    for den in range(2, max_den + 1):
        for num in range(den + 1, 2 * den):
            vals.add(Fraction(num, den))
    return sorted(vals)


def multisets(values, size):
    if size == 0:
        yield ()
        return
    for i, v in enumerate(values):
        for rest in multisets(values[i:], size - 1):
            yield (v,) + rest


def valid_multiplicity_functions(p, q, dim, eigs):
    """All spectrum multiplicity functions for ranks (p, q) in ``dim``
    whose paired eigenvalues come from ``eigs``."""
    low = max(0, p + q - dim)
    for shared in range(low, min(p, q) + 1):          # m(2)
        for npairs in range(0, min(p, q) - shared + 1):
            ones = p + q - 2 * shared - 2 * npairs     # m(1)
            zeros = dim - p - q + shared               # m(0)
            if ones < 0 or zeros < 0:
                continue
            for chosen in multisets(eigs, npairs):
                m = {}
                if shared:
                    m[Fraction(2)] = shared
                if zeros:
                    m[Fraction(0)] = zeros
                if ones:
                    m[Fraction(1)] = ones
                for lam in chosen:
                    m[lam] = m.get(lam, 0) + 1
                    m[2 - lam] = m.get(2 - lam, 0) + 1
                yield m


def reference_projection_set():
    cols = np.array(REFERENCE_BASIS_6x11, dtype=float)
    blocks = []
    start = 0
    for rank in REFERENCE_BASIS_RANKS:
        blocks.append(cols[:, start:start + rank])
        start += rank
    return ProjectionSet(dim=6, blocks=tuple(blocks))


class TestValidateMultiplicity:
    def test_single_projection(self):
        assert validate_multiplicity(3, 0, 5, {1: 3, 0: 2})

    def test_tilted_pair(self):
        m = {Fraction(3, 2): 1, Fraction(1, 2): 1}
        assert validate_multiplicity(1, 1, 2, m)

    def test_forced_ones_violation(self):
        assert not validate_multiplicity(2, 1, 3, {Fraction(3, 2): 1, Fraction(1, 2): 1, 0: 1})

    def test_wrong_total(self):
        assert not validate_multiplicity(1, 1, 3, {1: 2})

    def test_asymmetric_pair(self):
        assert not validate_multiplicity(1, 1, 2, {Fraction(3, 2): 1, Fraction(1, 3): 1})

    def test_support_outside_range(self):
        assert not validate_multiplicity(2, 2, 2, {Fraction(5, 2): 1, 1: 1})

    def test_zero_minus_two_balance(self):
        assert not validate_multiplicity(2, 2, 4, {2: 1, 1: 1, 0: 2})
        assert validate_multiplicity(2, 2, 4, {2: 2, 0: 2})

    def test_negative_multiplicity_is_infeasible(self):
        assert not validate_multiplicity(1, 1, 2, {1: 3, 0: -1})

    def test_integral_values_accepted(self):
        assert validate_multiplicity(2.0, 2, 4.0, {"2": 2.0, 0: 2})
        got = two_projection_sum(2.0, 2, 4.0, {"2": 2.0, 0: 2})
        want = two_projection_sum(2, 2, 4, {2: 2, 0: 2})
        assert all(map(np.array_equal, got, want))


# a spectrum map or rank that is not an integer or a rational, each with a
# valid map for ranks (1, 1) in dim 2 otherwise
MALFORMED_SPECTRA = {
    "fractional-ranks": ((1.5, 0.5, 2, {1: 2}), InvalidParameter),
    "text-rank": (("1", 1, 2, {1: 2}), InvalidParameter),
    "text-key": ((1, 1, 2, {"x": 2}), InvalidMultiplicity),
    "zero-denominator-key": ((1, 1, 2, {"1/0": 2}), InvalidMultiplicity),
    "nan-key": ((1, 1, 2, {float("nan"): 2}), InvalidMultiplicity),
    "fractional-multiplicity": ((1, 1, 2, {1: 1.5, 0: 0.5}), InvalidMultiplicity),
    "text-multiplicity": ((1, 1, 2, {1: "2"}), InvalidMultiplicity),
}


@pytest.mark.parametrize("fn", [validate_multiplicity, two_projection_sum])
@pytest.mark.parametrize(
    "args, error", MALFORMED_SPECTRA.values(), ids=MALFORMED_SPECTRA
)
def test_malformed_spectrum_is_typed_error(fn, args, error):
    with pytest.raises(error):
        fn(*args)


class TestTwoProjectionSum:
    def test_tilted_pair_spectrum(self):
        m = {Fraction(3, 2): 1, Fraction(1, 2): 1}
        P, Q = two_projection_sum(1, 1, 2, m)
        eig = np.sort(np.linalg.eigvalsh(P + Q))
        assert np.allclose(eig, [0.5, 1.5], atol=1e-12)

    def test_zero_rank_second(self):
        P, Q = two_projection_sum(2, 0, 4, {1: 2, 0: 2})
        assert np.allclose(Q, 0)
        eig = np.sort(np.linalg.eigvalsh(P + Q))
        assert np.allclose(eig, [0, 0, 1, 1], atol=1e-12)

    def test_orthogonal_lines_double_one(self):
        P, Q = two_projection_sum(1, 1, 2, {1: 2})
        eig = np.linalg.eigvalsh(P + Q)
        assert np.allclose(eig, [1, 1], atol=1e-12)

    def test_invalid_raises(self):
        with pytest.raises(InvalidMultiplicity):
            two_projection_sum(2, 1, 3, {1: 0, 2: 1, 0: 1, Fraction(3, 2): 1})

    def _spectrum_from(self, m, dim):
        out = []
        for lam, mult in m.items():
            out.extend([float(lam)] * mult)
        return np.sort(np.array(out))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_exhaustive_small_grid(self, dim):
        eigs = grid_eigenvalues(6)
        for p in range(dim + 1):
            for q in range(p + 1):
                for m in valid_multiplicity_functions(p, q, dim, eigs):
                    assert validate_multiplicity(p, q, dim, m)
                    P, Q = two_projection_sum(p, q, dim, m)
                    assert np.allclose(P @ P, P, atol=1e-12)
                    assert np.allclose(Q @ Q, Q, atol=1e-12)
                    assert round(np.trace(P)) == p
                    assert round(np.trace(Q)) == q
                    eig = np.sort(np.linalg.eigvalsh(P + Q))
                    assert np.max(np.abs(eig - self._spectrum_from(m, dim))) <= 1e-10

    def test_random_pairs_satisfy_necessary_conditions(self):
        rng = np.random.default_rng(12345)
        tol = 1e-8
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            p = int(rng.integers(0, dim + 1))
            q = int(rng.integers(0, dim + 1))
            P = _random_projection(rng, dim, p)
            Q = _random_projection(rng, dim, q)
            eig = np.sort(np.linalg.eigvalsh(P + Q))
            assert eig[0] >= -tol and eig[-1] <= 2 + tol
            assert len(eig) == dim
            ones = np.sum(np.abs(eig - 1) <= tol)
            assert ones >= abs(p - q)
            zeros = np.sum(np.abs(eig) <= tol)
            twos = np.sum(np.abs(eig - 2) <= tol)
            assert zeros - twos == dim - p - q
            interior = eig[(eig > tol) & (eig < 2 - tol)]
            assert np.max(np.abs(interior + interior[::-1] - 2), initial=0.0) <= tol


def _random_projection(rng, dim, rank):
    if rank == 0:
        return np.zeros((dim, dim))
    mat = rng.standard_normal((dim, rank))
    qmat, _ = np.linalg.qr(mat)
    return qmat @ qmat.T


class TestSpectrumChain:
    def test_reference_chain_42221(self):
        assert spectrum_chain(CERT_6x11_RANKS_42221) == SPECTRA_42221

    def test_first_level_is_indicator(self):
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        assert chain[0] == (1, 1, 1, 1, 0, 0)

    def test_row_sums_are_prefix_ranks(self):
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        sigma = 0
        for level, width in zip(chain, CERT_6x11_RANKS_42221.ranks):
            sigma += width
            assert sum(level) == sigma

    def test_last_level_constant(self):
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        assert set(chain[-1]) == {Fraction(11, 6)}


class TestRealize:
    def test_single_full_projection_exact(self):
        ps = realize_tff((4,), 4, seed=1, tol=0.0, max_restarts=1)
        assert verify_tff(ps, tol=1e-15).passed

    def test_unit_norm_frame(self):
        ps = realize_tff((1, 1, 1), 2, seed=3)
        rep = verify_tff(ps, tol=1e-8)
        assert rep.passed and rep.block_ranks == (1, 1, 1)

    def test_not_tight_rejected(self):
        with pytest.raises(NotATFFSequence):
            realize_tff((3, 3), 5, seed=0)

    @pytest.mark.parametrize(
        "options",
        [{"max_restarts": 0}, {"max_restarts": -3}, {"tol": -1e-9},
         {"tol": float("nan")}, {"seed": -1}, {"seed": 1.5},
         {"max_restarts": 1.5}],
    )
    def test_bad_parameters_rejected(self, options):
        with pytest.raises(InvalidParameter):
            realize_tff((2, 2, 2), 4, **{"seed": 0, **options})

    @pytest.mark.parametrize(
        "options, name",
        [({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
         ({"seed": 0, "max_restarts": 1.5}, "max_restarts")],
    )
    def test_bad_parameter_named_before_precheck(self, options, name):
        # (3, 3) in dimension 5 is not tight: the parameter check comes first
        with pytest.raises(InvalidParameter, match=name):
            realize_tff((3, 3), 5, **options)

    def test_integral_parameters_read_as_ints(self, monkeypatch):
        # spectral tetris misses (4, 2, 2, 2, 1) in dimension 5, and with no
        # eigenstep frame the optimizer runs from the seed
        monkeypatch.setattr(realize, "_eigenstep_frame", lambda cert: None)
        a = realize_tff((4, 2, 2, 2, 1), 5, seed=2.0, max_restarts=3.0)
        b = realize_tff((4, 2, 2, 2, 1), 5, seed=2, max_restarts=3)
        assert all(map(np.array_equal, a.blocks, b.blocks))

    def test_deterministic_for_seed(self):
        a = realize_tff((2, 2, 2), 4, seed=11)
        b = realize_tff((2, 2, 2), 4, seed=11)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_verifier_passes_its_output(self):
        ps = realize_tff((3, 2, 2, 2), 4, seed=2, tol=1e-9)
        assert verify_tff(ps, tol=1e-9).passed


SMALL_TIGHT = [
    (ranks, dim)
    for dim in range(2, 6)
    for num in range(dim + 1, 2 * dim + 1)
    for ranks in enumerate_tff(Fraction(num, dim), dim)
]


def _realize_or_failure(realizer, ranks, dim, seed):
    try:
        return realizer(ranks, dim, seed)
    except ConvergenceFailure as exc:
        return str(exc)


def _kernel(ranks, dim, seed):
    return _alternate(ranks, dim, seed, DEFAULT_TOL, DEFAULT_RESTARTS)


class TestStackedKernel:
    def test_agrees_with_per_block_loop(self):
        # every tight sequence with dim <= 5 and 1 < alpha <= 2, seeded by
        # its index, run through the optimizer in its own dimension: the
        # stacked eigendecomposition gives the frames of the per-block loop,
        # and both fail to converge together
        assert len(SMALL_TIGHT) == 90
        for seed, (ranks, dim) in enumerate(SMALL_TIGHT):
            got = _realize_or_failure(_kernel, ranks, dim, seed)
            want = _realize_or_failure(reference_realize, ranks, dim, seed)
            assert type(got) is type(want), (ranks, dim, got, want)
            if isinstance(want, str):
                continue
            assert got.ranks == want.ranks == ranks
            for x, y in zip(got.blocks, want.blocks):
                assert np.allclose(x, y, atol=1e-10), (ranks, dim)
            assert verify_tff(got, tol=1e-8).passed, (ranks, dim)


# every tight sequence with dim <= 6 and 1 < alpha <= 3
TIGHT_TO_3 = [
    (ranks, dim)
    for dim in range(1, 7)
    for num in range(dim + 1, 3 * dim + 1)
    for ranks in enumerate_tff(Fraction(num, dim), dim)
]


def _terminal(ranks, dim):
    path = descend(ranks, dim)
    return path.ranks, path.dim


def _split_terminal(ranks, dim):
    """Whether the descent of (ranks, dim) ends where coordinate blocks
    realize it: no ranks left, M = N, or an integer bound whose ranks split
    into groups summing to the dimension."""
    ranks, dim = _terminal(ranks, dim)
    groups, rest = divmod(sum(ranks), dim)
    return not rest and split_exists(ranks, dim, groups)


@cache
def _oracle_covers(ranks, dim):
    return tetris_oracle(ranks, dim) is not None


def _tetris_terminal(ranks, dim):
    """Whether spectral tetris covers the terminal of (ranks, dim), by the
    brute-force oracle."""
    return _oracle_covers(*_terminal(ranks, dim))


@cache
def _tight_to_2_dim9():
    """Every tight sequence with dim <= 9 and 1 < alpha <= 2."""
    return [
        (ranks, dim)
        for dim in range(1, 10)
        for num in range(dim + 1, 2 * dim + 1)
        for ranks in enumerate_tff(Fraction(num, dim), dim)
    ]


def _must_not_run(*args):
    raise AssertionError("a patched-out step ran")


# the terminals of the tight sequences with dim <= 9 and 1 < alpha <= 2
# that spectral tetris does not cover, by terminal dimension (one digit per
# rank)
TETRIS_MISSES = {
    5: (
        "41111111 411111111 4211111 42111111 422111 4221111 42221 422211 "
        "42222 4311111 432111 43221 43311 433111 4411111 442111"
    ),
    6: (
        "511111111 5111111111 52111111 521111111 5221111 52211111 522211 "
        "5222111 52222 522221 53111111 5321111 532211 53222 533111 53321"
    ),
    7: (
        "51111111111 5211111111 522111111 52221111 5222211 522222 "
        "531111111 53211111 5322111 532221 5331111 533211 53322 53331 "
        "544111 54421 6111111111 61111111111 621111111 6211111111 "
        "62211111 622111111 6222111 62221111 622221 6222211 622222 "
        "631111111 63211111 6322111 632221 6331111 633211 63322 63331"
    ),
    8: (
        "611111111111 62111111111 6221111111 622211111 62222111 6222221 "
        "6311111111 632111111 63221111 6322211 632222 63311111 6332111 "
        "633221 633311 63332 71111111111 7211111111 722111111 72221111 "
        "7222211 722222"
    ),
}


class TestExactPaths:
    def test_every_sequence_realizes(self):
        assert len(TIGHT_TO_3) == 1169
        for seed, (ranks, dim) in enumerate(TIGHT_TO_3):
            frame = realize_tff(ranks, dim, seed=seed)
            assert frame.ranks == ranks
            assert verify_tff(frame, tol=1e-8).passed, (ranks, dim)

    def test_tetris_matches_oracle(self):
        # on every terminal of TIGHT_TO_3, and on every partition with
        # dim <= 6, M <= 3 dim and at most 10 parts that passes the guard
        # (non-terminals and non-tight ones too), the library's greedy split
        # finds blocks exactly when the brute-force oracle does, and its
        # blocks are made of the oracle's spectral-tetris vectors
        terminals = {_terminal(*inst) for inst in TIGHT_TO_3}
        guarded = {
            (ranks, dim)
            for dim in range(1, 7)
            for total in range(1, 3 * dim + 1)
            if total >= 2 * dim or total % dim == 0
            for ranks in partitions_of(total, max_part=dim)
            if len(ranks) <= 10
        }
        assert len(terminals) == 810 and len(guarded - terminals) == 537
        for ranks, dim in sorted(terminals | guarded):
            frame = _tetris_frame(ranks, dim)
            assert (frame is not None) == _oracle_covers(ranks, dim), (ranks, dim)
            if frame is not None:
                assert frame.ranks == ranks
                got = np.hstack((np.zeros((dim, 0)), *frame.blocks)).T
                want = tetris_vectors(sum(ranks), dim)
                assert np.allclose(got[np.lexsort(got.T)], want[np.lexsort(want.T)],
                                   rtol=0, atol=1e-15), (ranks, dim)

    def test_split_matches_scanning_greedy(self):
        # the heap of free families gives every vector the family that the
        # scan over all families gave it: on every terminal and partition the
        # other tests here sweep, and on wide inputs with many small families
        insts = {_terminal(*inst) for inst in TIGHT_TO_3 + _tight_to_2_dim9()}
        insts |= {
            (ranks, dim)
            for dim in range(1, 7)
            for total in range(1, 4 * dim + 1)
            for ranks in partitions_of(total, max_part=dim)
            if len(ranks) <= 10
        }
        wide = [((1,) * n, d) for n in (60, 301, 750) for d in (n // 2, n // 3, n // 7)]
        wide += [((2,) * n, d) for n in (60, 301, 750)
                 for d in (n, n - 1, 2 * n // 3, n // 2 + 1)]
        wide += [((3,) * 40 + (2,) * 30, 60), ((4,) * 25 + (3,) * 30 + (1,) * 17, 70),
                 ((5,) * 30 + (4,) * 31 + (2,) * 40, 90), ((3,) * 100 + (1,) * 50, 140)]
        # misses: a family of N - 1 or N - 2 vectors with many small ones
        wide += [((99,) * 2 + (1,) * 150, 100), ((99,) * 2 + (2,) * 75, 100),
                 ((298,) + (1,) * 303, 300), ((98,) + (2,) * 60, 100)]
        covered = Counter()
        for ranks, dim in sorted(insts) + wide:
            got, want = _tetris_frame(ranks, dim), greedy_tetris_frame(ranks, dim)
            assert (got is None) == (want is None), (ranks, dim)
            if want is not None:
                assert all(map(np.array_equal, got.blocks, want.blocks)), (ranks, dim)
            covered[(ranks, dim) in wide, want is not None] += 1
        assert covered == {
            (False, False): 1023, (False, True): 3608, (True, False): 4, (True, True): 25,
        }

    def test_tetris_supports_are_monotone_intervals(self):
        # the premise of the greedy split's exchange argument: every support
        # is a row interval of length 1 or 2, and first and last rows never
        # decrease in frame order
        frames = 0
        for dim in range(1, 13):
            for total in range(1, 5 * dim + 1):
                if total < 2 * dim and total % dim:
                    continue
                rows = [np.flatnonzero(v) for v in tetris_vectors(total, dim)]
                assert all(
                    len(r) in (1, 2) and r[-1] - r[0] == len(r) - 1 for r in rows
                ), (total, dim)
                firsts, lasts = [r[0] for r in rows], [r[-1] for r in rows]
                assert firsts == sorted(firsts) and lasts == sorted(lasts), (total, dim)
                frames += 1
        assert frames == 258

    def test_exact_terminals_need_no_optimizer(self, monkeypatch):
        # nor a decision: the blocks prove the terminal tight
        monkeypatch.setattr(realize, "_alternate", _must_not_run)
        monkeypatch.setattr(realize, "decide", _must_not_run)
        split = [inst for inst in TIGHT_TO_3 if _split_terminal(*inst)]
        exact = [inst for inst in TIGHT_TO_3 if _tetris_terminal(*inst)]
        assert len(split) == 513 and set(split) <= set(exact)
        assert len(exact) == 1118
        assert sum(sum(r) <= 2 * d for r, d in exact) == 201
        for ranks, dim in exact:
            frame = realize_tff(ranks, dim, seed=0)
            assert verify_tff(frame, tol=1e-8).passed, (ranks, dim)

    def test_exact_frames_are_seed_free(self):
        for ranks, dim in TIGHT_TO_3:
            if _tetris_terminal(ranks, dim):
                a = realize_tff(ranks, dim, seed=0)
                b = realize_tff(ranks, dim, seed=7)
                assert all(map(np.array_equal, a.blocks, b.blocks)), (ranks, dim)

    def test_tetris_misses_are_pinned(self):
        # the paper's point that spectral tetris cannot build every tight
        # fusion frame, checked on every tight sequence with dim <= 9 and
        # 1 < alpha <= 2 through its terminal
        tight = _tight_to_2_dim9()
        missed = {
            _terminal(*inst) for inst in tight
            if _tetris_frame(*_terminal(*inst)) is None
        }
        want = {
            (tuple(map(int, word)), dim)
            for dim, words in TETRIS_MISSES.items()
            for word in words.split()
        }
        assert len(tight) == 1584 and len(want) == 89
        assert missed == want
        assert sum(_terminal(*inst) not in want for inst in tight) == 1491
        assert Counter(dim - ranks[0] for ranks, dim in want) == {1: 57, 2: 32}

    def test_guard_before_building(self, monkeypatch):
        # every short or wide end with dim <= 6 and alpha <= 3 has a bound
        # below 2 that is not an integer, and the builder returns None
        # without touching numpy
        monkeypatch.setattr(realize, "np", None)
        ends = Counter()
        for dim in range(1, 7):
            for total in range(1, 3 * dim + 1):
                for ranks in partitions_of(total, max_part=dim):
                    path = descend(ranks, dim)
                    if path.end in ("short", "wide"):
                        lam = Fraction(sum(path.ranks), path.dim)
                        assert lam < 2 and lam.denominator != 1
                        assert _tetris_frame(path.ranks, path.dim) is None
                        ends[path.end] += 1
        assert ends == {"short": 133, "wide": 238}

    def test_every_non_tight_sequence_rejected(self, monkeypatch):
        # every non-tight partition with dim <= 6 and 1 < alpha <= 3, by how
        # its descent ends, is rejected before any frame is built
        monkeypatch.setattr(realize, "_alternate", _must_not_run)
        ends = Counter()
        for dim in range(1, 7):
            for total in range(dim + 1, 3 * dim + 1):
                for ranks in partitions_of(total, max_part=dim):
                    path = descend(ranks, dim)
                    if path.end in ("short", "wide") or (
                        path.end == "search" and not decide(ranks, dim)
                    ):
                        ends[path.end] += 1
                        with pytest.raises(NotATFFSequence):
                            realize_tff(ranks, dim, seed=0)
        assert ends == {"short": 94, "wide": 238, "search": 57}

    def test_split_implies_tetris(self):
        # a split of the ranks into groups that each sum to the dimension
        # makes coordinate blocks, so spectral tetris finds blocks too, and
        # every frame it returns is tight: exactly for an integer bound
        for dim in range(1, 7):
            for total in range(1, 4 * dim + 1):
                for ranks in partitions_of(total, max_part=dim):
                    if len(ranks) > 10:
                        continue
                    frame = _tetris_frame(ranks, dim)
                    groups, rest = divmod(total, dim)
                    if not rest and split_exists(ranks, dim, groups):
                        assert frame is not None, (ranks, dim)
                    if frame is not None:
                        assert frame.ranks == ranks
                        tol = 1e-12 if rest else 0
                        assert verify_tff(frame, tol=tol).passed, (ranks, dim)


@cache
def _tetris_misses():
    """The sequences whose terminal spectral tetris misses, in the sweep
    with dim <= 6 and alpha <= 3 and in the one with dim <= 9 and
    alpha <= 2."""
    return tuple(
        [inst for inst in sweep if _tetris_frame(*_terminal(*inst)) is None]
        for sweep in (TIGHT_TO_3, _tight_to_2_dim9())
    )


def _first_eigenstep_frame(ranks, dim):
    """The index in ``iter_configs`` of the first certificate whose
    eigensteps give orthonormal blocks, that certificate and its frame."""
    for index, cert in enumerate(iter_configs(ranks, dim)):
        frame = _eigenstep_frame(cert)
        if frame is not None:
            return index, cert, frame
    raise AssertionError((ranks, dim))


class TestEigensteps:
    def test_certificate_columns_interlace(self):
        # every certificate of every instance with dim <= 5 and M <= 2 dim
        # (at most 6 ranks in dim 5): each column's row sums interlace those
        # before it, and its eigenspace norms are positive, sum to 1 and make
        # the characteristic polynomial after the column from the one before
        # (a rank-one update: p_after = p_before (1 - sum w_b / (x - b/N)),
        # checked at N + 1 points, in units of 1/N)
        certs, steps = 0, set()
        for dim in range(1, 6):
            for total in range(1, 2 * dim + 1):
                for ranks in partitions_of(total, max_part=dim):
                    if dim == 5 and len(ranks) > 6:
                        continue
                    for cert in iter_configs(ranks, dim):
                        certs += 1
                        sums = np.cumsum(np.array(cert.entries), axis=1)
                        before = (0,) * dim
                        for after in map(tuple, sums.T.tolist()):
                            steps.add((before, after))
                            before = after
        assert certs == 8969 and len(steps) == 1161
        for before, after in steps:
            dim = len(before)
            assert all(
                after[i] >= before[i] >= (after[i + 1] if i + 1 < dim else 0)
                for i in range(dim)
            ), (before, after)
            weights = {
                b: Fraction(num, den) for b, num, den in _eigenstep_weights(before, after)
            }
            assert all(w > 0 for w in weights.values()), (before, after)
            assert sum(weights.values()) == 1, (before, after)
            for y in range(-1, -dim - 2, -1):
                p_before = prod(y - x for x in before)
                assert prod(y - x for x in after) == p_before * (
                    1 - sum(dim * w / (y - b) for b, w in weights.items())
                ), (before, after)

    def test_misses_need_no_optimizer(self, monkeypatch):
        # every sequence of both sweeps whose terminal spectral tetris misses
        # is built from certificate eigensteps, lifted and checked at 1e-9
        monkeypatch.setattr(realize, "_alternate", _must_not_run)
        sweeps = _tetris_misses()
        assert [len(seqs) for seqs in sweeps] == [51, 93]
        assert [len({_terminal(*inst) for inst in seqs}) for seqs in sweeps] == [36, 89]
        for ranks, dim in dict.fromkeys(sweeps[0] + sweeps[1]):
            frame = realize_tff(ranks, dim, seed=0, tol=1e-9)
            assert frame.ranks == ranks
            assert verify_tff(frame, tol=1e-9).passed, (ranks, dim)

    def test_certificate_indices_are_pinned(self):
        # the index in iter_configs of the first certificate that works, for
        # the 89 misses of the dim <= 9, alpha <= 2 sweep and the 36 of the
        # dim <= 6, alpha <= 3 sweep: the margin below realize_tff's cap
        small = {_terminal(*inst) for inst in _tetris_misses()[0]}
        want = {
            (tuple(map(int, word)), dim)
            for dim, words in TETRIS_MISSES.items()
            for word in words.split()
        }
        index = {t: _first_eigenstep_frame(*t)[0] for t in small | want}
        assert Counter(index[t] for t in small) == {0: 36}
        assert Counter(index[t] for t in want) == {0: 82, 2: 2, 3: 2, 5: 1, 9: 1, 36: 1}
        assert {t: i for t, i in index.items() if i} == {
            ((5, 2, 2, 2, 2, 1, 1), 7): 3, ((5, 3, 2, 2, 2, 1), 7): 9,
            ((5, 3, 3, 3, 1), 7): 2, ((5, 4, 4, 2, 1), 7): 5,
            ((6, 2, 2, 2, 2, 2, 1), 8): 36, ((6, 3, 2, 2, 2, 1, 1), 8): 2,
            ((6, 3, 3, 2, 2, 1), 8): 3,
        }
        assert max(index.values()) < realize._CERT_CAP
        # the first certificate is the one realize_tff decides with
        for t in small | want:
            assert decide(*t, certificate=True)[1] == next(iter_configs(*t))

    def test_block_spectra_follow_the_certificate(self):
        # realize_tff builds each terminal from the first certificate that
        # works, and the partial sums of the blocks' projections have the
        # exact spectra that the certificate's prefix row sums encode
        terminals = {_terminal(*inst) for seqs in _tetris_misses() for inst in seqs}
        for ranks, dim in sorted(terminals):
            _, cert, frame = _first_eigenstep_frame(ranks, dim)
            assert frame.ranks == ranks and frame.dim == dim
            built = realize_tff(ranks, dim, seed=0)
            assert all(map(np.array_equal, built.blocks, frame.blocks)), (ranks, dim)
            partial = np.zeros((dim, dim))
            for block, spectrum in zip(frame.blocks, spectrum_chain(cert)):
                partial += block @ block.T
                got = np.linalg.eigvalsh(partial)[::-1]
                want = np.array([float(x) for x in spectrum])
                assert np.abs(got - want).max() <= 1e-12, (ranks, dim)

    def test_frames_are_seed_free(self):
        sweeps = _tetris_misses()
        for ranks, dim in dict.fromkeys(sweeps[0] + sweeps[1]):
            a = realize_tff(ranks, dim, seed=0)
            b = realize_tff(ranks, dim, seed=7)
            assert all(map(np.array_equal, a.blocks, b.blocks)), (ranks, dim)


@cache
def _sweep_frames():
    """The frames realize_tff builds for both sweeps of TestExactPaths."""
    return tuple(
        realize_tff(ranks, dim, seed=0)
        for ranks, dim in dict.fromkeys(TIGHT_TO_3 + _tight_to_2_dim9())
    )


def _edge_frames():
    """Frames off the realizer's paths: no blocks, a rank-deficient block, a
    single block, unequal ranks, and blocks that are not orthonormal."""
    ref = reference_projection_set()
    rng = np.random.default_rng(5)
    perturbed = [b.copy() for b in ref.blocks]
    perturbed[1][0, 0] += 1e-3
    deficient = np.eye(4)[:, [0, 0, 1]]
    return [
        ProjectionSet(3, ()),
        ProjectionSet(4, (deficient, np.eye(4)[:, 2:])),
        ProjectionSet(3, (np.eye(3),)),
        ProjectionSet(5, (np.eye(5)[:, :1],)),
        ref,
        ProjectionSet(6, tuple(perturbed)),
        ProjectionSet(4, tuple(rng.standard_normal((4, r)) for r in (3, 1, 2))),
    ]


def _assert_same_report(got, want, where):
    assert got.block_ranks == want.block_ranks and got.passed == want.passed, where
    for name in ("block_orthonormality", "block_idempotence"):
        a, b = np.array(getattr(got, name)), np.array(getattr(want, name))
        assert a.shape == b.shape, (where, name)
        assert np.allclose(a, b, rtol=0, atol=1e-12), (where, name)
    assert abs(got.sum_residual - want.sum_residual) <= 1e-12, where


class TestBatchedFigures:
    def test_figures_match_per_block_reference(self):
        # every figure from the zero-padded stack equals the per-block one,
        # on every frame the sweeps realize and on the edge frames, with the
        # frame's own alpha and with a wrong one
        frames = _sweep_frames()
        assert len(frames) == 2548
        for frame in frames + tuple(_edge_frames()):
            where = (frame.ranks, frame.dim)
            _assert_same_report(verify_tff(frame), reference_verify(frame), where)
            _assert_same_report(
                verify_tff(frame, alpha=2, tol=1e-9),
                reference_verify(frame, alpha=2, tol=1e-9), where,
            )

    def test_edge_verdicts(self):
        reports = [verify_tff(frame) for frame in _edge_frames()]
        assert [r.passed for r in reports] == [True, False, True, False, True, False, False]
        assert reports[1].block_ranks == (2, 2)

    def test_spatial_lift_is_the_per_block_qr(self):
        # a zero column's Householder reflector is the identity, so the
        # batched QR gives every block's complement bit for bit
        for frame in _sweep_frames() + tuple(_edge_frames()):
            got, want = _spatial_lift(frame), reference_spatial_lift(frame)
            assert got.dim == want.dim and got.ranks == want.ranks
            assert all(map(np.array_equal, got.blocks, want.blocks)), frame.ranks


class TestVerify:
    @pytest.mark.parametrize("tol", [-1.0, -1e-9, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidParameter):
            verify_tff(reference_projection_set(), tol=tol)

    def test_reference_basis_passes(self):
        rep = verify_tff(reference_projection_set(), alpha=Fraction(11, 6), tol=1e-8)
        assert rep.passed
        assert rep.block_ranks == REFERENCE_BASIS_RANKS

    def test_perturbation_fails(self):
        ps = reference_projection_set()
        blocks = list(ps.blocks)
        bad = blocks[1].copy()
        bad[0, 0] += 1e-3
        blocks[1] = bad
        perturbed = ProjectionSet(dim=6, blocks=tuple(blocks))
        rep = verify_tff(perturbed, alpha=Fraction(11, 6), tol=1e-8)
        assert not rep.passed
        assert rep.sum_residual >= 1e-4

    def test_wrong_alpha_fails(self):
        rep = verify_tff(reference_projection_set(), alpha=2, tol=1e-8)
        assert not rep.passed

    def test_alpha_read_as_rational(self):
        ps = realize_tff((1, 1, 1), 2, seed=0)
        want = verify_tff(ps, alpha=Fraction(3, 2))
        assert want.passed
        assert verify_tff(ps, alpha="3/2") == want

    @pytest.mark.parametrize("alpha", ["x", "1/0", float("nan"), [1]])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(InvalidAlpha):
            verify_tff(reference_projection_set(), alpha=alpha)

    @pytest.mark.parametrize(
        "dim, blocks",
        [
            (3, (np.array([[np.nan], [0.0], [0.0]]),)),
            (3, (np.eye(2),)),
            (3, (np.ones(3),)),
            (0, ()),
            ("x", ()),
            (-2, ()),
        ],
        ids=["nan-block", "wrong-dim", "one-dimensional",
             "zero-dim", "text-dim", "negative-dim"],
    )
    def test_malformed_frame_is_typed_error(self, dim, blocks):
        # a frame built directly, not read from JSON, gets the same dim and
        # block rules as from_json_dict
        with pytest.raises(MalformedInput, match="ProjectionSet"):
            verify_tff(ProjectionSet(dim, blocks))


class TestSerialization:
    def test_json_round_trip(self):
        ps = realize_tff((2, 1, 1, 1), 3, seed=4)
        data = json.loads(json.dumps(ps.to_json_dict()))
        back = ProjectionSet.from_json_dict(data)
        assert back.dim == ps.dim and back.ranks == ps.ranks
        for x, y in zip(ps.blocks, back.blocks):
            assert np.allclose(x, y)
        assert verify_tff(back, tol=1e-6).passed

    def test_malformed_basis_is_typed_error(self):
        # an object in place of a number must not reach numpy's float cast
        data = {"dim": 2, "blocks": [{"rank": 1, "basis": [[{}, 0]]}]}
        with pytest.raises(MalformedInput, match="ProjectionSet"):
            ProjectionSet.from_json_dict(data)

    def test_basis_longer_than_its_rank_is_rejected_before_stacking(self, monkeypatch):
        # a basis with more vectors than its declared rank would widen the
        # padded stack of every block; it must fail before one is built
        def no_stack(frame):
            raise AssertionError("stack built before the ranks were checked")

        monkeypatch.setattr(realize, "_stack", no_stack)
        vectors = [[1.0]] * 5
        data = {"dim": 1, "blocks": [{"rank": 1, "basis": [[1.0]]}] * 4
                + [{"rank": 1, "basis": vectors}]}
        with pytest.raises(MalformedInput, match=r"must have \(1, 1, 1, 1, 1\) vectors"):
            ProjectionSet.from_json_dict(data)

    def test_csv_shape(self):
        ps = reference_projection_set()
        lines = ps.to_csv().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 11 for line in lines)
