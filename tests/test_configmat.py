import gc
import weakref
from itertools import accumulate, islice, permutations
from operator import add

import pytest

from refdata import (
    CERT_3x4_RANKS_1111,
    CERT_3x5_RANKS_2111,
    CERT_3x6_RANKS_321,
    CERT_4x7_RANKS_2221,
    CERT_5x8_RANKS_2222,
    CERT_5x8_RANKS_32111,
    DEFECTIVE_CERT_5x12_RANKS_3333,
    CERT_6x11_RANKS_42221,
    CERT_7x10_RANKS_32221,
    CERT_7x12_RANKS_43311,
    GRID_4x7_RANKS_2221,
    GRID_5x8_RANKS_2222,
    GRID_5x8_RANKS_32111,
    GRID_6x11_RANKS_42221,
)
from oracles import (
    brute_count_configs,
    chain_count_configs,
    hook_completion_oracle,
    lr_oracle,
    partitions_in_box,
    reference_columns,
)
from tffcomb import (
    ConfigMatrix,
    config_naimark_dual,
    config_spatial_dual,
    count_configs,
    find_config,
    hook_completion_feasible,
    iter_configs,
    mu_chain,
    okada_product,
    render_tableaux,
    tableau_cells,
    validate_config,
)
from tffcomb.errors import (
    DimensionMismatch,
    DoesNotFit,
    InvalidCertificate,
    InvalidRanks,
    MalformedInput,
    InvalidShape,
    SizeMismatch,
)
from tffcomb import configmat
from tffcomb.partitions import partitions_of
from tffcomb.tffcore import decide


class TestValidate:
    def test_reference_certificates_valid(self):
        for cert in (
            CERT_5x8_RANKS_2222,
            CERT_5x8_RANKS_32111,
            CERT_4x7_RANKS_2221,
            CERT_6x11_RANKS_42221,
        ):
            assert validate_config(cert).ok

    def test_one_dimensional(self):
        assert validate_config(ConfigMatrix(1, (1, 1), ((1, 1),))).ok

    def test_further_transcribed_certificates_valid(self):
        for cert in (
            CERT_3x6_RANKS_321,
            CERT_3x5_RANKS_2111,
            CERT_3x4_RANKS_1111,
            CERT_7x10_RANKS_32221,
            CERT_7x12_RANKS_43311,
        ):
            assert validate_config(cert).ok
            assert mu_chain(cert)[-1] == (cert.total,) * cert.dim

    def test_defective_catalog_filling_detected(self):
        # the catalog's printed filling for (3,3,3,3) in dim 5 breaks column
        # dominance in its third block; the sequence itself is tight
        report = validate_config(DEFECTIVE_CERT_5x12_RANKS_3333)
        assert not report.ok
        assert report.violated == "v" and report.indices == (3, 1, 2)
        assert find_config((3, 3, 3, 3), 5) is not None

    def test_row_sum_violation(self):
        bad = ConfigMatrix(2, (1, 1), ((2, 1), (0, 1)))
        report = validate_config(bad)
        assert not report.ok and report.violated == "ii"

    def test_column_sum_violation(self):
        bad = ConfigMatrix(2, (2,), ((2, 0), (1, 1)))
        report = validate_config(bad)
        assert not report.ok and report.violated == "iii"

    def test_row_dominance_violation(self):
        # transposing two rows of a valid certificate breaks property (iv)
        rows = list(CERT_4x7_RANKS_2221.entries)
        rows[0], rows[1] = rows[1], rows[0]
        report = validate_config(ConfigMatrix(4, (2, 2, 2, 1), tuple(rows)))
        assert not report.ok and report.violated == "iv"
        assert report.indices is not None

    def test_column_dominance_violation(self):
        # swapping the two columns of a block breaks property (v)
        rows = [
            list(r) for r in CERT_4x7_RANKS_2221.entries
        ]
        for r in rows:
            r[2], r[3] = r[3], r[2]
        report = validate_config(
            ConfigMatrix(4, (2, 2, 2, 1), tuple(tuple(r) for r in rows))
        )
        assert not report.ok and report.violated in ("iv", "v")

    def test_negative_entry(self):
        bad = ConfigMatrix(2, (1, 1), ((3, -1), (-1, 3)))
        report = validate_config(bad)
        assert not report.ok and report.violated == "i"

    @pytest.mark.parametrize(
        "changes, violated, indices, message",
        [
            ({(2, 5): -3}, "i", (3, 6), "negative entry at row 3, column 6"),
            ({(1, 3): +1}, "ii", (2,), "row 2 sums to 9, expected 8"),
            ({(0, 0): -1, (0, 7): +1}, "iii", (1,),
             "column 1 sums to 4, expected 5"),
            ({(3, 6): -1, (3, 7): +1, (4, 6): +1, (4, 7): -1}, "iv", (4, 7),
             "row dominance fails between rows 4,5 at prefix length 6"),
            ({(3, 6): -1, (3, 5): +1, (4, 6): +1, (4, 5): -1}, "v", (4, 1, 5),
             "column dominance fails in block 4 between columns 1,2"
             " at prefix length 4"),
        ],
        ids=["i", "ii", "iii", "iv", "v"],
    )
    def test_pinned_reports(self, changes, violated, indices, message):
        # one smallest perturbation of a valid certificate per property:
        # a single entry for (i) and (ii), a unit moved along a row for (iii),
        # a unit cycle on a 2x2 minor (row and column sums kept) for (iv) and
        # (v); reports frozen from the row-by-row validator
        rows = [list(r) for r in CERT_5x8_RANKS_2222.entries]
        for (i, j), delta in changes.items():
            rows[i][j] += delta
        report = validate_config(
            ConfigMatrix(5, (2, 2, 2, 2), tuple(map(tuple, rows)))
        )
        assert (report.ok, report.violated, report.indices, report.message) == (
            False, violated, indices, message,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ConfigMatrix(2, (1, 1), ((1, 1, 1), (1, 1, 1)))

    @pytest.mark.parametrize(
        "dim, ranks, entries",
        [
            (2, (1, 1, 1), ((2.7, 1.7, 0.7), (0.7, 1.7, 2.7))),
            (2.5, (1, 1, 1), ((1, 1, 1), (2, 1, 0))),
            (2, (1.5, 1.5), ((1, 1, 1), (2, 1, 0))),
            (2, (1, 1, 1), (("2", 1, 0), (1, 1, 1))),
            (2, (1, 1, 1), ((None, 1, 0), (1, 1, 1))),
            (2, (1, 1, 1), ((float("inf"), 1, 0), (1, 1, 1))),
        ],
        ids=["entries", "dim", "ranks", "string", "null", "inf"],
    )
    def test_non_integral_data_rejected(self, dim, ranks, entries):
        with pytest.raises(InvalidCertificate):
            ConfigMatrix(dim, ranks, entries)

    @pytest.mark.parametrize(
        "dim, ranks, entries",
        [(2, (3,), ((3, 0, 0), (0, 3, 0))), (0, (1,), ())],
        ids=["block-wider-than-dim", "zero-dim"],
    )
    def test_instance_rule_rejects_certificate(self, dim, ranks, entries):
        # dim and ranks pass the same rule as every instance, check_instance
        with pytest.raises(InvalidCertificate):
            ConfigMatrix(dim, ranks, entries)

    def test_integral_values_normalized(self):
        rows = [list(map(float, row)) for row in CERT_4x7_RANKS_2221.entries]
        cert = ConfigMatrix(4.0, [2.0, 2, 2, 1], rows)
        assert cert == CERT_4x7_RANKS_2221
        assert type(cert.dim) is int and type(cert.entries[0][0]) is int

    def test_json_must_be_an_object(self):
        with pytest.raises(MalformedInput):
            ConfigMatrix.from_json_dict([1, 2])


class TestValidateOnce:
    def test_invalid_certificate_raises_on_every_call(self):
        bad = DEFECTIVE_CERT_5x12_RANKS_3333
        for _ in range(3):
            for use in (config_spatial_dual, config_naimark_dual,
                        mu_chain, tableau_cells):
                with pytest.raises(InvalidCertificate):
                    use(bad)

    def test_validated_certificate_unchanged(self):
        def fresh():
            return ConfigMatrix(4, (2, 2, 2, 1), CERT_4x7_RANKS_2221.entries)

        checked = fresh()
        config_spatial_dual(checked)
        plain = fresh()
        assert checked == plain and hash(checked) == hash(plain)
        assert repr(checked) == repr(plain)
        assert checked.to_json_dict() == plain.to_json_dict()
        assert ConfigMatrix.from_json_dict(checked.to_json_dict()) == plain


class TestNoHiddenState:
    def test_checked_certificate_holds_only_its_fields(self):
        cert = ConfigMatrix(4, (2, 2, 2, 1), CERT_4x7_RANKS_2221.entries)
        for use in (config_spatial_dual, config_naimark_dual,
                    mu_chain, tableau_cells):
            use(cert)
        assert vars(cert).keys() == {"dim", "ranks", "entries"}
        # certificates the library builds skip the constructor's re-parse;
        # each must still be the certificate the checking constructor makes
        # of its data, with the same hash
        tight, peeled = decide((4, 2, 2, 2, 1, 1), 4, certificate=True)
        assert tight and peeled.ranks[0] == 4
        built = [find_config((2, 2, 2, 1), 4), peeled,
                 *islice(iter_configs((3, 3, 2, 2, 1, 1), 5), 40)]
        built += [config_naimark_dual(c) for c in built]
        built += [config_spatial_dual(c) for c in built if max(c.ranks) < c.dim]
        assert len(built) == 167
        for c in built:
            assert vars(c).keys() == {"dim", "ranks", "entries"}
            copy = ConfigMatrix(c.dim, c.ranks, c.entries)
            assert c == copy and hash(c) == hash(copy)


class TestFindConfig:
    def test_exists_2221_dim4(self):
        cert = find_config((2, 2, 2, 1), 4)
        assert cert is not None
        assert validate_config(cert).ok

    def test_absent_33_dim5(self):
        assert find_config((3, 3), 5) is None

    def test_single_full_rank_is_scaled_identity(self):
        for dim in (1, 2, 5):
            cert = find_config((dim,), dim)
            expected = tuple(
                tuple(dim if i == j else 0 for j in range(dim))
                for i in range(dim)
            )
            assert cert.entries == expected

    def test_two_full_ranks(self):
        assert find_config((4, 4), 4) is not None

    def test_invalid_ranks(self):
        with pytest.raises(InvalidRanks):
            find_config((), 3)
        with pytest.raises(InvalidRanks):
            find_config((4,), 3)

    def test_deterministic(self):
        a = find_config((3, 2, 2, 2), 4)
        b = find_config((3, 2, 2, 2), 4)
        assert a == b

    def test_total_below_dim_infeasible(self):
        assert find_config((2, 1), 5) is None


def _columns(cert):
    return list(zip(*cert.entries))


class TestSearchOrder:
    """The support pruning only cuts states without a completion, so the
    search returns what the unpruned reference walk returns, in its order."""

    def test_find_config_matches_reference_walk(self):
        # 696 instances: every partition with 1 <= dim <= 6 and
        # dim <= total <= 2*dim + 2
        checked = 0
        for dim in range(1, 7):
            for total in range(dim, 2 * dim + 3):
                for ranks in partitions_of(total, max_part=dim):
                    cert = find_config(ranks, dim)
                    got = [] if cert is None else [_columns(cert)]
                    assert got == reference_columns(ranks, dim, 1), (ranks, dim)
                    checked += 1
        assert checked == 696

    def test_iter_configs_matches_reference_walk(self):
        # 242 instances: every partition with 1 <= dim <= 5 and
        # dim <= total <= 2*dim + 1, in full up to 5 000 certificates (all
        # 28 instances of the benchmark's duals workload among them) and
        # the first 300 above
        checked = compared = 0
        for dim in range(1, 6):
            for total in range(dim, 2 * dim + 2):
                for ranks in partitions_of(total, max_part=dim):
                    cap = None if count_configs(ranks, dim) <= 5000 else 300
                    got = [_columns(c) for c in islice(iter_configs(ranks, dim), cap)]
                    assert got == reference_columns(ranks, dim, cap), (ranks, dim)
                    checked += 1
                    compared += len(got)
        assert checked == 242 and compared == 25893 + 18 * 300

    def test_iter_configs_builds_each_option_list_once(self, monkeypatch):
        # a state whose subtree held a certificate keeps its option list and
        # a dead one is skipped, so no state is expanded twice; a paused walk
        # holds the option lists of states on the way to a certificate only
        class Options(list):
            """A list that a weak reference can follow."""

        built = {}
        real = configmat._column_options

        def tracked(rho, prev, step, n, m):
            state = (sum(rho) // n, rho, prev)
            assert state not in built, state
            options = Options(real(rho, prev, step, n, m))
            built[state] = weakref.ref(options)
            return options

        monkeypatch.setattr(configmat, "_column_options", tracked)
        ranks, dim = (3, 3, 2, 2, 1, 1), 5
        starts = {0, *accumulate(ranks)}
        walk = iter_configs(ranks, dim)
        on_the_way = set()
        for cert in islice(walk, 600):
            columns = _columns(cert)
            rho, path = (0,) * dim, set()
            for c, col in enumerate(columns):
                path.add((c, rho, None if c in starts else columns[c - 1]))
                rho = tuple(map(add, rho, col))
            on_the_way |= path
        gc.collect()
        held = {state for state, ref in built.items() if ref() is not None}
        # the walk's own stack holds the last certificate's path; the rest
        # are kept lists, and dead states were expanded too
        assert held <= on_the_way and held - path
        assert len(built) > len(on_the_way)
        walk.close()


class TestCountConfigs:
    def test_trivial_cases(self):
        assert count_configs((1, 1), 1) == 1
        assert count_configs((3, 3, 3), 3) == 1

    def test_pinned_2221_dim4(self):
        # frozen from the raw matrix enumeration oracle (see oracles.py)
        assert count_configs((2, 2, 2, 1), 4) == 1

    @pytest.mark.parametrize(
        "ranks, dim, expected",
        [
            ((4,) * 8, 5, 1435),
            ((1,) * 8, 5, 1435),
            ((3,) * 8, 5, 3308764620),
            ((4, 4, 4, 3), 8, 1),
        ],
    )
    def test_pinned_counts(self, ranks, dim, expected):
        # frozen from the column-by-column count over the full box
        assert count_configs(ranks, dim) == expected

    def test_agrees_with_search_and_enumeration(self):
        # 696 instances: every partition with 1 <= dim <= 6 and
        # dim <= total <= 2*dim + 2; the count is compared with the search
        # and, where it is small enough, with the enumeration
        checked = enumerated = 0
        for dim in range(1, 7):
            for total in range(dim, 2 * dim + 3):
                for ranks in partitions_of(total, max_part=dim):
                    count = count_configs(ranks, dim)
                    found = find_config(ranks, dim) is not None
                    assert (count > 0) == found, (ranks, dim)
                    if count <= 5000:
                        assert count == len(list(iter_configs(ranks, dim))), (
                            ranks, dim,
                        )
                        enumerated += 1
                    checked += 1
        assert (checked, enumerated) == (696, 558)

    def test_brute_force_agreement_small(self):
        cases = [
            ((2, 2), 2), ((2, 1, 1), 2), ((1, 1, 1), 2),
            ((2, 2, 2), 3), ((3, 2, 1), 3), ((1, 1, 1, 1), 3),
        ]
        for ranks, dim in cases:
            assert count_configs(ranks, dim) == brute_count_configs(ranks, dim)

    def test_zero_iff_find_fails_exhaustive(self):
        # every rank sequence with total at most 12, every dimension from the
        # largest rank up to one beyond the total
        for total in range(1, 13):
            for ranks in partitions_of(total):
                for dim in range(ranks[0], total + 2):
                    found = find_config(ranks, dim) is not None
                    assert (count_configs(ranks, dim) >= 1) == found

    def test_block_permutation_invariance(self):
        for total in range(2, 11):
            for ranks in partitions_of(total, max_part=4):
                if len(ranks) > 5:
                    continue
                dim = max(ranks) + 1
                reference = count_configs(ranks, dim)
                seen = set(permutations(ranks))
                for perm in seen:
                    assert count_configs(perm, dim) == reference


class TestMuChain:
    def test_first_level(self):
        chain = mu_chain(CERT_5x8_RANKS_2222)
        assert chain[0] == ()
        assert chain[1] == (5, 5)

    def test_last_level_full_rectangle(self):
        for cert in (CERT_5x8_RANKS_2222, CERT_4x7_RANKS_2221):
            chain = mu_chain(cert)
            assert chain[-1] == (cert.total,) * cert.dim

    def test_reference_chain_42221(self):
        chain = mu_chain(CERT_6x11_RANKS_42221)
        assert chain[4] == (11, 11, 11, 11, 11, 5)

    def test_sizes_follow_prefix_sums(self):
        chain = mu_chain(CERT_5x8_RANKS_32111)
        sigma = 0
        for k, width in enumerate(CERT_5x8_RANKS_32111.ranks, start=1):
            sigma += width
            assert sum(chain[k]) == 5 * sigma


class TestTableaux:
    @pytest.mark.parametrize(
        "cert,grid",
        [
            (CERT_5x8_RANKS_2222, GRID_5x8_RANKS_2222),
            (CERT_5x8_RANKS_32111, GRID_5x8_RANKS_32111),
            (CERT_4x7_RANKS_2221, GRID_4x7_RANKS_2221),
            (CERT_6x11_RANKS_42221, GRID_6x11_RANKS_42221),
        ],
        ids=["5x8-2222", "5x8-32111", "4x7-2221", "6x11-42221"],
    )
    def test_cells_match_reference(self, cert, grid):
        assert tableau_cells(cert) == grid

    def test_render_format(self):
        text = render_tableaux(ConfigMatrix(1, (1, 1), ((1, 1),)))
        assert text == "1:1 2:1"

    def test_single_block_rectangle(self):
        cert = find_config((3,), 3)
        rows = tableau_cells(cert)
        assert rows == [[(1, v + 1)] * 3 for v in range(3)]

    def test_render_roundtrip_against_cells(self):
        text = render_tableaux(CERT_4x7_RANKS_2221)
        parsed = [
            [tuple(map(int, cell.split(":"))) for cell in line.split()]
            for line in text.splitlines()
        ]
        assert parsed == tableau_cells(CERT_4x7_RANKS_2221)

    def test_cells_rebuild_certificate(self):
        # the union tableau determines the certificate: multiplicity of
        # (block, value) per row equals the corresponding matrix entry
        for cert in (CERT_5x8_RANKS_2222, CERT_5x8_RANKS_32111,
                     CERT_4x7_RANKS_2221, CERT_6x11_RANKS_42221):
            rows = tableau_cells(cert)
            rebuilt = [[0] * cert.total for _ in range(cert.dim)]
            for i, row in enumerate(rows):
                for (k, v) in row:
                    rebuilt[i][sum(cert.ranks[:k - 1]) + v - 1] += 1
            assert tuple(tuple(r) for r in rebuilt) == cert.entries


class TestLROracle:
    def test_trivial_identity(self):
        assert lr_oracle((), (2, 1), (2, 1)) == 1
        assert lr_oracle((), (3,), (3,)) == 1

    def test_one_box(self):
        assert lr_oracle((1,), (1,), (2,)) == 1
        assert lr_oracle((1,), (1,), (1, 1)) == 1

    def test_classical_multiplicity_two(self):
        assert lr_oracle((2, 1), (2, 1), (3, 2, 1)) == 2

    def test_infeasible_returns_zero(self):
        assert lr_oracle((2,), (1,), (2,)) == 0
        assert lr_oracle((3,), (1,), (2, 1, 1)) == 0

    def test_symmetry_in_the_two_factors(self):
        pairs = [((2, 1), (3, 1)), ((2, 2), (2, 1)), ((3,), (1, 1, 1))]
        for lam, mu in pairs:
            total = sum(lam) + sum(mu)
            for nu in partitions_of(total, max_part=6):
                assert lr_oracle(lam, mu, nu) == lr_oracle(mu, lam, nu)

    def test_pieri_rule(self):
        # multiplying by a single row gives horizontal strips, coefficient 1
        lam = (3, 2)
        for nu in partitions_of(sum(lam) + 2, max_part=6):
            coeff = lr_oracle(lam, (2,), nu)
            padded = nu + (0,) * (3 - len(nu))
            lamp = lam + (0,)
            strip = all(padded[i] >= lamp[i] for i in range(3)) and all(
                padded[i + 1] <= lamp[i] for i in range(2)
            ) and len(nu) <= 3
            assert coeff == (1 if strip else 0)


class TestOkadaProduct:
    def test_two_single_boxes(self):
        assert set(okada_product(1, 1, 1, 1)) == {(2,), (1, 1)}

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            okada_product(1, 2, 3, 3)

    def test_integral_values_accepted(self):
        # the integrality rule of every other entry point
        assert okada_product(2.0, 1.0, 3, 3.0) == okada_product(2, 1, 3, 3)

    def test_shape_conditions(self):
        for lam in okada_product(2, 1, 3, 3):
            padded = lam + (0,) * (3 - len(lam))
            assert padded[1] == 3
            assert padded[0] + padded[2] == 6
            assert padded[0] >= 3

    def test_oracle_equivalence(self):
        for a in range(1, 4):
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
                        for lam in expected:
                            assert lr_oracle((n1,) * a, (n2,) * b, lam) == 1


class TestHookCompletion:
    def test_full_rectangle_zero_steps(self):
        assert hook_completion_feasible((4, 4, 4), 0, 4, 3)

    def test_rectangle_no_full_rows(self):
        # a dim x l1 rectangle with no width-sized row needs dim more rows
        for dim, l1, width in [(3, 2, 4), (4, 2, 5)]:
            k = width - l1
            feasible = hook_completion_feasible((dim,) * l1, k, width, dim)
            assert feasible == (k >= dim)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            hook_completion_feasible((2, 2), 2, 3, 2)

    def test_does_not_fit(self):
        with pytest.raises(DoesNotFit):
            hook_completion_feasible((9,), 1, 3, 2)

    def test_matches_iterated_pieri_oracle(self):
        for dim in range(1, 5):
            for width in range(1, 5):
                for k in range(0, width + 1):
                    total = dim * (width - k)
                    if total < 0:
                        continue
                    for lam in partitions_in_box(total, dim, width):
                        assert hook_completion_feasible(
                            lam, k, width, dim
                        ) == hook_completion_oracle(lam, k, width, dim)


class TestChainProductCrossCheck:
    def test_counts_match_chain_products(self):
        for total in range(2, 9):
            for ranks in partitions_of(total):
                for dim in range(ranks[0], total + 1):
                    assert count_configs(ranks, dim) == chain_count_configs(
                        ranks, dim
                    )

    def test_counts_match_chain_products_wide(self):
        # the slow tail of the same sweep, up to total 10
        for total in (9, 10):
            for ranks in partitions_of(total):
                for dim in range(ranks[0], total + 1):
                    assert count_configs(ranks, dim) == chain_count_configs(
                        ranks, dim
                    )
