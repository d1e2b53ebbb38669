from fractions import Fraction

import numpy as np
import pytest

from refdata import EXPECTED_MAXIMAL
from tffcomb import (
    alpha_reduce,
    count_configs,
    decide,
    enumerate_tff,
    fillmore_feasible,
    find_config,
    first3_check,
    hook_type_decide,
    iter_configs,
    k_block_bound,
    maximal_elements,
    naimark_dual,
    realize_tff,
    recur_strip,
    spatial_dual,
    unique_maximal,
    validate_config,
)
from tffcomb.errors import (
    AlphaOutOfRange,
    InvalidAlpha,
    InvalidParameter,
    InvalidRanks,
)
from tffcomb.partitions import dominance_leq, partitions_of
from tffcomb.tffcore import _admissible


# every public entry point that takes a (ranks, dim) instance
INSTANCE_ENTRY_POINTS = {
    "decide": decide,
    "find_config": find_config,
    "count_configs": count_configs,
    "iter_configs": lambda ranks, dim: list(iter_configs(ranks, dim)),
    "spatial_dual": spatial_dual,
    "naimark_dual": naimark_dual,
    "recur_strip": recur_strip,
    "realize_tff": lambda ranks, dim: realize_tff(ranks, dim, seed=0),
}

MALFORMED_INSTANCES = {
    "empty": ((), 3),
    "zero-rank": ((2, 0), 3),
    "negative-rank": ((2, -1), 3),
    "fractional-rank": ((2.7, 1), 3),
    "string-rank": (("2",), 3),
    "zero-dim": ((1, 1), 0),
    "negative-dim": ((1, 1), -1),
    "fractional-dim": ((2, 2, 2), 4.5),
    "rank-above-dim": ((4,), 3),
}


class TestInstanceBoundary:
    @pytest.mark.parametrize("name", sorted(INSTANCE_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "ranks, dim", MALFORMED_INSTANCES.values(), ids=MALFORMED_INSTANCES
    )
    def test_malformed_instance_rejected(self, name, ranks, dim):
        with pytest.raises(InvalidRanks):
            INSTANCE_ENTRY_POINTS[name](ranks, dim)

    @pytest.mark.parametrize("name", sorted(INSTANCE_ENTRY_POINTS))
    def test_integral_values_accepted(self, name):
        got = INSTANCE_ENTRY_POINTS[name]((2.0, 2.0, 2.0), 4.0)
        want = INSTANCE_ENTRY_POINTS[name]((2, 2, 2), 4)
        if name == "realize_tff":
            assert got.dim == want.dim == 4
            assert all(map(np.array_equal, got.blocks, want.blocks))
        else:
            assert got == want

    def test_bound_below_one_is_not_an_error(self):
        assert decide((2, 1), 5) is False
        assert find_config((2, 1), 5) is None
        assert count_configs((2, 1), 5) == 0

    @pytest.mark.parametrize(
        "fn", [maximal_elements, enumerate_tff, alpha_reduce],
        ids=["maximal_elements", "enumerate_tff", "alpha_reduce"],
    )
    @pytest.mark.parametrize(
        "dim", [0, -4, 4.5, "4", 3],
        ids=["zero-dim", "negative-dim", "fractional-dim", "string-dim",
             "fractional-total"],
    )
    def test_malformed_alpha_rejected(self, fn, dim):
        with pytest.raises(InvalidAlpha):
            fn(Fraction(3, 2), dim)

    def test_integral_alpha_instance_accepted(self):
        for fn in (maximal_elements, enumerate_tff, alpha_reduce):
            assert fn(1.5, 4.0) == fn(Fraction(3, 2), 4)


class TestDecide:
    def test_reference_positive(self):
        assert decide((2, 2, 2), 4)
        assert decide((4, 2, 2, 2, 1), 6)

    def test_reference_negative(self):
        assert not decide((3, 3), 5)

    def test_two_full_ranks(self):
        for dim in (1, 3, 6):
            assert decide((dim, dim), dim)

    def test_certificate_attached(self):
        tight, cert = decide((2, 2, 2, 1), 4, certificate=True)
        assert tight and validate_config(cert).ok
        tight, cert = decide((3, 3), 5, certificate=True)
        assert not tight and cert is None

    def test_unsorted_input_accepted(self):
        assert decide((1, 2, 2, 2), 4) == decide((2, 2, 2, 1), 4)

    @pytest.mark.parametrize(
        "ranks, dim", [((2, 2, 0), 3), ((2, 0), 2), ((), 3), ((1, 1), 0)]
    )
    def test_malformed_instances_rejected(self, ranks, dim):
        with pytest.raises(InvalidRanks):
            decide(ranks, dim)

    def test_descent_agrees_with_unreduced_search(self):
        # 1394 instances: every partition with 1 <= dim <= 7 and
        # dim <= total <= 2*dim + 2, searched at full size as the reference
        checked = 0
        for dim in range(1, 8):
            for total in range(dim, 2 * dim + 3):
                for ranks in partitions_of(total, max_part=dim):
                    tight, cert = decide(ranks, dim, certificate=True)
                    assert decide(ranks, dim) == tight
                    assert tight == (find_config(ranks, dim) is not None), (
                        ranks, dim,
                    )
                    if tight:
                        assert validate_config(cert).ok, (ranks, dim)
                        assert (cert.ranks, cert.dim) == (ranks, dim)
                    checked += 1
        assert checked == 1394

    @pytest.mark.parametrize(
        "ranks, tight",
        [((4, 4, 4, 4), True), ((5, 4, 4, 4), True), ((5, 4, 4, 3), False)],
    )
    def test_dim_nine_instances_reduce(self, ranks, tight):
        got, cert = decide(ranks, 9, certificate=True)
        assert got == tight
        if tight:
            assert validate_config(cert).ok
            assert (cert.ranks, cert.dim) == (ranks, 9)
        else:
            assert cert is None


class TestFillmore:
    def test_integer_trace_at_rank(self):
        assert fillmore_feasible(3, 3)

    def test_non_integer_trace(self):
        assert not fillmore_feasible(Fraction(5, 2), 2)

    def test_trace_below_rank(self):
        assert not fillmore_feasible(5, 6)

    def test_boundary_case_from_rank_one_drop(self):
        # alpha*dim - top rank with alpha = 11/6, dim 6, top 5
        assert fillmore_feasible(Fraction(11, 6) * 6 - 5, 6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fillmore_feasible(-1, 0)

    @pytest.mark.parametrize("trace, rank", [(-1, 0), (2, -1)])
    def test_negative_is_typed_error(self, trace, rank):
        with pytest.raises(InvalidParameter):
            fillmore_feasible(trace, rank)


class TestFirst3:
    def test_boundary_equality_accepts(self):
        assert first3_check(5, 1, 1, Fraction(11, 6), 6)

    def test_two_rank_overflow_rejects(self):
        assert not first3_check(5, 2, 0, Fraction(11, 6), 6)

    def test_three_rank_bound_small_alpha(self):
        assert not first3_check(2, 2, 2, Fraction(7, 5), 5)

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            first3_check(1, 1, 1, 2, 3)
        with pytest.raises(AlphaOutOfRange):
            first3_check(1, 1, 1, 1, 3)

    def test_half_bound_keeps_equal_triples(self):
        # at bound 3/2 the equivalent integer-bound instance admits the
        # triple of half-dimension ranks
        assert first3_check(2, 2, 2, Fraction(3, 2), 4)
        assert first3_check(3, 3, 3, Fraction(3, 2), 6)
        assert not first3_check(3, 3, 2, Fraction(3, 2), 4)

    def test_unsorted_raises(self):
        with pytest.raises(InvalidRanks):
            first3_check(1, 2, 1, Fraction(3, 2), 4)


class TestHookType:
    def test_small_examples(self):
        assert hook_type_decide(2, 1, 1, 1, Fraction(5, 3), 3)
        assert hook_type_decide(3, 1, 1, 2, Fraction(7, 4), 4)

    def test_matches_search_on_hooks(self):
        # 4,2 with trailing ones at (11/6, 6)
        assert hook_type_decide(4, 2, 1, 4, Fraction(11, 6), 6) == decide(
            (4, 2, 1, 1, 1, 1, 1), 6
        )

    def test_sum_mismatch(self):
        with pytest.raises(InvalidRanks):
            hook_type_decide(2, 1, 1, 5, Fraction(5, 3), 3)


class TestKBlockBound:
    def test_vacuous_at_two(self):
        assert k_block_bound((9, 9, 9), 9, 2)

    def test_small_alpha_rejects_wide_prefix(self):
        assert not k_block_bound((2, 2, 2), 5, Fraction(6, 5))

    def test_accepts_all_ones(self):
        assert k_block_bound((1,) * 6, 5, Fraction(6, 5))


class TestUniqueMaximal:
    def test_integer_bounds(self):
        assert unique_maximal(2, 7) == (7, 7)
        assert unique_maximal(1, 4) == (4,)
        assert unique_maximal(3, 2) == (2, 2, 2)

    def test_one_over_n_family(self):
        assert unique_maximal(Fraction(4, 3), 6) == (2, 2, 2, 2)
        assert unique_maximal(Fraction(5, 4), 8) == (2, 2, 2, 2, 2)

    def test_half_integer_family(self):
        assert unique_maximal(Fraction(3, 2), 6) == (3, 3, 3)
        assert unique_maximal(Fraction(5, 2), 4) == (4, 2, 2, 2)

    def test_two_over_odd_family(self):
        assert unique_maximal(Fraction(5, 3), 3) == (2, 1, 1, 1)
        assert unique_maximal(Fraction(7, 5), 5) == (2, 2, 1, 1, 1)

    def test_uncovered_cases(self):
        assert unique_maximal(Fraction(11, 6), 6) is None
        assert unique_maximal(Fraction(7, 4), 4) is None

    def test_divisibility_required(self):
        assert unique_maximal(Fraction(4, 3), 6) is not None
        assert unique_maximal(Fraction(4, 3), 7) is None

    def test_agrees_with_search_when_covered(self):
        for dim in range(1, 10):
            for total in range(dim, 2 * dim + 1):
                alpha = Fraction(total, dim)
                closed = unique_maximal(alpha, dim)
                if closed is None:
                    continue
                assert maximal_elements(alpha, dim) == [closed]


class TestEnumeration:
    def test_three_maximal_at_11_6(self):
        got = maximal_elements(Fraction(11, 6), 6)
        assert sorted(got) == sorted(
            [(5, 1, 1, 1, 1, 1, 1), (4, 2, 2, 2, 1), (3, 3, 3, 2)]
        )

    def test_three_maximal_at_13_8(self):
        got = maximal_elements(Fraction(13, 8), 8)
        assert sorted(got) == sorted(
            [(5, 3, 2, 1, 1, 1), (5, 2, 2, 2, 2), (4, 4, 2, 2, 1)]
        )

    def test_alpha_one(self):
        assert maximal_elements(1, 5) == [(5,)]
        assert set(enumerate_tff(1, 5)) == set(partitions_of(5))

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            maximal_elements(Fraction(1, 2), 4)
        with pytest.raises(InvalidAlpha):
            enumerate_tff(Fraction(7, 5), 4)

    def test_reduction_above_two(self):
        # bounds above 2 enumerate through the conjugate instance
        assert maximal_elements(Fraction(7, 3), 3) == maximal_elements(
            Fraction(7, 4), 4
        )

    def test_maximal_is_antichain_and_closure_matches(self):
        for dim in range(2, 7):
            for total in range(dim + 1, 2 * dim + 1):
                alpha = Fraction(total, dim)
                tops = maximal_elements(alpha, dim)
                for i, p in enumerate(tops):
                    for q in tops[i + 1:]:
                        assert not dominance_leq(p, q)
                        assert not dominance_leq(q, p)
                closure = set(enumerate_tff(alpha, dim))
                assert set(tops) <= closure
                for cand in partitions_of(total, max_part=dim):
                    assert (cand in closure) == any(
                        dominance_leq(cand, top) for top in tops
                    )

    def test_downward_closure_by_direct_search(self):
        # every enumerated sequence is individually confirmed by the search
        for dim in range(2, 7):
            for total in range(dim + 1, 2 * dim + 1):
                alpha = Fraction(total, dim)
                for seq in enumerate_tff(alpha, dim):
                    assert decide(seq, dim)

    def test_filters_never_reject_tight_sequences(self):
        for dim in range(2, 8):
            for total in range(dim + 1, 2 * dim):
                alpha = Fraction(total, dim)
                for seq in enumerate_tff(alpha, dim):
                    padded = seq + (0, 0, 0)
                    assert first3_check(
                        padded[0], padded[1], padded[2], alpha, dim
                    )
                    assert k_block_bound(seq, dim, alpha)

    def test_admissible_candidates_are_the_filtered_partitions(self):
        # every cell with 1 < alpha < 2 and dim <= 10: the capped scan
        # yields exactly what the two public filters pass, in the same order
        cells = 0
        for dim in range(1, 11):
            for total in range(dim + 1, 2 * dim):
                alpha = Fraction(total, dim)
                expect = [
                    cand for cand in partitions_of(total, max_part=dim)
                    if first3_check(*(cand + (0, 0, 0))[:3], alpha, dim)
                    and k_block_bound(cand, dim, alpha)
                ]
                assert list(_admissible(alpha, dim, total)) == expect, (
                    dim, total,
                )
                cells += 1
        assert cells == 45

    def test_matches_reference_tables_away_from_known_defect(self):
        for (dim, alpha_text), expect in EXPECTED_MAXIMAL.items():
            got = maximal_elements(Fraction(alpha_text), dim)
            assert sorted(got) == sorted(expect), (dim, alpha_text)
