from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lr_oracle, partitions_in_box
from tffcomb.configmat import hook_completion_feasible, okada_product
from tffcomb.errors import DoesNotFit, NotDominated, TFFCombError
from tffcomb.partitions import (
    as_partition,
    conjugate,
    contains,
    dominance_leq,
    dual_in_rectangle,
    majorization_chain,
    pad,
    partitions_of,
)

partition_st = st.lists(st.integers(1, 8), min_size=0, max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def all_partitions_upto(n):
    for total in range(n + 1):
        yield from partitions_of(total)


class TestAsPartition:
    def test_strips_trailing_zeros(self):
        assert as_partition((3, 2, 0, 0)) == (3, 2)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            as_partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_partition((3, -1))

    def test_empty_ok(self):
        assert as_partition(()) == ()


class TestDominance:
    def test_basic_example(self):
        assert dominance_leq((2, 2, 2, 1), (3, 2, 2))

    def test_incomparable_pair(self):
        a, b = (4, 2, 2, 2, 1), (3, 3, 3, 2)
        assert not dominance_leq(a, b)
        assert not dominance_leq(b, a)

    def test_reflexive_single(self):
        assert dominance_leq((5,), (5,))

    def test_unequal_size_false(self):
        assert not dominance_leq((2, 1), (2, 2))

    @pytest.mark.parametrize("n", range(13))
    def test_partial_order_exhaustive(self, n):
        parts = list(partitions_of(n))
        for p in parts:
            assert dominance_leq(p, p)
        for p, q in combinations(parts, 2):
            if dominance_leq(p, q) and dominance_leq(q, p):
                assert p == q
        # transitivity on all comparable triples
        below = {
            p: [q for q in parts if dominance_leq(p, q)] for p in parts
        }
        for p in parts:
            for q in below[p]:
                for r in below[q]:
                    assert dominance_leq(p, r)

    @pytest.mark.parametrize("n", range(13))
    def test_conjugation_reverses_dominance(self, n):
        parts = list(partitions_of(n))
        for p in parts:
            for q in parts:
                assert dominance_leq(p, q) == dominance_leq(
                    conjugate(q), conjugate(p)
                )


class TestMajorizationChain:
    def test_documented_chain(self):
        assert majorization_chain((1, 1, 1, 1), (2, 2)) == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (2, 2),
        ]

    def test_equal_endpoints(self):
        assert majorization_chain((3, 1), (3, 1)) == [(3, 1)]

    def test_single_move(self):
        assert majorization_chain((2, 2, 2, 1), (3, 2, 2)) == [
            (2, 2, 2, 1),
            (3, 2, 2),
        ]

    def test_not_dominated_raises(self):
        with pytest.raises(NotDominated):
            majorization_chain((3, 2, 2), (2, 2, 2, 1))

    def _check_chain(self, a, b):
        chain = majorization_chain(a, b)
        assert chain[0] == as_partition(a)
        assert chain[-1] == as_partition(b)
        for prev, cur in zip(chain, chain[1:]):
            assert dominance_leq(prev, cur)
            width = max(len(prev), len(cur))
            pp = list(prev) + [0] * (width - len(prev))
            cc = list(cur) + [0] * (width - len(cur))
            deltas = [cc[i] - pp[i] for i in range(width)]
            moved = [(i, d) for i, d in enumerate(deltas) if d != 0]
            assert len(moved) == 2
            (i, di), (j, dj) = moved
            assert i < j and di == 1 and dj == -1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unit_moves_exhaustive(self, n):
        parts = list(partitions_of(n))
        for a in parts:
            for b in parts:
                if dominance_leq(a, b):
                    self._check_chain(a, b)


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((4, 4, 4)) == (3, 3, 3, 3)
        assert conjugate(()) == ()

    @given(partition_st)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(partition_st)
    def test_preserves_size(self, p):
        assert sum(conjugate(p)) == sum(p)


class TestDualInRectangle:
    def test_full_rectangle(self):
        assert dual_in_rectangle((3, 3), 3, 2) == ()

    def test_empty(self):
        assert dual_in_rectangle((), 3, 2) == (3, 3)

    def test_self_dual(self):
        assert dual_in_rectangle((2, 1), 3, 2) == (2, 1)

    def test_does_not_fit(self):
        with pytest.raises(DoesNotFit):
            dual_in_rectangle((4,), 3, 2)
        with pytest.raises(DoesNotFit):
            dual_in_rectangle((1, 1, 1), 3, 2)

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=200)
    def test_involution_and_size(self, width, height, data):
        total = data.draw(st.integers(0, width * height))
        shapes = list(partitions_in_box(total, height, width))
        if not shapes:
            return
        p = data.draw(st.sampled_from(shapes))
        d = dual_in_rectangle(p, width, height)
        assert dual_in_rectangle(d, width, height) == p
        assert sum(p) + sum(d) == width * height
        assert contains(d, (width,) * height)


class TestGenerators:
    def test_partitions_of_counts(self):
        # partition numbers p(0)..p(10)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in enumerate(expected):
            assert len(list(partitions_of(n))) == count

    def test_descending_lex_order(self):
        parts = list(partitions_of(6))
        assert parts[0] == (6,)
        assert parts[-1] == (1,) * 6
        assert parts == sorted(parts, reverse=True)

    def test_descending_lex_refines_dominance(self):
        parts = list(partitions_of(9, max_part=4))
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert not dominance_leq(p, q) or p == q

    def test_max_part_respected(self):
        assert all(max(p) <= 3 for p in partitions_of(7, max_part=3))

    def test_box_generator(self):
        shapes = list(partitions_in_box(4, 2, 3))
        assert set(shapes) == {(3, 1), (2, 2)}

    @pytest.mark.parametrize("n", range(13))
    def test_partitions_of_matches_oracle_exhaustive(self, n):
        # one capped walk serves partitions_of and the candidate scan; with
        # every prefix cap at n it must still be the plain box enumeration
        for max_part in range(-1, n + 2):
            assert list(partitions_of(n, max_part)) == list(
                partitions_in_box(n, n, max_part)
            ), max_part
        assert list(partitions_of(n)) == list(partitions_in_box(n, n, n))


@pytest.mark.parametrize(
    "call",
    [lambda: as_partition((1, 2)), lambda: as_partition((3, -1)),
     lambda: pad((2, 1), 1), lambda: majorization_chain((1, 2), (3,)),
     lambda: dual_in_rectangle((2, 3), 3, 2),
     lambda: as_partition((2.7, 1.2)), lambda: dual_in_rectangle((1.5,), 3, 2),
     lambda: lr_oracle((1.5,), (1,), (2,)), lambda: conjugate((1, 2)),
     lambda: okada_product(1.5, 1, 1, 1),
     lambda: list(partitions_of(2.5)), lambda: list(partitions_of(-3)),
     lambda: partitions_of(4, 1.5),
     lambda: hook_completion_feasible((2, 1), 1, 3, "a"),
     lambda: hook_completion_feasible((2, 1), 1.5, 3, 2)],
    ids=["increasing", "negative", "pad-short", "chain", "rectangle",
         "fractional", "fractional-rectangle", "fractional-lr", "conjugate",
         "okada-fractional", "partitions-fractional", "partitions-negative",
         "partitions-fractional-cap", "hook-text-dim", "hook-fractional-k"],
)
def test_malformed_partition_is_typed_error(call):
    with pytest.raises(TFFCombError):
        call()
