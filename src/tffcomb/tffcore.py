"""Deciding tight fusion frame sequences and enumerating maximal ones.

A weakly decreasing sequence of ranks ``L`` is tight in dimension ``N`` when
``alpha * I`` (with ``alpha = sum(L)/N``) splits as a sum of orthogonal
projections with those ranks; equivalently, when a configuration matrix for
``(L, N)`` exists.  Tightness is downward closed under the dominance order,
which the enumeration exploits: only dominance-maximal candidates are sent to
the certificate search, everything below is inherited.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import floor
from operator import le
from typing import Iterator, NamedTuple, Sequence

from .configmat import ConfigMatrix, _built, canonical_instance, check_alpha, find_config
from .dualities import (
    alpha_reduce,
    config_naimark_dual,
    config_spatial_dual,
    naimark_dual,
    spatial_dual,
)
from .errors import AlphaOutOfRange, InvalidAlpha, InvalidParameter, InvalidRanks
from .partitions import as_ints, as_rational, capped_partitions
from .partitions import dominance_leq, partitions_of

Rational = Fraction | int


class Descent(NamedTuple):
    """``decide``'s descent: ``moves`` lists ``(kind, count)`` in order, a
    "peel" of ``count`` full ranks or a "spatial" or "naimark" dual (count
    0); ``ranks`` and ``dim`` are the terminal instance; ``end`` is "empty"
    (no ranks left) or "square" (M = N), both tight, "short" (M < N) or
    "wide" (L_1 > M - N), neither tight, or "search" (the search decides)."""

    moves: tuple[tuple[str, int], ...]
    ranks: tuple[int, ...]
    dim: int
    end: str

    def lift(self, base, peel, spatial, naimark):
        """``base``, solving the terminal instance, carried back through the
        moves: ``peel(x, count, dim)`` adds full blocks in front, and
        ``spatial(x)``, ``naimark(x)`` undo a dual (each an involution)."""
        dim = self.dim
        for kind, count in reversed(self.moves):
            if kind == "peel":
                base = peel(base, count, dim)
            else:
                base = (spatial if kind == "spatial" else naimark)(base)
                dim = base.dim
        return base


def descend(ranks: Sequence[int], dim: int) -> Descent:
    """The descent of ``decide``, as a record; see ``decide`` for the moves."""
    ranks, dim = canonical_instance(ranks, dim)
    moves: list[tuple[str, int]] = []
    while ranks:
        full = ranks.count(dim)
        total = sum(ranks)
        if full:
            moves.append(("peel", full))
            ranks = ranks[full:]
        elif total <= dim or ranks[0] > total - dim:
            break
        elif len(ranks) * dim - total < total:
            moves.append(("spatial", 0))
            ranks, dim = spatial_dual(ranks, dim)
        elif total < 2 * dim:
            moves.append(("naimark", 0))
            ranks, dim = naimark_dual(ranks, dim)
        else:
            break
    m = sum(ranks)
    end = ("empty" if not ranks else "short" if m < dim else "square" if m == dim
           else "wide" if ranks[0] > m - dim else "search")
    return Descent(tuple(moves), ranks, dim, end)


def _add_identity_blocks(
    cert: ConfigMatrix | None, count: int, dim: int
) -> ConfigMatrix:
    """``cert`` (None for no blocks) behind ``count`` full-rank blocks, each
    the identity summand: ``dim`` boxes of value v in row v."""
    rows = cert.entries if cert else ((),) * dim
    return _built(
        dim,
        (dim,) * count + (cert.ranks if cert else ()),
        tuple(
            tuple(dim if i == v else 0 for _ in range(count) for v in range(dim))
            + row
            for i, row in enumerate(rows)
        ),
    )


def decide(
    ranks: Sequence[int], dim: int, certificate: bool = False
) -> bool | tuple[bool, ConfigMatrix | None]:
    """Whether ``ranks`` admits a tight fusion frame in dimension ``dim``.

    The instance descends through tightness-preserving moves, in the manner
    of Euclid's algorithm, with total rank M and dimension N:

    - full ranks peel off as identity summands, and no ranks left is tight;
    - M < N is not tight, and M = N is tight (an orthogonal decomposition);
    - the largest rank must fit in the Naimark complement, L_1 <= M - N;
    - the spatial dual is taken when it shrinks M (K*N - M < M);
    - the Naimark dual is taken when it shrinks N (M < 2N).

    Every move strictly lowers M + N, so the descent ends; ``descend``
    records it.  The certificate search then runs only on the terminal
    instance; with ``certificate=True`` the witness is lifted back through
    the recorded moves (configuration-matrix dualities are exact
    involutions, and a peeled identity summand re-enters as a forced
    diagonal block).
    """
    path = descend(ranks, dim)
    tight, cert = path.end in ("empty", "square", "search"), None
    # M = N is tight without a search; only its certificate needs one
    if path.end == "search" or (certificate and path.end == "square"):
        cert = find_config(path.ranks, path.dim)
        tight = cert is not None
    if not certificate:
        return tight
    lifts = _add_identity_blocks, config_spatial_dual, config_naimark_dual
    return tight, path.lift(cert, *lifts) if tight else None


def fillmore_feasible(trace: Rational, rank: int) -> bool:
    """Whether a positive semidefinite matrix with the given trace and rank
    can be written as a sum of orthogonal projections: the trace must be a
    nonnegative integer at least the rank.  Raises InvalidParameter for a
    trace that is not a rational or a rank that is not an integer."""
    trace = as_rational(trace, InvalidParameter)
    (rank,) = as_ints((rank,), InvalidParameter)
    if trace < 0 or rank < 0:
        raise InvalidParameter("trace and rank must be nonnegative")
    return trace.denominator == 1 and trace >= rank


def first3_check(
    l1: int, l2: int, l3: int, alpha: Rational, dim: int
) -> bool:
    """Necessary-and-sufficient bounds on the three largest ranks for
    1 < alpha < 2: l1 <= (alpha-1)*dim, l1+l2 <= dim, and
    l1+l2+l3 <= dim (alpha < 3/2) or <= 2*(alpha-1)*dim (alpha > 3/2).

    Exactly at alpha = 3/2 neither three-rank bound applies: the instance is
    equivalent to integer bound 3 in half the dimension, where the first
    bound l1 <= dim/2 is already decisive, so only the trivial total bound
    l1+l2+l3 <= alpha*dim is imposed there.  (With bound dim at 3/2 the
    check would wrongly reject (2,2,2) in dimension 4.)
    """
    alpha, dim, _ = check_alpha(alpha, dim)
    caps = _first3_caps(alpha, dim)
    l1, l2, l3 = as_ints((l1, l2, l3), InvalidRanks)
    if not l1 >= l2 >= l3 >= 0:
        raise InvalidRanks(f"need l1 >= l2 >= l3 >= 0, got {(l1, l2, l3)}")
    return all(map(le, accumulate((l1, l2, l3)), caps))


def _first3_caps(alpha: Fraction, dim: int) -> tuple[int, int, int]:
    """first3_check's bounds on l1, l1+l2 and l1+l2+l3, rounded down."""
    if not 1 < alpha < 2:
        raise AlphaOutOfRange(f"bound {alpha} is not strictly between 1 and 2")
    if alpha < Fraction(3, 2):
        three = Fraction(dim)
    elif alpha > Fraction(3, 2):
        three = 2 * (alpha - 1) * dim
    else:
        three = alpha * dim
    return floor((alpha - 1) * dim), dim, floor(three)


def hook_type_decide(
    l1: int, l2: int, l3: int, ones: int, alpha: Rational, dim: int
) -> bool:
    """Tightness of the hook-type sequence (l1, l2, l3, 1, ..., 1).

    For 1 < alpha < 2 the three-rank bounds are necessary and, for sequences
    whose remaining ranks are all 1, sufficient; this evaluates them on the
    normalized sequence, in which trailing zeros of (l1, l2, l3) drop out.
    """
    alpha, dim, total = check_alpha(alpha, dim)
    *head, ones = as_ints((l1, l2, l3, ones), InvalidRanks)
    if ones < 0:
        raise InvalidRanks("number of trailing ones must be nonnegative")
    while head and head[-1] == 0:
        head.pop()
    seq = head + [1] * ones
    if sum(seq) != total:
        raise InvalidRanks(f"sequence sums to {sum(seq)} but alpha*dim = {total}")
    return first3_check(*(seq + [0, 0, 0])[:3], alpha, dim)


def k_block_bound(ranks: Sequence[int], dim: int, alpha: Rational) -> bool:
    """Necessary filter: whenever alpha < k/(k-1), the k largest ranks must
    fit inside the dimension.  Returns False on the first violation."""
    ranks, dim = canonical_instance(ranks, dim)
    alpha, dim, _ = check_alpha(alpha, dim)
    sums = enumerate(accumulate(ranks), start=1)
    return not any(s > dim and _k_block_applies(alpha, k) for k, s in sums)


def _k_block_applies(alpha: Fraction, k: int) -> bool:
    return k >= 2 and alpha * (k - 1) < k


def _admissible(alpha: Fraction, dim: int, total: int) -> Iterator[tuple[int, ...]]:
    """The partitions of ``total`` with parts <= ``dim`` that pass
    first3_check and k_block_bound, in the order of ``partitions_of``.

    Both filters cap prefix sums: ``caps[k]`` bounds l1 + ... + l(k+1).  The
    caps never decrease, so a partition within them also passes
    first3_check's zero padding.
    """
    caps = [*_first3_caps(alpha, dim), *[total] * total]
    for k in range(2, total + 1):
        if _k_block_applies(alpha, k):
            caps[k - 1] = min(caps[k - 1], dim)
    return capped_partitions(total, dim, caps)


def unique_maximal(alpha: Rational, dim: int) -> tuple[int, ...] | None:
    """Closed-form dominance-maximal element for the four covered families.

    Families, indexed by n >= 1: integer bounds alpha = n; alpha = 1 + 1/n
    with n | dim; alpha = n + 1/2 with 2 | dim; alpha = 1 + 2/(2n-1) with
    (2n-1) | dim.  Returns None when (alpha, dim) is not covered.
    """
    try:
        alpha, dim, _ = check_alpha(alpha, dim)
    except InvalidAlpha:
        return None
    if alpha.denominator == 1:
        n = alpha.numerator
        return (dim,) * n
    excess = alpha - 1
    if excess.numerator == 1:
        n = excess.denominator
        if dim % n == 0:
            return (dim // n,) * (n + 1)
    if alpha.denominator == 2 and dim % 2 == 0:
        n = int(alpha - Fraction(1, 2))
        if n >= 1:
            return (dim,) * (n - 1) + (dim // 2,) * 3
    if excess.numerator == 2 and excess.denominator % 2 == 1:
        n = (excess.denominator + 1) // 2
        d = excess.denominator
        if dim % d == 0:
            return (2 * dim // d,) * (n - 1) + (dim // d,) * 3
    return None


def maximal_elements(alpha: Rational, dim: int) -> list[tuple[int, ...]]:
    """All dominance-maximal tight sequences for the given (alpha, dim).

    Candidates are scanned in descending lexicographic order (which refines
    reverse dominance), so a candidate not dominated by an accepted element
    is maximal as soon as ``decide`` finds it tight.  For bounds in (1, 2)
    only admissible candidates are built: the three-rank and k-block filters
    become caps on prefix sums, and the scan cuts every prefix above its
    cap.  Dominance is tested against the prefix sums of the accepted
    elements, computed once each.  Integer bounds have the closed-form
    answer; other bounds reduce into (1, 2) without changing the set of
    sequences.
    """
    alpha, dim, total = check_alpha(alpha, dim)
    if alpha.denominator == 1:
        return [unique_maximal(alpha, dim)]
    if alpha > 2:
        return maximal_elements(*alpha_reduce(alpha, dim))
    accepted: list[tuple[int, ...]] = []
    tops: list[tuple[int, ...]] = []
    for cand in _admissible(alpha, dim, total):
        sums = tuple(accumulate(cand))
        # zip stops at the shorter, which suffices: past the end of ``top``
        # its sum is ``total``, and ``sums`` ends on ``total``
        if any(all(map(le, sums, top)) for top in tops):
            continue
        if decide(cand, dim):
            accepted.append(cand)
            tops.append(sums)
    return accepted


def enumerate_tff(alpha: Rational, dim: int) -> list[tuple[int, ...]]:
    """Every tight sequence for (alpha, dim), in descending lexicographic
    order: the downward dominance closure of the maximal elements."""
    alpha, dim, total = check_alpha(alpha, dim)
    tops = maximal_elements(alpha, dim)
    return [
        cand
        for cand in partitions_of(total, max_part=dim)
        if any(dominance_leq(cand, top) for top in tops)
    ]
