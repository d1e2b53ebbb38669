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
from typing import Iterator, Sequence

from .configmat import ConfigMatrix, check_alpha, check_instance, find_config
from .dualities import (
    alpha_reduce,
    config_naimark_dual,
    config_spatial_dual,
    naimark_dual,
    spatial_dual,
)
from .errors import AlphaOutOfRange, InvalidParameter, InvalidRanks
from .partitions import as_partition, capped_partitions, dominance_leq, partitions_of

Rational = Fraction | int


def _add_identity_blocks(
    cert: ConfigMatrix | None, count: int, dim: int
) -> ConfigMatrix:
    """``cert`` (None for no blocks) behind ``count`` full-rank blocks, each
    the identity summand: ``dim`` boxes of value v in row v."""
    rows = cert.entries if cert else ((),) * dim
    return ConfigMatrix(
        dim=dim,
        ranks=(dim,) * count + (cert.ranks if cert else ()),
        entries=tuple(
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
    - the Naimark dual is taken when it shrinks N (M < 2N);
    - at the end (M >= 2N) the Naimark complement has bound M/(M-N) <= 2,
      so ``k_block_bound`` must hold for the ranks in dimension M - N.

    Every move strictly lowers M + N, so the descent ends.  The certificate
    search then runs only on the terminal instance; with
    ``certificate=True`` the witness is lifted back through the recorded
    moves (configuration-matrix dualities are exact involutions, and a
    peeled identity summand re-enters as a forced diagonal block).
    """
    ranks, dim = check_instance(ranks, dim)
    ranks = tuple(sorted(ranks, reverse=True))

    def outcome(tight: bool, cert: ConfigMatrix | None):
        return (tight, cert) if certificate else tight

    trail: list[tuple] = []
    while ranks:
        full = ranks.count(dim)
        total = sum(ranks)
        if full:
            trail.append((_add_identity_blocks, full, dim))
            ranks = ranks[full:]
            continue
        if total <= dim:
            if total < dim:
                return outcome(False, None)
            break
        co_ranks, co_dim = naimark_dual(ranks, dim)
        if ranks[0] > co_dim:
            return outcome(False, None)
        if len(ranks) * dim - total < total:
            trail.append((config_spatial_dual,))
            ranks, dim = spatial_dual(ranks, dim)
        elif co_dim < dim:
            trail.append((config_naimark_dual,))
            ranks, dim = co_ranks, co_dim
        elif not k_block_bound(co_ranks, co_dim, Fraction(total, co_dim)):
            return outcome(False, None)
        else:
            break

    cert = None
    # M = N is tight without a search; only its certificate needs one
    if ranks and (certificate or total > dim):
        cert = find_config(ranks, dim)
        if cert is None:
            return outcome(False, None)
    if not certificate:
        return outcome(True, None)
    for lift, *args in reversed(trail):
        cert = lift(cert, *args)
    return outcome(True, cert)


def fillmore_feasible(trace: Rational, rank: int) -> bool:
    """Whether a positive semidefinite matrix with the given trace and rank
    can be written as a sum of orthogonal projections: the trace must be a
    nonnegative integer at least the rank."""
    trace = Fraction(trace)
    if trace < 0 or rank < 0:
        raise InvalidParameter("trace and rank must be nonnegative")
    return trace.denominator == 1 and trace >= rank


def _require_alpha_open_interval(alpha: Fraction) -> None:
    if not 1 < alpha < 2:
        raise AlphaOutOfRange(f"bound {alpha} is not strictly between 1 and 2")


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
    caps = _first3_caps(Fraction(alpha), dim)
    if not l1 >= l2 >= l3 >= 0:
        raise InvalidRanks(f"need l1 >= l2 >= l3 >= 0, got {(l1, l2, l3)}")
    return all(map(le, accumulate((l1, l2, l3)), caps))


def _first3_caps(alpha: Fraction, dim: int) -> tuple[int, int, int]:
    """first3_check's bounds on l1, l1+l2 and l1+l2+l3, rounded down."""
    _require_alpha_open_interval(alpha)
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
    normalized sequence.
    """
    alpha = Fraction(alpha)
    _require_alpha_open_interval(alpha)
    if ones < 0:
        raise InvalidRanks("number of trailing ones must be nonnegative")
    if not l1 >= l2 >= l3 >= 0:
        raise InvalidRanks(f"need l1 >= l2 >= l3 >= 0, got {(l1, l2, l3)}")
    seq = [x for x in (l1, l2, l3) if x != 0] + [1] * ones
    if alpha * dim != sum(seq):
        raise InvalidRanks(
            f"sequence sums to {sum(seq)} but alpha*dim = {alpha * dim}"
        )
    padded = seq + [0, 0, 0]
    return first3_check(padded[0], padded[1], padded[2], alpha, dim)


def k_block_bound(ranks: Sequence[int], dim: int, alpha: Rational) -> bool:
    """Necessary filter: whenever alpha < k/(k-1), the k largest ranks must
    fit inside the dimension.  Returns False on the first violation."""
    alpha = Fraction(alpha)
    prefix = 0
    for k, r in enumerate(ranks, start=1):
        prefix += r
        if _k_block_applies(alpha, k) and prefix > dim:
            return False
    return True


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
    alpha = Fraction(alpha)
    if alpha < 1 or dim < 1 or (alpha * dim).denominator != 1:
        return None
    if alpha.denominator == 1:
        n = alpha.numerator
        return as_partition((dim,) * n)
    excess = alpha - 1
    if excess.numerator == 1:
        n = excess.denominator
        if dim % n == 0:
            return as_partition((dim // n,) * (n + 1))
    if alpha.denominator == 2 and dim % 2 == 0:
        n = int(alpha - Fraction(1, 2))
        if n >= 1:
            return as_partition((dim,) * (n - 1) + (dim // 2,) * 3)
    if excess.numerator == 2 and excess.denominator % 2 == 1:
        n = (excess.denominator + 1) // 2
        d = excess.denominator
        if dim % d == 0:
            return as_partition(
                (2 * dim // d,) * (n - 1) + (dim // d,) * 3
            )
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
