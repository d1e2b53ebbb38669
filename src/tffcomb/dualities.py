"""Dualities between tight fusion frame sequences and their certificates.

Two sequence-level maps preserve tightness: the spatial dual replaces every
subspace by its orthogonal complement (ranks dim - L_i, reversed), and the
Naimark dual keeps the ranks but moves to dimension M - dim with frame bound
alpha/(alpha-1).  Both lift to explicit bijections on configuration
matrices, implemented here, so certificate counts are preserved exactly.

Both certificate maps are closed formulas in prefix sums.  The spatial dual
complements the binary summands of each block, and dual column t of a block
of width w has its w + 1 possible nonzeros in rows t..t+w, read from the
block's column prefix sums.  The Naimark dual complements each column's
diagram positions, and dual row h has its N + 1 possible nonzeros in
columns h..h+N, read from the row prefix sums (``config_naimark_dual``
gives the formula and why it holds).  Each map validates its input on every
call, through ``configmat.require_valid``, and takes its output as built,
with no re-parse or re-check: the maps are bijections between valid
certificates, which the tests check exhaustively against independent
reference maps.  Which prefix sums each dual entry subtracts depends on
``(ranks, dim)`` alone, so each map works that plan out once per instance
(a bounded cache) and applies it with two itemgetters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter, sub
from typing import Iterable, Sequence

from .configmat import (
    ConfigMatrix,
    _built,
    canonical_instance,
    check_alpha,
    require_valid,
)
from .errors import (
    AlphaNotGreaterThanOne,
    DegenerateDual,
    InvalidCertificate,
    PreconditionNotMet,
)

Rational = Fraction | int


def spatial_dual(ranks: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """Complementary rank sequence (dim - L_K, ..., dim - L_1) in the same
    dimension; full-rank entries drop out.  Raises DegenerateDual when every
    rank equals the dimension."""
    ranks, dim = canonical_instance(ranks, dim)
    dual = tuple(dim - r for r in reversed(ranks) if r < dim)
    if not dual:
        raise DegenerateDual(
            f"all ranks equal dim={dim}; spatial dual has no subspaces left"
        )
    return dual, dim


def naimark_dual(ranks: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """Same ranks in dimension M - dim (requires frame bound > 1)."""
    ranks, dim = canonical_instance(ranks, dim)
    total = sum(ranks)
    if total <= dim:
        raise AlphaNotGreaterThanOne(
            f"bound {Fraction(total, dim)} is not > 1; no complement space"
        )
    return ranks, total - dim


def alpha_reduce(alpha: Rational, dim: int) -> tuple[Fraction, int]:
    """Conjugate parameters (alpha~, dim~) with 1/alpha + 1/alpha~ = 1 and
    dim~ = dim*(alpha-1), with the same tight sequences.  Raises InvalidAlpha
    as check_alpha does, and AlphaNotGreaterThanOne at alpha = 1."""
    alpha, dim, total = check_alpha(alpha, dim)
    if alpha == 1:
        raise AlphaNotGreaterThanOne(f"bound {alpha} is not > 1")
    return alpha / (alpha - 1), total - dim


def recur_strip(ranks: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """Drop a largest rank equal to dim*(alpha-1): the Naimark dual, where
    that rank is full, then one peel; tightness is preserved.  Raises as
    naimark_dual does, and PreconditionNotMet for any other top rank."""
    ranks, co_dim = naimark_dual(ranks, dim)
    if ranks[0] != co_dim:
        raise PreconditionNotMet(
            f"top rank {ranks[0]} differs from dim*(alpha-1) = {co_dim}"
        )
    return ranks[1:], co_dim


def decompose_block(block_rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Unique decomposition of a certificate block into binary summands.

    Column ``y`` of the block is read as a multiset of rows (entry ``x``
    copies of row ``x``); summand ``j`` takes the j-th smallest row of every
    column.  Returns one tuple of 0-based row indices per summand; rows
    strictly increase along each summand, which is what makes the
    complementary-summand construction well defined.
    """
    columns = list(zip(*block_rows))
    if len({sum(col) for col in columns}) > 1:
        raise InvalidCertificate("column sums differ inside a block")
    summands = list(zip(*(
        [x for x, c in enumerate(col) for _ in range(c)] for col in columns
    )))
    if any(x >= y for rows in summands for x, y in zip(rows, rows[1:])):
        raise InvalidCertificate(
            "binary summand is not strictly increasing; block violates"
            " column dominance"
        )
    return summands


def config_spatial_dual(a: ConfigMatrix) -> ConfigMatrix:
    """Certificate-level spatial dual: blocks complemented and reversed.

    Each block splits uniquely into binary summands with one unit per column;
    every summand is replaced by the complementary summand on the unused
    rows (in increasing order), and the rebuilt blocks are emitted in
    reverse order, giving a certificate for (dim-L_K, ..., dim-L_1).  The
    input is validated.

    Dual blocks come from prefix sums: C_b(x) counts the units of source
    column b in rows <= x (C_{-1} = N, C_w = 0 for width w).  Row x is the
    t-th unused row of a summand s_0 < ... < s_{w-1} iff s_{b-1} < x < s_b
    for b = x - t, so dual column t holds C_{b-1}(x-1) - C_b(x) of row x,
    and its other rows are zero.
    """
    require_valid(a)
    n = a.dim
    if any(r == n for r in a.ranks):
        raise DegenerateDual(
            "a full-rank block has no complement columns; spatial dual"
            " certificate is degenerate"
        )
    return _built(
        n,
        tuple(n - r for r in reversed(a.ranks)),
        _gather(_spatial_plan(a.ranks, n), n, zip(*a.entries)),
    )


def config_naimark_dual(a: ConfigMatrix) -> ConfigMatrix:
    """Certificate-level Naimark dual: same ranks in dimension M - dim.

    The tableau occupancy of each value is complemented and column-reversed
    inside the M-column strip; stacking the complements (blocks in order,
    values in order) and justifying every column upward yields the dual
    union tableau, which is read back into a certificate.  The input is
    validated.

    The dual comes in closed form from row prefix sums: P_i(j) counts the
    units of row i in columns < j (P_{-1} = M, P_N = 0), and dual row h
    holds P_{k-1}(h+k) - P_k(h+k+1) in column h+k for k = 0..N, zero
    elsewhere.  In column j, row k occupies the strip positions z with
    P_k(j) <= z < P_k(j+1), and property (iv) gives P_k(j+1) <= P_{k-1}(j),
    so every free position of [P_k(j), P_{k-1}(j)) has height j - k.
    """
    require_valid(a)
    n, m = a.dim, a.total
    if m == n:
        raise DegenerateDual("bound 1 leaves a zero-dimensional complement")
    return _built(
        m - n, a.ranks, _gather(_naimark_plan(a.ranks, n), m, a.entries)
    )


def _band(lines: range, length: int) -> list[list[tuple[int, int]]]:
    """The band formula as index pairs into ``_gather``'s flat list.

    The flat list holds 0, ``top`` and then the ``length + 1`` prefix sums of
    each line, and ``prefix`` lists the indices of [top, the prefix sums of
    ``lines``, 0].  Line t < length - len(lines) pairs prefix[b][t + b] with
    prefix[b + 1][t + b + 1] at position t + b, and index 0 with itself
    (0 - 0) elsewhere.
    """
    prefix = [
        [1] * (length + 1),
        *(range(2 + i * (length + 1), 2 + (i + 1) * (length + 1)) for i in lines),
        [0] * (length + 1),
    ]
    count = length - len(lines)
    return [
        [(0, 0)] * t
        + [(p[t + b], q[t + b + 1]) for b, (p, q) in enumerate(zip(prefix, prefix[1:]))]
        + [(0, 0)] * (count - 1 - t)
        for t in range(count)
    ]


def _getters(rows: list[Sequence[tuple[int, int]]]) -> tuple:
    """Two getters and the row width: entry ``(i, j)`` of ``rows`` reads
    ``flat[i] - flat[j]``.  A dual has at least two entries, so each getter
    returns a tuple."""
    first, second = zip(*(pair for row in rows for pair in row))
    return itemgetter(*first), itemgetter(*second), len(rows[0])


def _gather(
    plan: tuple, top: int, lines: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The dual's rows, each entry the difference of two values of the flat
    list ``[0, top]`` and the prefix sums (from 0) of each line; zipping one
    iterator ``width`` times cuts the entries into rows."""
    flat = [0, top]
    for line in lines:
        flat += accumulate(line, initial=0)
    first, second, width = plan
    values = map(sub, first(flat), second(flat))
    return tuple(zip(*[values] * width))


@lru_cache(maxsize=256)
def _spatial_plan(ranks: tuple[int, ...], n: int) -> tuple:
    """The spatial dual over the prefix sums of the source columns: the
    band of each block's dual columns, blocks reversed, read by rows."""
    columns: list[list[tuple[int, int]]] = []
    hi = sum(ranks)
    for width in reversed(ranks):
        columns += _band(range(hi - width, hi), n)
        hi -= width
    return _getters(list(zip(*columns)))


@lru_cache(maxsize=256)
def _naimark_plan(ranks: tuple[int, ...], n: int) -> tuple:
    """The Naimark dual over the prefix sums of the source rows, whose band
    lines are the dual rows."""
    return _getters(_band(range(n), sum(ranks)))
