"""Dualities between tight fusion frame sequences and their certificates.

Two sequence-level maps preserve tightness: the spatial dual replaces every
subspace by its orthogonal complement (ranks dim - L_i, reversed), and the
Naimark dual keeps the ranks but moves to dimension M - dim with frame bound
alpha/(alpha-1).  Both lift to explicit bijections on configuration
matrices, implemented here, so certificate counts are preserved exactly.

The certificate maps read the columns of the matrix directly: the spatial
dual complements the binary summands of each block, counted from the
block's column prefix sums, and the Naimark dual complements each column's
diagram positions, found from running row offsets.  Each map validates its
input on every call, through ``configmat.require_valid``, and does not
re-check its output: the maps
are bijections between valid certificates, which the tests check
exhaustively against independent reference maps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .configmat import ConfigMatrix, canonical_instance, check_alpha, require_valid
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
    map works on the columns of ``a``; the input is validated.

    Dual blocks come from prefix sums: C_b(x) counts the units of source
    column b in rows <= x (C_{-1} = N, C_w = 0 for width w).  Row x is the
    t-th unused row of a summand s_0 < ... < s_{w-1} iff s_{b-1} < x < s_b
    for b = x - t, so dual column t holds C_{b-1}(x-1) - C_b(x) of row x.
    """
    require_valid(a)
    n = a.dim
    if any(r == n for r in a.ranks):
        raise DegenerateDual(
            "a full-rank block has no complement columns; spatial dual"
            " certificate is degenerate"
        )
    columns = list(zip(*a.entries))
    # prefix[b + 1][x] = C_b(x - 1)
    top, bottom = [n] * (n + 1), [0] * (n + 1)
    dual_columns: list[list[int]] = []
    hi = len(columns)
    for width in reversed(a.ranks):
        prefix = [
            top,
            *(list(accumulate(col, initial=0)) for col in columns[hi - width:hi]),
            bottom,
        ]
        for t in range(n - width):
            dual_columns.append([
                prefix[x - t][x] - prefix[x - t + 1][x + 1]
                if t <= x <= t + width else 0
                for x in range(n)
            ])
        hi -= width
    return ConfigMatrix(
        dim=n,
        ranks=tuple(n - r for r in reversed(a.ranks)),
        entries=tuple(zip(*dual_columns)),
    )


def config_naimark_dual(a: ConfigMatrix) -> ConfigMatrix:
    """Certificate-level Naimark dual: same ranks in dimension M - dim.

    The tableau occupancy of each value is complemented and column-reversed
    inside the M-column strip; stacking the complements (blocks in order,
    values in order) and justifying every column upward yields the dual
    union tableau, which is read back into a certificate.  The occupancy of
    column ``(k, v)`` of ``a`` starts at each row's running offset; the
    input is validated.
    """
    require_valid(a)
    n, m = a.dim, a.total
    if m == n:
        raise DegenerateDual("bound 1 leaves a zero-dimensional complement")
    new_dim = m - n
    offsets = [0] * n
    height = [0] * m
    dual_columns: list[list[int]] = []
    for col in zip(*a.entries):
        free = [True] * m
        for i, c in enumerate(col):
            if c:
                start = m - offsets[i]
                free[start - c:start] = [False] * c
                offsets[i] += c
        out = [0] * new_dim
        for y, f in enumerate(free):
            if f:
                out[height[y]] += 1
                height[y] += 1
        dual_columns.append(out)
    return ConfigMatrix(
        dim=new_dim, ranks=a.ranks, entries=tuple(zip(*dual_columns))
    )
