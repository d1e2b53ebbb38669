"""Checks on tffcomb's answers, written apart from the library.

Nothing here calls ``validate_config``, ``dominance_leq`` or the library's
verifier: the configuration-matrix properties (i)-(v), the dominance order
and the frame identities are re-implemented from their definitions, so a
defect in the library's own checks cannot hide a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

FRAME_TOL = 1e-8


def config_violation(
    dim: int, ranks: Sequence[int], rows: Sequence[Sequence[int]]
) -> str | None:
    """First property of a configuration matrix that ``rows`` breaks, or None.

    An N x M matrix (N = dim, M = sum(ranks)) split into column blocks of
    widths ``ranks`` is a configuration matrix when
      (i)   its entries are nonnegative integers,
      (ii)  every row sums to M,
      (iii) every column sums to N,
      (iv)  sum_{j<=l} (A[i,j] - A[i+1,j]) >= A[i+1,l+1] for every pair of
            consecutive rows and every l >= 0,
      (v)   sum_{i<=l} (B[i,j] - B[i,j+1]) >= B[l+1,j+1] for every pair of
            consecutive columns j, j+1 of every block B and every l >= 0,
    reading entries outside the matrix as zero.
    """
    n, m = dim, sum(ranks)
    if n < 1 or not ranks or any(r < 1 for r in ranks):
        return "shape"
    if len(rows) != n or any(len(row) != m for row in rows):
        return "shape"
    if any(type(x) is not int or x < 0 for row in rows for x in row):
        return "(i)"
    if any(sum(row) != m for row in rows):
        return "(ii)"
    columns = list(zip(*rows))
    if any(sum(col) != n for col in columns):
        return "(iii)"
    for upper, lower in zip(rows, rows[1:]):
        if _prefix_dominance_fails(upper, lower):
            return "(iv)"
    start = 0
    for width in ranks:
        block = columns[start:start + width]
        for left, right in zip(block, block[1:]):
            if _prefix_dominance_fails(left, right):
                return "(v)"
        start += width
    return None


def _prefix_dominance_fails(first: Sequence[int], second: Sequence[int]) -> bool:
    """Whether some l >= 0 has sum_{t<=l} (first[t] - second[t]) < second[l+1]
    (1-based, zero past the end)."""
    lead = 0
    for x, y in zip(first, second):
        if lead < y:
            return True
        lead += x - y
    return lead < 0


def dominated_by(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether ``a`` is majorized by ``b``: equal sums and every prefix sum of
    ``a`` at most that of ``b``."""
    if sum(a) != sum(b):
        return False
    length = max(len(a), len(b))
    pa = list(a) + [0] * (length - len(a))
    pb = list(b) + [0] * (length - len(b))
    sa = sb = 0
    for x, y in zip(pa, pb):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def cell_problem(
    dim: int, alpha: Fraction, got: Sequence[Sequence[int]], expected
) -> str | None:
    """Why ``got`` is not the catalog cell (dim, alpha), or None.

    The cell must hold the elements of the reference row (in any order),
    every element must be a partition of alpha*dim with parts at most dim,
    and no element may dominate another.
    """
    got = [tuple(x) for x in got]
    if sorted(got) != sorted(tuple(x) for x in expected):
        return f"cell ({dim}, {alpha}) is {got}, expected {list(expected)}"
    total = alpha * dim
    for part in got:
        if Fraction(sum(part)) != total or max(part) > dim:
            return f"cell ({dim}, {alpha}) holds {part}, not a partition of {total}"
        if any(x < y for x, y in zip(part, part[1:])) or min(part) < 1:
            return f"cell ({dim}, {alpha}) holds {part}, not weakly decreasing"
    for i, a in enumerate(got):
        for b in got[i + 1:]:
            if dominated_by(a, b) or dominated_by(b, a):
                return f"cell ({dim}, {alpha}): {a} and {b} are comparable"
    return None


def frame_problem(
    blocks: Sequence[np.ndarray], ranks: Sequence[int], dim: int,
    tol: float = FRAME_TOL,
) -> str | None:
    """Why the orthonormal block bases ``blocks`` are not a tight fusion frame
    for (ranks, dim), or None.

    Checks the block widths against the ranks, U_k^T U_k = I for every block,
    and ||sum_k U_k U_k^T - (M/N) I||_F <= tol with M/N taken exactly.
    """
    widths = tuple(int(b.shape[1]) for b in blocks)
    if widths != tuple(ranks) or any(b.shape[0] != dim for b in blocks):
        return f"block shapes {[b.shape for b in blocks]} do not match ranks {tuple(ranks)} in dim {dim}"
    alpha = Fraction(sum(ranks), dim)
    total = np.zeros((dim, dim))
    for k, u in enumerate(blocks):
        gram_err = float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))
        if not gram_err <= tol:
            return f"block {k + 1} is not orthonormal (error {gram_err:.3e})"
        total += u @ u.T
    residual = float(np.linalg.norm(total - float(alpha) * np.eye(dim)))
    if not residual <= tol:
        return f"projections sum to alpha*I only within {residual:.3e}"
    return None


def checks_catch_wrong_answers(refdata) -> list[str]:
    """Feed each check a known wrong answer and a known right one; returns
    a line for every check that misjudges one (empty when all behave).

    Wrong answers: the printed (8, 15/8) row of the reference table, the
    defective printed certificate for (3,3,3,3) in dim 5, and the printed
    (4,2,2,2,1) frame in dim 6 with one basis vector perturbed.
    """
    misses = []
    printed = refdata.REFERENCE_MAXIMAL[8, "15/8"]
    corrected = refdata.EXPECTED_MAXIMAL[8, "15/8"]
    alpha = Fraction(15, 8)
    if cell_problem(8, alpha, printed, corrected) is None:
        misses.append("catalog check accepts the printed (8, 15/8) row")
    if cell_problem(8, alpha, printed, printed) is None:
        misses.append("catalog check accepts the printed (8, 15/8) row as its own reference")
    if cell_problem(8, alpha, corrected, corrected) is not None:
        misses.append("catalog check rejects the corrected (8, 15/8) row")

    bad = refdata.DEFECTIVE_CERT_5x12_RANKS_3333
    if config_violation(bad.dim, bad.ranks, bad.entries) is None:
        misses.append("validator accepts DEFECTIVE_CERT_5x12_RANKS_3333")
    for good in (refdata.CERT_5x8_RANKS_2222, refdata.CERT_4x7_RANKS_2221,
                 refdata.SPATIAL_DUAL_4x9, refdata.NAIMARK_DUAL_3x7):
        if config_violation(good.dim, good.ranks, good.entries) is not None:
            misses.append(f"validator rejects the printed certificate for {good.ranks}")

    ranks = refdata.REFERENCE_BASIS_RANKS
    basis = np.array(refdata.REFERENCE_BASIS_6x11, dtype=float)
    blocks = np.split(basis, np.cumsum(ranks)[:-1], axis=1)
    if frame_problem(blocks, ranks, 6) is not None:
        misses.append("frame check rejects the printed (4,2,2,2,1) frame")
    perturbed = [b.copy() for b in blocks]
    perturbed[1][:, 0] += 1e-6 * np.arange(1, 7)
    if frame_problem(perturbed, ranks, 6) is None:
        misses.append("frame check accepts a frame with one basis vector perturbed")
    return misses
