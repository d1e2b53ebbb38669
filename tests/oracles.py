"""Independent reference implementations used only to cross-check results.

These deliberately avoid the package's search machinery: the counter below
enumerates raw integer matrices column by column (pruning only on column
sums and row budgets) and filters by re-checking the defining properties on
the complete matrix, the chain counter multiplies skew-tableau counts from
``lr_oracle``, a direct tableau enumeration, and the reference dualities
copy every block out of the matrix and rebuild the mu-chain, as the
package's first implementation of the certificate dualities did.  The
reference walk is the certificate search as it was before the
Littlewood-Richardson support pruning: the same column order, pruned only
by prefix feasibility and the last block's forced start.
``partitions_in_box`` lists the shapes of a box, which the tests sweep
over.  The reference realizer is the alternating-projection loop as it was
before the blocks shared one stacked eigendecomposition: one ``eigh`` call
and one projection per block.  The reference descent is ``decide`` as it
was before the descent became a record: the moves kept as a list of
``(lift, *args)`` steps.  ``split_exists`` looks for a split of ranks into
groups of equal sum by trying every set partition.  ``tetris_oracle``
builds the spectral-tetris frame with its own row walk, reads which of its
vectors are orthogonal from their inner products, and tries every
assignment of the vectors to blocks on that graph, with no memo.
``greedy_tetris_frame`` is the library's ``_tetris_frame`` as it was when
its greedy split scanned every family for every vector.  ``reference_verify``
and ``reference_spatial_lift`` are ``verify_tff`` and the spatial lift as they
were before they worked on one zero-padded stack of the blocks: separate
numpy calls for every block.
"""

from fractions import Fraction
from itertools import combinations, islice, product
from operator import add
from typing import Iterator, Sequence

import numpy as np

from tffcomb import (
    ConfigMatrix,
    ProjectionSet,
    config_naimark_dual,
    config_spatial_dual,
    find_config,
    naimark_dual,
    spatial_dual,
    validate_config,
)
from tffcomb.configmat import canonical_instance
from tffcomb.errors import (
    ConvergenceFailure,
    DegenerateDual,
    InvalidAlpha,
    InvalidCertificate,
)
from tffcomb.partitions import as_partition, as_rational, conjugate, contains, pad
from tffcomb.realize import DEFAULT_TOL, VerificationReport, _check_tol


def partitions_in_box(
    total: int, height: int, width: int
) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` with at most ``height`` parts, each <= width."""

    def rec(remaining: int, rows_left: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if rows_left == 0 or cap == 0 or remaining > rows_left * cap:
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, rows_left - 1, part, prefix + (part,))

    yield from rec(total, height, width, ())


def _compositions(total, length):
    """All nonnegative integer vectors of the given length summing to total."""
    if length == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, length - 1):
            yield (head,) + rest


def brute_count_configs(ranks, dim):
    """Count certificates by exhausting matrices with the right column sums
    and row budgets, then filtering with the public validator."""
    m = sum(ranks)
    columns = list(_compositions(dim, dim))
    found = 0

    def fill(j, rows):
        nonlocal found
        if j == m:
            if all(r == m for r in rows):
                cand = ConfigMatrix(
                    dim, ranks,
                    tuple(tuple(col[i] for col in chosen) for i in range(dim)),
                )
                if validate_config(cand).ok:
                    found += 1
            return
        for col in columns:
            new_rows = [rows[i] + col[i] for i in range(dim)]
            if any(r > m for r in new_rows):
                continue
            chosen.append(col)
            fill(j + 1, new_rows)
            chosen.pop()

    chosen = []
    fill(0, [0] * dim)
    return found


def lr_oracle(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]
) -> int:
    """Littlewood-Richardson coefficient by direct tableau enumeration.

    Counts fillings of the skew shape nu/lam with content mu that are weakly
    increasing along rows, strictly increasing down columns, and whose
    right-to-left, top-to-bottom reading word is a lattice word.  Independent
    of the configuration-matrix search; intended for small shapes.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    nu = as_partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not contains(lam, nu):
        return 0
    if not mu:
        return 1
    height = len(nu)
    lamp = pad(lam, height)
    cells = []
    for r in range(height):
        for c in range(nu[r] - 1, lamp[r] - 1, -1):
            cells.append((r, c))
    nvals = len(mu)
    remaining = list(mu)
    grid = [[0] * nu[r] for r in range(height)]
    counts = [0] * (nvals + 2)
    total = 0

    def rec(idx: int):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = grid[r][c + 1] if c + 1 < nu[r] else None
        above = 0
        if r > 0 and c < nu[r - 1] and c >= lamp[r - 1]:
            above = grid[r - 1][c]
        for v in range(1, nvals + 1):
            if remaining[v - 1] == 0:
                continue
            if right is not None and v > right:
                continue
            if v <= above:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            grid[r][c] = v
            remaining[v - 1] -= 1
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
            grid[r][c] = 0

    rec(0)
    return total


def chain_count_configs(ranks, dim):
    """Count certificates as a sum over partition chains of products of
    skew-tableau counts from the standalone oracle."""
    m = sum(ranks)
    levels = {(): 1}
    sigma = 0
    for width in ranks:
        sigma += width
        new_levels = {}
        for mu, ways in levels.items():
            mu_columns = conjugate(mu)
            for nu in partitions_in_box(dim * sigma, dim, m):
                if not contains(mu, nu):
                    continue
                # labels 1..width increase strictly down a column, so a
                # column of nu/mu longer than width has no filling and the
                # coefficient is 0 without asking the oracle
                nu_columns = conjugate(nu)
                heights = zip(nu_columns, pad(mu_columns, len(nu_columns)))
                if any(a - b > width for a, b in heights):
                    continue
                coeff = lr_oracle(mu, (dim,) * width, nu)
                if coeff:
                    new_levels[nu] = new_levels.get(nu, 0) + ways * coeff
        levels = new_levels
    return levels.get((m,) * dim, 0)


def hook_completion_oracle(lam, k, width, dim):
    """Iterated one-row products: can lam reach the full rectangle with k
    single-row factors of size dim?"""
    shapes = {tuple(lam)}
    for _ in range(k):
        grown = set()
        for shape in shapes:
            padded = pad(shape, dim)
            for nu in partitions_in_box(sum(shape) + dim, dim, width):
                nup = pad(nu, dim)
                if all(nup[i] >= padded[i] for i in range(dim)) and all(
                    nup[i + 1] <= padded[i] for i in range(dim - 1)
                ):
                    grown.add(nu)
        shapes = grown
    return ((width,) * dim) in shapes


def reference_decompose_block(block_rows):
    """Binary summands of a block, read row by row from a copy of it."""
    height = len(block_rows)
    width = len(block_rows[0]) if height else 0
    per_column = []
    for y in range(width):
        rows = []
        for x in range(height):
            rows.extend([x] * block_rows[x][y])
        per_column.append(rows)
    count = len(per_column[0]) if per_column else 0
    if any(len(rows) != count for rows in per_column):
        raise InvalidCertificate("column sums differ inside a block")
    summands = []
    for j in range(count):
        rows = tuple(per_column[y][j] for y in range(width))
        if any(rows[y] >= rows[y + 1] for y in range(width - 1)):
            raise InvalidCertificate(
                "binary summand is not strictly increasing; block violates"
                " column dominance"
            )
        summands.append(rows)
    return summands


def _require_valid(a):
    report = validate_config(a)
    if not report:
        raise InvalidCertificate(report.message)


def reference_spatial_dual(a):
    """Spatial dual through block copies and summand sets."""
    _require_valid(a)
    n = a.dim
    if any(r == n for r in a.ranks):
        raise DegenerateDual(
            "a full-rank block has no complement columns; spatial dual"
            " certificate is degenerate"
        )
    dual_blocks = []
    for k in range(len(a.ranks)):
        width = n - a.ranks[k]
        rows = [[0] * width for _ in range(n)]
        for summand in reference_decompose_block(a.block(k)):
            used = set(summand)
            free = [x for x in range(n) if x not in used]
            for y, x in enumerate(free):
                rows[x][y] += 1
        dual_blocks.append(rows)
    dual_blocks.reverse()
    entries = tuple(
        tuple(x for blk in dual_blocks for x in blk[i]) for i in range(n)
    )
    dual = ConfigMatrix(
        dim=n,
        ranks=tuple(n - r for r in reversed(a.ranks)),
        entries=entries,
    )
    _require_valid(dual)
    return dual


def _mu_levels(a):
    chain = [()]
    sums = [0] * a.dim
    for k, width in enumerate(a.ranks):
        lo = sum(a.ranks[:k])
        for i in range(a.dim):
            sums[i] += sum(a.entries[i][lo:lo + width])
        chain.append(as_partition(sums))
    return tuple(chain)


def _occupancy(a):
    """Per block, per value, the sorted diagram columns (0-based) holding
    that value in the union skew tableau encoded by ``a`` (assumed valid)."""
    chain = _mu_levels(a)
    occ = []
    for k, width in enumerate(a.ranks):
        blk = a.block(k)
        cols = [[] for _ in range(width)]
        prev = chain[k]
        for i in range(a.dim):
            pos = prev[i] if i < len(prev) else 0
            for v in range(width):
                cols[v].extend(range(pos, pos + blk[i][v]))
                pos += blk[i][v]
        occ.append([sorted(c) for c in cols])
    return occ


def reference_naimark_dual(a):
    """Naimark dual through block copies, the mu-chain and occupancy sets."""
    _require_valid(a)
    n, m = a.dim, a.total
    if m == n:
        raise DegenerateDual("bound 1 leaves a zero-dimensional complement")
    occ = _occupancy(a)
    new_dim = m - n
    blocks = [
        [[0] * width for _ in range(new_dim)] for width in a.ranks
    ]
    height = [0] * m
    for k, width in enumerate(a.ranks):
        for v in range(width):
            filled = set(occ[k][v])
            for y in range(m):
                if (m - 1 - y) not in filled:
                    blocks[k][height[y]][v] += 1
                    height[y] += 1
    if any(h != new_dim for h in height):
        raise InvalidCertificate("complemented columns do not stack evenly")
    entries = tuple(
        tuple(x for blk in blocks for x in blk[i]) for i in range(new_dim)
    )
    dual = ConfigMatrix(dim=new_dim, ranks=a.ranks, entries=entries)
    _require_valid(dual)
    return dual


def _column_options(
    rho: tuple[int, ...],
    prev: tuple[int, ...] | None,
    value: int,
    n: int,
    m: int,
) -> list[tuple[int, ...]]:
    """Admissible next columns, in descending lexicographic order.

    ``rho`` holds the current row sums.  A column for label ``value`` must put
    zero in rows above ``value``, keep each row within the staircase capacity
    of the row above (property (iv)), and respect in-block dominance against
    ``prev`` (property (v)).
    """
    caps = [0] * n
    for i in range(value - 1, n):
        caps[i] = (m - rho[0]) if i == 0 else (rho[i - 1] - rho[i])
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    if prev is not None:
        pp = [0] * (n + 1)
        for i in range(n):
            pp[i + 1] = pp[i] + prev[i]

    out = [0] * n
    options: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, csum: int) -> None:
        # rows i.. of ``out`` are zero on entry, so a full column is out as is
        if remaining == 0:
            options.append(tuple(out))
            return
        if i == n or remaining > suffix[i]:
            return
        hi = min(caps[i], remaining)
        if prev is not None:
            hi = min(hi, pp[i] - csum)
        for x in range(hi, -1, -1):
            out[i] = x
            rec(i + 1, remaining - x, csum + x)
        out[i] = 0

    rec(0, n, 0)
    return options


class ReferenceSearch:
    """Shared state for the column-by-column certificate search."""

    def __init__(self, ranks: tuple[int, ...], dim: int):
        self.n = dim
        self.ranks = ranks
        self.m = sum(ranks)
        cols = []
        for k, width in enumerate(ranks):
            for v in range(1, width + 1):
                cols.append((k, v))
        self.cols = cols
        # rem[c][i]: columns at position >= c whose label is <= i; labels above
        # row i never contribute to the first i rows, so these counts bound how
        # much the leading rows can still grow.
        rem = [[0] * (dim + 1) for _ in range(self.m + 1)]
        for c in range(self.m - 1, -1, -1):
            _, v = cols[c]
            for i in range(dim + 1):
                rem[c][i] = rem[c + 1][i] + (1 if v <= i else 0)
        self.rem = rem
        self.final_start = self.m - ranks[-1]
        if self.m >= dim:
            self.final_rho = tuple(
                [self.m] * (dim - ranks[-1]) + [self.m - dim] * ranks[-1]
            )
        else:
            self.final_rho = None
        self.target = (self.m,) * dim

    def feasible(self, c: int, rho: tuple[int, ...]) -> bool:
        """Prefix bound: rows 1..i must be completable by the remaining
        columns whose labels can reach them (at most n boxes per column)."""
        n, m = self.n, self.m
        if c == self.final_start and rho != self.final_rho:
            return False
        rem_c = self.rem[c]
        prefix = 0
        for i in range(1, n + 1):
            prefix += rho[i - 1]
            if i * m - prefix > n * rem_c[i]:
                return False
        return True

    def enumerate(self) -> Iterator[list[tuple[int, ...]]]:
        """Every certificate as a list of columns, in the search order.

        A state (column, row sums, previous column) whose subtree held no
        certificate is remembered and skipped when it is reached again.
        """
        n, m = self.n, self.m
        cols = self.cols
        failed: set = set()
        chosen: list[tuple[int, ...]] = []
        found = 0

        def go(c: int, rho: tuple[int, ...], prev: tuple[int, ...] | None):
            nonlocal found
            if c == m:
                if rho == self.target:
                    found += 1
                    yield list(chosen)
                return
            key = (c, rho, prev)
            if key in failed or not self.feasible(c, rho):
                return
            before = found
            blk, v = cols[c]
            in_block = c + 1 < m and cols[c + 1][0] == blk
            for col in _column_options(rho, prev, v, n, m):
                chosen.append(col)
                yield from go(c + 1, tuple(map(add, rho, col)),
                              col if in_block else None)
                chosen.pop()
            if found == before:
                failed.add(key)

        yield from go(0, (0,) * n, None)


def reference_columns(ranks, dim, limit=None):
    """The first ``limit`` (all, for None) certificates of the reference
    walk, each as a list of columns."""
    return list(islice(ReferenceSearch(tuple(ranks), dim).enumerate(), limit))


_REF_MAX_ITER = 4000
_REF_STALL_WINDOW = 60
_REF_STALL_FACTOR = 0.9995


def _orthonormal(rng, dim, rank):
    mat = rng.standard_normal((dim, rank))
    qmat, _ = np.linalg.qr(mat)
    return qmat[:, :rank]


def _top_eigvecs(sym, rank):
    vals, vecs = np.linalg.eigh(sym)
    return vecs[:, -rank:]


def reference_realize(ranks, dim, seed, tol=1e-8, max_restarts=20):
    """The optimizer's loop with one eigendecomposition per block, for
    weakly decreasing ``ranks`` of a tight sequence; the same restarts,
    random draws, stall rule and tolerance test as ``realize._alternate``."""
    alpha = sum(ranks) / dim
    kblocks = len(ranks)
    eye = np.eye(dim)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(max_restarts):
        bases = [_orthonormal(rng, dim, r) for r in ranks]
        projs = [b @ b.T for b in bases]
        history = []
        for _ in range(_REF_MAX_ITER):
            residual = sum(projs) - alpha * eye
            res = float(np.linalg.norm(residual))
            if res <= tol:
                return ProjectionSet(dim=dim, blocks=tuple(bases))
            history.append(res)
            if (
                len(history) > _REF_STALL_WINDOW
                and history[-1] > _REF_STALL_FACTOR * history[-_REF_STALL_WINDOW]
            ):
                break
            for k in range(kblocks):
                target = projs[k] - residual / kblocks
                bases[k] = _top_eigvecs(target, ranks[k])
                projs[k] = bases[k] @ bases[k].T
        best = min(best, history[-1] if history else np.inf)
    raise ConvergenceFailure(
        f"no realization within {max_restarts} restarts"
        f" (best residual {best:.3e}, tol {tol:.1e})"
    )


def _reference_identity_blocks(cert, count, dim):
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


def reference_decide(ranks, dim):
    """``decide(ranks, dim, certificate=True)`` with the moves kept as a
    trail of lift steps, replayed in reverse."""
    ranks, dim = canonical_instance(ranks, dim)
    trail = []
    while ranks:
        full = ranks.count(dim)
        total = sum(ranks)
        if full:
            trail.append((_reference_identity_blocks, full, dim))
            ranks = ranks[full:]
            continue
        if total <= dim:
            if total < dim:
                return False, None
            break
        co_ranks, co_dim = naimark_dual(ranks, dim)
        if ranks[0] > co_dim:
            return False, None
        if len(ranks) * dim - total < total:
            trail.append((config_spatial_dual,))
            ranks, dim = spatial_dual(ranks, dim)
        elif co_dim < dim:
            trail.append((config_naimark_dual,))
            ranks, dim = co_ranks, co_dim
        else:
            break
    cert = None
    if ranks:
        cert = find_config(ranks, dim)
        if cert is None:
            return False, None
    for lift, *args in reversed(trail):
        cert = lift(cert, *args)
    return True, cert


def split_exists(ranks, size, groups):
    """Whether the ranks split into ``groups`` groups that each sum to
    ``size``: every set partition whose first group holds the first rank."""
    if not ranks:
        return groups == 0
    rest = range(1, len(ranks))
    for k in range(len(ranks)):
        for others in combinations(rest, k):
            if ranks[0] + sum(ranks[i] for i in others) == size:
                left = [r for i, r in enumerate(ranks[1:], 1) if i not in others]
                if split_exists(left, size, groups - 1):
                    return True
    return False


def tetris_vectors(total, dim):
    """The spectral-tetris frame of ``total`` unit vectors in R^dim, one row
    per vector, or None when a row's leftover weight cannot be placed."""
    left = [Fraction(total, dim)] * dim + [Fraction(0)]
    vectors = []
    for j in range(dim):
        while left[j] > 0:
            vec = np.zeros(dim + 1)
            if left[j] >= 1:
                vec[j] = 1.0
                vectors.append(vec)
                left[j] -= 1
                continue
            r = left[j]
            if left[j + 1] < 2 - r:
                return None
            vec[j], vec[j + 1] = np.sqrt(float(r) / 2), np.sqrt(1 - float(r) / 2)
            mirror = vec.copy()
            mirror[j + 1] *= -1
            vectors += [vec, mirror]
            left[j], left[j + 1] = 0, left[j + 1] - (2 - r)
    return np.array(vectors).reshape(-1, dim + 1)[:, :dim]


def tetris_oracle(ranks, dim):
    """Blocks of frame-vector indices, of sizes ``ranks``, each a set of
    pairwise orthogonal spectral-tetris vectors, or None.  Every assignment
    of the vectors, in frame order, to a block with room is tried; only
    empty blocks of equal size are taken as alike.  Asserts that two of the
    vectors are orthogonal exactly when their supports are disjoint."""
    vectors = tetris_vectors(sum(ranks), dim)
    if vectors is None:
        return None
    orthogonal = np.abs(vectors @ vectors.T) < 1e-12
    disjoint = (vectors != 0).astype(int) @ (vectors != 0).T.astype(int) == 0
    assert np.array_equal(orthogonal, disjoint), (ranks, dim)
    blocks = [[] for _ in ranks]

    def assign(i):
        if i == len(vectors):
            return True
        empty_sizes = set()
        for block, size in zip(blocks, ranks):
            if len(block) == size or not all(orthogonal[i, m] for m in block):
                continue
            if not block:
                if size in empty_sizes:
                    continue
                empty_sizes.add(size)
            block.append(i)
            if assign(i + 1):
                return True
            block.pop()
        return False

    return blocks if assign(0) else None


def greedy_tetris_frame(ranks: tuple[int, ...], dim: int) -> ProjectionSet | None:
    """The spectral-tetris frame of M = sum(ranks) unit vectors in R^dim split
    into blocks of sizes ``ranks`` with disjoint supports, or None (at once if
    M/dim < 2 is not an integer).  Row j, with exact weight r left, places e_j
    while r >= 1, then (sqrt(r/2), +-sqrt(1 - r/2)) on rows j, j+1 if r > 0; two
    vectors are orthogonal iff their supports are disjoint.  Each vector, in
    frame order, joins the free family (last row used below its first row)
    with the most vectors left; None when no family is free.  Greedy is exact:
    supports are row intervals of length 1 or 2 whose first and last rows never
    decrease, so a free family stays free.  If a split puts v in free A (a
    left) while free B has b > a, some clean cut (last row before < first row
    after) past v has as many of A's vectors from v on as of B's left; swapping
    the tails there puts v in B, and both families stay disjoint."""
    total = sum(ranks)
    if total < 2 * dim and total % dim:
        return None
    # row weights in units of 1/dim; a vector is (rows, entries)
    weight, vectors = [total] * dim, []
    for j in range(dim):
        count, w = divmod(weight[j], dim)
        vectors += [((j,), (1.0,))] * count
        if w:
            a, b = np.sqrt(w / (2 * dim)), np.sqrt((2 * dim - w) / (2 * dim))
            vectors += [((j, j + 1), (a, b)), ((j, j + 1), (a, -b))]
            weight[j + 1] -= 2 * dim - w
    blocks = [np.zeros((dim, n)) for n in ranks]
    left, last = list(ranks), [-1] * len(ranks)
    for rows, entries in vectors:
        free = (k for k, n in enumerate(left) if n and last[k] < rows[0])
        k = max(free, key=left.__getitem__, default=None)
        if k is None:
            return None
        blocks[k][rows, ranks[k] - left[k]] = entries
        left[k] -= 1
        last[k] = rows[-1]
    return ProjectionSet(dim, tuple(blocks))


def _reference_residuals(s: ProjectionSet, alpha: float) -> tuple[float, tuple[float, ...]]:
    """The Frobenius norms of sum(P_k) - alpha*I and of each U_k^T U_k - I."""
    total = sum(b @ b.T for b in s.blocks)
    orth = tuple(float(np.linalg.norm(b.T @ b - np.eye(b.shape[1]))) for b in s.blocks)
    return float(np.linalg.norm(total - alpha * np.eye(s.dim))), orth


def reference_verify(s: ProjectionSet, alpha=None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """``verify_tff`` with one set of numpy calls per block."""
    _check_tol(tol)
    alpha = s.alpha if alpha is None else as_rational(alpha, InvalidAlpha)
    sum_res, orth = _reference_residuals(s, float(alpha))
    projs = [b @ b.T for b in s.blocks]
    idem = tuple(float(np.linalg.norm(p @ p - p)) for p in projs)
    nranks = tuple(
        int(np.sum(np.linalg.svd(b, compute_uv=False) > 0.5)) for b in s.blocks
    )
    passed = all(x <= tol for x in (sum_res, *orth, *idem)) and nranks == s.ranks
    return VerificationReport(
        sum_residual=sum_res,
        block_orthonormality=orth,
        block_idempotence=idem,
        block_ranks=nranks,
        passed=passed,
    )


def reference_spatial_lift(frame: ProjectionSet) -> ProjectionSet:
    """Block complements in reversed order, one complete QR per block."""
    blocks = [np.linalg.qr(b, mode="complete")[0][:, b.shape[1]:] for b in frame.blocks]
    return ProjectionSet(dim=frame.dim, blocks=tuple(reversed(blocks)))
