"""Independent reference implementations used only to cross-check results.

These deliberately avoid the package's search machinery: the counter below
enumerates raw integer matrices column by column (pruning only on column
sums and row budgets) and filters by re-checking the defining properties on
the complete matrix, the chain counter multiplies skew-tableau counts
from the standalone enumeration oracle, and the reference dualities copy
every block out of the matrix and rebuild the mu-chain, as the package's
first implementation of the certificate dualities did.
"""

from itertools import product

from tffcomb import ConfigMatrix, lr_oracle, validate_config
from tffcomb.errors import DegenerateDual, InvalidCertificate
from tffcomb.partitions import (
    as_partition,
    conjugate,
    contains,
    pad,
    partitions_in_box,
)


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
