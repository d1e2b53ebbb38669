"""Independent reference implementations used only to cross-check results.

These deliberately avoid the package's search machinery: the counter below
enumerates raw integer matrices column by column (pruning only on column
sums and row budgets) and filters by re-checking the defining properties on
the complete matrix, and the chain counter multiplies skew-tableau counts
from the standalone enumeration oracle.
"""

from itertools import product

from tffcomb import ConfigMatrix, lr_oracle, validate_config
from tffcomb.partitions import conjugate, contains, pad, partitions_in_box


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
