"""Configuration matrices: integer certificates for tight rank sequences.

A configuration matrix for ``(ranks, dim)`` with ``dim = N`` and
``M = sum(ranks)`` is an N x M nonnegative integer matrix, split into column
blocks of widths ``ranks[k]``, satisfying

  (i)   all entries are nonnegative integers,
  (ii)  every row sums to M,
  (iii) every column sums to N,
  (iv)  row dominance across the whole matrix:
        sum_{j<=l} (A[i,j] - A[i+1,j]) >= A[i+1,l+1]   for all i, l >= 0,
  (v)   column dominance within each block:
        sum_{i<=l} (A_k[i,j] - A_k[i,j+1]) >= A_k[l+1,j+1]  for all j, l >= 0,

where out-of-range entries read as zero.  Column ``v`` of block ``k`` records
how many boxes labelled ``v`` each row of the k-th skew tableau receives, so
these matrices are exactly unions of column-strict lattice skew tableaux and
their number equals a Littlewood-Richardson coefficient of rectangles.

The search in this module (find_config, iter_configs) fills columns left to
right, each column top to bottom, trying larger entries first.  States
with no certificate below them are remembered and skipped, and a state with
one keeps its list of next columns for when the walk reaches it again.  It
prunes by the support of the Littlewood-Richardson product: the blocks not
yet filled must fill the 180-degree complement lambda of the current shape,
so lambda lies in the product of their rectangles.  Hence the largest later
rectangle fits in lambda (checked while each column is built), and at each
block start the union and the row-wise sum of the rectangles still to come
bound lambda in dominance order (mu u nu <= lambda <= mu + nu).  One plan
(``_plan``) lays out the columns with these bounds, and ``_column_options``
applies them.  Only states without a completion are cut, so the search order
and its certificates are those of the unpruned walk.

Counting (count_configs) meets in the middle of the box instead.  The count
is the coefficient of the box ``(M^N)`` in the product of the rectangles
``(N^{L_k})``.  That product commutes, and two shapes inside the box multiply
to the box exactly when each is the other's 180-degree complement, with
coefficient 1.  So the blocks are split into two halves, each half counts
the ways it fills every shape from the empty one, and the count is the sum
of the products of the two counts over complementary pairs of shapes.  Each
half walks its columns by the search's plan, with the other half as the
blocks still to come, so both walks cut by the same rules.

``ConfigMatrix(...)`` and ``from_json_dict`` check and re-parse every field,
since that data comes from outside.  The certificates this package builds
itself (the search's results, the two duality maps' images and the identity
blocks of a peel) are tuples of ints by construction, so ``_built`` takes
them as built and skips that re-parse; every map still validates its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatch,
    DoesNotFit,
    InvalidAlpha,
    InvalidCertificate,
    InvalidRanks,
    InvalidShape,
    MalformedInput,
    SizeMismatch,
)
from .partitions import as_ints, as_partition, as_rational, count_equal_parts


@dataclass(frozen=True)
class ConfigMatrix:
    """Immutable N x M integer matrix with a block structure over ``ranks``.

    Raises InvalidCertificate if ``(ranks, dim)`` fails ``check_instance`` or
    an entry is not integral, and DimensionMismatch unless the entries form
    ``dim`` rows of ``sum(ranks)``.
    """

    dim: int
    ranks: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            ranks, dim = check_instance(self.ranks, self.dim)
            entries = tuple(as_ints(row, InvalidCertificate) for row in self.entries)
        except (InvalidRanks, TypeError) as exc:
            raise InvalidCertificate(f"bad certificate data: {exc}") from exc
        for name, value in zip(("dim", "ranks", "entries"), (dim, ranks, entries)):
            object.__setattr__(self, name, value)
        m = sum(self.ranks)
        if len(self.entries) != self.dim or any(
            len(row) != m for row in self.entries
        ):
            raise DimensionMismatch(
                f"entries must be {self.dim}x{m} for ranks {self.ranks}"
            )

    @property
    def total(self) -> int:
        """Number of columns M."""
        return sum(self.ranks)

    def block(self, k: int) -> list[list[int]]:
        """Rows of column block ``k`` (0-based)."""
        lo = sum(self.ranks[:k])
        hi = lo + self.ranks[k]
        return [list(row[lo:hi]) for row in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ranks": list(self.ranks),
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConfigMatrix":
        if not isinstance(data, dict):
            raise MalformedInput(
                f"certificate JSON must be an object, got {type(data).__name__}"
            )
        try:
            fields = data["dim"], data["ranks"], data["entries"]
        except KeyError as exc:
            raise MalformedInput(f"certificate JSON has no {exc} key") from exc
        return cls(*fields)


def _built(
    dim: int, ranks: tuple[int, ...], entries: tuple[tuple[int, ...], ...]
) -> ConfigMatrix:
    """A certificate the library built itself from ints, taken as built: the
    three fields are set and ``__post_init__`` does not re-parse them."""
    a = object.__new__(ConfigMatrix)
    a.__dict__.update(dim=dim, ranks=ranks, entries=entries)
    return a


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_config: first violated property, if any."""

    ok: bool
    violated: str | None = None
    indices: tuple[int, ...] | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_config(a: ConfigMatrix) -> ValidationReport:
    """Check properties (i)-(v); (v) is checked per column block.

    Reports the first violated property together with the offending (1-based)
    indices.  Malformed data, a block wider than ``dim`` included, never
    gets this far: the ConfigMatrix constructor rejects it.
    """
    n, m = a.dim, a.total
    rows = a.entries
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x < 0:
                return ValidationReport(
                    False, "i", (i + 1, j + 1),
                    f"negative entry at row {i + 1}, column {j + 1}",
                )
    for i, row in enumerate(rows):
        s = sum(row)
        if s != m:
            return ValidationReport(
                False, "ii", (i + 1,), f"row {i + 1} sums to {s}, expected {m}"
            )
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        s = sum(col)
        if s != n:
            return ValidationReport(
                False, "iii", (j + 1,), f"column {j + 1} sums to {s}, expected {n}"
            )
    # rows have equal sums by now, so (iv) needs no check at full length
    for i in range(n - 1):
        diff = 0
        for l, (x, nxt) in enumerate(zip(rows[i], rows[i + 1])):
            # prefix of length l compared against entry l+1 of the next row
            if diff < nxt:
                return ValidationReport(
                    False, "iv", (i + 1, l + 1),
                    f"row dominance fails between rows {i + 1},{i + 2}"
                    f" at prefix length {l}",
                )
            diff += x - nxt
    lo = 0
    for k, width in enumerate(a.ranks):
        for j in range(width - 1):
            diff = 0
            for l, (x, nxt) in enumerate(zip(cols[lo + j], cols[lo + j + 1])):
                if diff < nxt:
                    return ValidationReport(
                        False, "v", (k + 1, j + 1, l + 1),
                        f"column dominance fails in block {k + 1} between"
                        f" columns {j + 1},{j + 2} at prefix length {l}",
                    )
                diff += x - nxt
        lo += width
    return ValidationReport(True)


def require_valid(a: ConfigMatrix) -> None:
    """Raise InvalidCertificate unless ``a`` passes validate_config.

    A plain check that records nothing, so it runs in full on every call.
    """
    report = validate_config(a)
    if not report:
        raise InvalidCertificate(report.message)


def check_instance(ranks: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """``(ranks, dim)`` as ints, the ranks in the given order.

    Integral values such as ``2.0`` are accepted.  Raises InvalidRanks for
    non-integral data, no ranks, a rank or dimension that is not positive,
    or a rank above the dimension; a bound below 1 is not an error.
    """
    ranks = as_ints(ranks, InvalidRanks)
    (dim,) = as_ints((dim,), InvalidRanks)
    if not ranks:
        raise InvalidRanks("rank sequence is empty")
    if any(r <= 0 for r in ranks):
        raise InvalidRanks(f"ranks must be positive, got {ranks}")
    if dim <= 0:
        raise InvalidRanks(f"dimension must be positive, got {dim}")
    if max(ranks) > dim:
        raise InvalidRanks(f"largest rank {max(ranks)} exceeds dimension {dim}")
    return ranks, dim


def canonical_instance(ranks: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """``check_instance`` with the ranks sorted largest first."""
    ranks, dim = check_instance(ranks, dim)
    return tuple(sorted(ranks, reverse=True)), dim


def check_alpha(alpha: Fraction | int, dim: int) -> tuple[Fraction, int, int]:
    """``(alpha, dim, alpha*dim)`` as a Fraction and two ints.  Raises
    InvalidAlpha unless ``dim`` is a positive integer (``4.0`` is accepted),
    ``alpha >= 1`` is rational and ``alpha * dim`` is an integer."""
    alpha = as_rational(alpha, InvalidAlpha)
    (dim,) = as_ints((dim,), InvalidAlpha)
    if dim < 1:
        raise InvalidAlpha(f"dimension must be a positive integer, got {dim}")
    if alpha < 1:
        raise InvalidAlpha(f"frame bound must be at least 1, got {alpha}")
    total = alpha * dim
    if total.denominator != 1:
        raise InvalidAlpha(f"alpha*dim = {total} is not an integer")
    return alpha, dim, total.numerator


def _plan(
    blocks: Sequence[int], later: Sequence[int], n: int, m: int
) -> list[tuple]:
    """One step per column of ``blocks``: ``(value, in_block, fit, window)``.

    ``value`` is the column's label and ``in_block`` whether the next column
    is in the same block.  The blocks after the column's own, the rest of
    ``blocks`` and then ``later``, fill the 180-degree complement lambda of
    the shape, so their largest rectangle ``(n^rank)`` fits in lambda iff
    ``shape[row] <= cap`` for ``fit = (row, cap)``.  At a block start,
    ``window = (lo, hi)`` bounds the top i+1 rows of lambda by those of the
    union and the row-wise sum of the rectangles still to come, the block's
    own included; elsewhere it is None.
    """
    plan = []
    for k, width in enumerate(blocks):
        rest = [*blocks[k:], *later]
        window = (
            [n * min(i, sum(rest)) for i in range(1, n + 1)],
            [n * sum(min(r, i) for r in rest) for i in range(1, n + 1)],
        )
        fit = (n - max(rest[1:]), m - n) if rest[1:] else (0, m)
        plan += [(v, v < width, fit, None if v > 1 else window)
                 for v in range(1, width + 1)]
    return plan


def _column_options(
    rho: tuple[int, ...],
    prev: tuple[int, ...] | None,
    step: tuple,
    n: int,
    m: int,
) -> list[tuple[int, ...]]:
    """Admissible next columns, in descending lexicographic order.

    ``rho`` holds the current row sums and ``step`` is the column's entry of
    ``_plan``.  None is admissible at a block start whose window excludes
    ``rho``.  A column for label ``value`` must put zero in rows above
    ``value``, keep each row within the staircase capacity of the row above
    (property (iv)), and respect in-block dominance against ``prev``
    (property (v)).  The new row sums must pass the step's ``fit``.
    """
    value, _, (row, cap), window = step
    if rho[row] > cap:
        return []
    if window is not None:
        top = 0
        for lo, hi, x in zip(*window, reversed(rho)):
            top += m - x
            if not lo <= top <= hi:
                return []
    caps = [0] * n
    for i in range(value - 1, n):
        caps[i] = (m - rho[0]) if i == 0 else (rho[i - 1] - rho[i])
    caps[row] = min(caps[row], cap - rho[row])
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    if prev is not None:
        pp = [0] * (n + 1)
        for i in range(n):
            pp[i + 1] = pp[i] + prev[i]
        # rows up to i hold at most pp[i] and the rows below at most
        # suffix[i + 1]; past this test no branch below is a dead end
        if any(pp[i] + suffix[i + 1] < n for i in range(n)):
            return []

    out = [0] * n
    options: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, csum: int) -> None:
        # rows i.. of ``out`` are zero on entry, so a full column is out as is
        if remaining == 0:
            options.append(tuple(out))
            return
        hi = min(caps[i], remaining)
        if prev is not None:
            hi = min(hi, pp[i] - csum)
        # a smaller entry leaves more than the rows below can hold
        for x in range(hi, max(remaining - suffix[i + 1], 0) - 1, -1):
            out[i] = x
            rec(i + 1, remaining - x, csum + x)
        out[i] = 0

    if n <= suffix[0]:
        rec(0, n, 0)
    return options


def _shape_counts(
    blocks: Sequence[int], later: Sequence[int], n: int, m: int
) -> dict[tuple[int, ...], int]:
    """Number of ways the ``blocks`` fill each shape of the n x m box.

    Fills the columns of the blocks left to right from the empty shape and
    returns ``{row sums: ways}``.  A state is the row sums plus the previous
    column, which only matters inside a block, so it is dropped at block ends
    and the states of a block merge there.  The ``later`` blocks fill the
    rest of the box, and every column is pruned by the ``_plan`` the search
    uses.
    """
    states: dict = {((0,) * n, None): 1}
    for step in _plan(blocks, later, n, m):
        grown: dict = {}
        for (rho, prev), ways in states.items():
            for col in _column_options(rho, prev, step, n, m):
                key = (tuple(map(add, rho, col)), col if step[1] else None)
                grown[key] = grown.get(key, 0) + ways
        states = grown
    return {rho: ways for (rho, _), ways in states.items()}


def _search(ranks: tuple[int, ...], n: int) -> Iterator[list[tuple[int, ...]]]:
    """Every certificate for ``(ranks, n)`` as a list of columns, in the
    search order, pruned by the ``_plan`` of the support bounds in the module
    docstring.

    A state (column, row sums, previous column) whose subtree held no
    certificate is remembered and skipped when it is reached again; one whose
    subtree held one keeps its option list, so no state is expanded twice.
    """
    m = sum(ranks)
    plan = _plan(ranks, (), n, m)
    failed: set = set()
    kept: dict = {}
    chosen: list[tuple[int, ...]] = []
    found = 0

    def go(c: int, rho: tuple[int, ...], prev: tuple[int, ...] | None):
        nonlocal found
        # all n*m boxes are placed and no row exceeds m: the box is full
        if c == m:
            found += 1
            yield list(chosen)
            return
        before = found
        step = plan[c]
        state = (c, rho, prev)
        options = kept.get(state)
        if options is None:
            options = _column_options(rho, prev, step, n, m)
        for col in options:
            child = (c + 1, tuple(map(add, rho, col)), col if step[1] else None)
            if child in failed:
                continue
            chosen.append(col)
            yield from go(*child)
            chosen.pop()
        if found == before:
            failed.add(state)
        else:
            kept[state] = options

    yield from go(0, (0,) * n, None)


def _from_columns(
    columns: list[tuple[int, ...]], ranks: tuple[int, ...], dim: int
) -> ConfigMatrix:
    return _built(dim, ranks, tuple(zip(*columns)))


def find_config(ranks: Sequence[int], dim: int) -> ConfigMatrix | None:
    """First configuration matrix in the documented search order, or None.

    Columns are filled left to right and, within a column, top to bottom with
    larger entries tried first; the result is therefore the lexicographically
    greatest certificate under column-major comparison.  Blocks are laid out
    in the order given (the count and existence do not depend on the order).
    """
    ranks, dim = check_instance(ranks, dim)
    columns = next(_search(ranks, dim), None)
    return None if columns is None else _from_columns(columns, ranks, dim)


def count_configs(ranks: Sequence[int], dim: int) -> int:
    """Exact number of configuration matrices for ``(ranks, dim)``.

    Meets in the middle of the ``dim x M`` box.  The ranks, sorted, are split
    into two halves of near-equal total, and each half is counted on its own
    from the empty shape (``_shape_counts``).  The product of the rectangles
    commutes, and inside the box a shape mu pairs only with its 180-degree
    complement, with coefficient 1.  So the count is the sum over mu of
    ``left[mu] * right[complement of mu]``.
    """
    ranks, dim = check_instance(ranks, dim)
    m = sum(ranks)
    halves: tuple[list[int], list[int]] = ([], [])
    for r in sorted(ranks, reverse=True):
        min(halves, key=sum).append(r)
    left = _shape_counts(halves[0], halves[1], dim, m)
    right = (
        left if halves[0] == halves[1]
        else _shape_counts(halves[1], halves[0], dim, m)
    )
    return sum(
        ways * right.get(tuple(m - x for x in reversed(mu)), 0)
        for mu, ways in left.items()
    )


def iter_configs(ranks: Sequence[int], dim: int) -> Iterator[ConfigMatrix]:
    """Every configuration matrix, in the documented search order.

    The same depth-first walk as find_config, continued past the first
    certificate.  It skips dead states but yields certificates one at a time,
    so its cost grows with the count; count_configs gives bare counts without
    building any certificate.
    """
    ranks, dim = check_instance(ranks, dim)
    for columns in _search(ranks, dim):
        yield _from_columns(columns, ranks, dim)


def mu_chain(a: ConfigMatrix) -> tuple[tuple[int, ...], ...]:
    """Row-sum partitions of the block prefixes, from empty to the full box.

    Entry ``k`` is the partition of row sums of the first ``k`` blocks;
    property (iv) guarantees each is already weakly decreasing, and the last
    one is the full ``dim x M`` rectangle.
    """
    require_valid(a)
    chain = [()]
    sums = [0] * a.dim
    lo = 0
    for width in a.ranks:
        for i, row in enumerate(a.entries):
            sums[i] += sum(row[lo:lo + width])
        lo += width
        chain.append(as_partition(sums))
    return tuple(chain)


def tableau_cells(a: ConfigMatrix) -> list[list[tuple[int, int]]]:
    """Cell labels of the union skew tableau encoded by ``a``.

    Returns, for each of the ``dim`` rows, the left-to-right list of
    ``(block, value)`` labels (1-based) filling the full rectangle.
    """
    require_valid(a)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(a.dim)]
    labels = [(k + 1, v) for k, width in enumerate(a.ranks)
              for v in range(1, width + 1)]
    for label, col in zip(labels, zip(*a.entries)):
        for row, x in zip(rows, col):
            row.extend([label] * x)
    return rows


def render_tableaux(a: ConfigMatrix) -> str:
    """UTF-8 grid of the union skew tableau, one ``block:value`` cell per box."""
    return _tableau_text(tableau_cells(a))


def _tableau_text(rows: list[list[tuple[int, int]]]) -> str:
    return "\n".join(" ".join(f"{k}:{v}" for (k, v) in row) for row in rows)


def okada_product(a: int, b: int, n1: int, n2: int) -> list[tuple[int, ...]]:
    """Shapes in the product of the two rectangle Schur functions
    ``(n1^a) * (n2^b)`` (each appearing exactly once), for integers
    a >= b >= 1 and n1, n2 >= 0; integral values such as ``2.0`` are
    accepted.

    A shape qualifies iff it has length at most a+b, rows b+1..a equal n1,
    row b at least max(n1, n2), and complementary pairs
    row_i + row_{a+b+1-i} = n1 + n2 for i <= b.
    """
    a, b, n1, n2 = as_ints((a, b, n1, n2), InvalidShape)
    if b < 1 or a < b:
        raise InvalidShape(f"need a >= b >= 1, got a={a} b={b}")
    if n1 < 0 or n2 < 0:
        raise InvalidShape("rectangle widths must be nonnegative")
    lo = max(n1, n2)
    hi = n1 + n2
    out = []

    def heads(i: int, cap: int, prefix: tuple[int, ...]):
        if i == b:
            lam = prefix + (n1,) * (a - b) + tuple(
                hi - prefix[b - 1 - j] for j in range(b)
            )
            out.append(as_partition(lam))
            return
        for x in range(cap, lo - 1, -1):
            heads(i + 1, x, prefix + (x,))

    heads(0, hi, ())
    return out


def hook_completion_feasible(
    lam: Sequence[int], k: int, width: int, dim: int
) -> bool:
    """Whether ``lam`` can be completed to the full ``dim x width`` rectangle
    by ``k`` further one-row additions of size ``dim``.

    Requires |lam| = dim * (width - k); feasibility holds iff ``k`` is at
    least ``dim`` minus the number of already-complete rows of ``lam``.
    """
    lam = as_partition(lam)
    k, width, dim = as_ints((k, width, dim), InvalidShape)
    if len(lam) > dim or (lam and lam[0] > width):
        raise DoesNotFit(f"{lam} does not fit in {dim} rows of width {width}")
    if sum(lam) != dim * (width - k):
        raise SizeMismatch(
            f"|lam|={sum(lam)} but dim*(width-k)={dim * (width - k)}"
        )
    return k >= dim - count_equal_parts(lam, width)
