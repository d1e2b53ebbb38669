"""Exact integer partition arithmetic.

Partitions are plain tuples of weakly decreasing positive integers with no
trailing zeros; the empty tuple is the empty partition.  All operations are
pure functions over these tuples, so values are hashable and safe to share.
Malformed input raises InvalidShape, a ValueError.  One walk,
``capped_partitions``, generates both ``partitions_of`` and the candidates
that ``tffcore.maximal_elements`` scans under its prefix-sum caps.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DoesNotFit, InvalidShape, NotDominated


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize ``parts`` (dropping trailing zeros) or raise InvalidShape."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise InvalidShape(f"partition parts must be positive, got {x}")
        if i > 0 and p[i - 1] < x:
            raise InvalidShape(f"parts must be weakly decreasing, got {p}")
    return p


def pad(p: Sequence[int], length: int) -> tuple[int, ...]:
    """Zero-pad ``p`` on the right to the requested length."""
    if len(p) > length:
        raise InvalidShape(f"cannot pad {p} down to length {length}")
    return tuple(p) + (0,) * (length - len(p))


def count_equal_parts(p: Sequence[int], value: int) -> int:
    """Number of parts of ``p`` equal to ``value``."""
    return sum(1 for x in p if x == value)


def contains(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """Containment of Young diagrams: inner[i] <= outer[i] for all rows."""
    return all(
        x <= (outer[i] if i < len(outer) else 0) for i, x in enumerate(inner)
    )


def dominance_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff ``a`` is majorized by ``b``: equal size, prefix sums of ``a``
    never exceed those of ``b``.  Sequences are zero-padded internally."""
    if sum(a) != sum(b):
        return False
    sa = 0
    sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def majorization_chain(
    a: Sequence[int], b: Sequence[int]
) -> list[tuple[int, ...]]:
    """Stepwise chain a = L0 <= L1 <= ... <= Ln = b in dominance order.

    Consecutive entries differ by a single unit move: +1 at the first
    position where the current partition falls short of ``b`` and -1 at the
    end of the run of equal parts starting at the first position that
    exceeds ``b``.  (Decrementing the last differing position instead can
    leave the intermediate partition undominated whenever an interior
    prefix sum already meets that of ``b``, e.g. (3,3,1,1) against
    (4,2,2).)  Every intermediate partition is weakly decreasing and the
    chain is dominance-monotone.  Raises NotDominated unless a <= b.
    """
    a = as_partition(a)
    b = as_partition(b)
    if not dominance_leq(a, b):
        raise NotDominated(f"{a} is not dominated by {b}")
    width = max(len(a), len(b))
    cur = list(pad(a, width))
    target = list(pad(b, width))
    chain = [a]
    while cur != target:
        gain = next(i for i in range(width) if cur[i] != target[i])
        drop = next(j for j in range(gain + 1, width) if cur[j] > target[j])
        while drop + 1 < width and cur[drop + 1] == cur[drop]:
            drop += 1
        cur[gain] += 1
        cur[drop] -= 1
        chain.append(as_partition(cur))
    return chain


def conjugate(p: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if not p:
        return ()
    cols = [0] * p[0]
    for row in p:
        for j in range(row):
            cols[j] += 1
    return tuple(cols)


def dual_in_rectangle(p: Sequence[int], width: int, height: int) -> tuple[int, ...]:
    """Complement of ``p`` inside the height x width rectangle, rotated.

    With ``p`` zero-padded to ``height`` rows the dual is
    (width - p[height-1], ..., width - p[0]); trailing zeros are dropped.
    """
    p = as_partition(p)
    if len(p) > height or (p and p[0] > width):
        raise DoesNotFit(f"{p} does not fit in {height} rows of width {width}")
    padded = pad(p, height)
    return as_partition(width - padded[height - 1 - i] for i in range(height))


def capped_partitions(
    total: int, max_part: int, caps: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` with parts <= ``max_part`` and the first k
    parts summing to <= ``caps[k-1]``, in descending lexicographic order; a
    prefix above its cap is cut with everything that extends it."""

    def rec(remaining: int, cap: int, parts: tuple[int, ...]):
        if remaining == 0:
            yield parts
            return
        top = min(cap, remaining, caps[len(parts)] - (total - remaining))
        for part in range(top, 0, -1):
            yield from rec(remaining - part, part, parts + (part,))

    yield from rec(total, max_part, ())


def partitions_of(
    n: int, max_part: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All partitions of ``n`` with parts at most ``max_part``, in descending
    lexicographic order (so any partition precedes everything it dominates)."""
    if n >= 0:
        first = n if max_part is None else max_part
        yield from capped_partitions(n, first, [n] * n)
