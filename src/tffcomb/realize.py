"""Numerical realization of tight fusion frames and spectral verification.

The combinatorial layer is exact; this module is the only place floating
point enters.  It constructs explicit orthonormal block bases U_k whose
projections P_k = U_k U_k^T sum to alpha * I, builds two-projection sums
with a prescribed spectrum, and verifies candidate realizations
independently of how they were produced.  Frames are built through
``decide``'s descent: a terminal instance by spectral tetris, else by the
eigensteps of its certificates, with the seeded optimizer only as the
fallback past a fixed number of certificates.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, islice
from math import prod
from typing import Mapping, Sequence

import numpy as np

from .configmat import (
    ConfigMatrix,
    canonical_instance,
    check_instance,
    iter_configs,
    mu_chain,
)
from .errors import (
    ConvergenceFailure,
    InvalidAlpha,
    InvalidMultiplicity,
    InvalidParameter,
    InvalidRanks,
    MalformedInput,
    NotATFFSequence,
)
from .partitions import as_ints, as_rational, pad
from .tffcore import decide, descend

Rational = Fraction | int

DEFAULT_TOL = 1e-8
DEFAULT_RESTARTS = 20
_MAX_ITER = 4000
_STALL_WINDOW = 60
_STALL_FACTOR = 0.9995
# certificates of a terminal tried by eigensteps before the optimizer; every
# terminal of the tests' sweeps needs at most 37
_CERT_CAP = 64
# largest Frobenius distance from I of an eigenstep block's Gram matrix
_GRAM_BOUND = 1e-9


@dataclass(frozen=True)
class ProjectionSet:
    """Orthonormal block bases realizing a sum-of-projections identity."""

    dim: int
    blocks: tuple[np.ndarray, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.blocks)

    @property
    def alpha(self) -> Fraction:
        return Fraction(sum(self.ranks), self.dim)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "alpha": str(self.alpha),
            "blocks": [{"rank": b.shape[1], "basis": b.T.tolist()} for b in self.blocks],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProjectionSet":
        """Inverse of to_json_dict.  Raises MalformedInput for any other
        layout: a missing key, a bad dim or rank, or a basis that is not
        ``rank`` vectors of ``dim`` finite numbers (``_checked_stack``)."""
        if not isinstance(data, dict):
            raise MalformedInput(
                f"ProjectionSet JSON must be an object, got {type(data).__name__}"
            )
        try:
            items = data["blocks"]
            if not isinstance(items, list) or not all(
                isinstance(b, dict) for b in items
            ):
                raise MalformedInput("ProjectionSet blocks must be a list of objects")
            ranks, dim = check_instance([item["rank"] for item in items], data["dim"])
            frame = cls(dim, tuple(np.asarray(item["basis"]).T for item in items))
        except KeyError as exc:
            raise MalformedInput(f"ProjectionSet JSON has no {exc} key") from exc
        except (InvalidRanks, ValueError) as exc:
            # InvalidRanks for dim and ranks, ValueError for ragged bases
            raise MalformedInput(f"ProjectionSet: {exc}") from exc
        _checked_stack(frame, ranks)
        return cls(dim, tuple(b.astype(float) for b in frame.blocks))

    def to_csv(self) -> str:
        """Concatenated basis matrix, one comma-separated line per row."""
        rows = np.hstack(self.blocks).tolist()
        return "\n".join(",".join(map(repr, row)) for row in rows)


@dataclass(frozen=True)
class VerificationReport:
    sum_residual: float
    block_orthonormality: tuple[float, ...]
    block_idempotence: tuple[float, ...]
    block_ranks: tuple[int, ...]
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def _spectrum(p: int, q: int, dim: int, m: Mapping) -> tuple | None:
    """``(p, q, dim, m)`` as integers and a Counter of rational eigenvalues
    if ``m`` is the spectrum multiplicity function of P + Q for orthogonal
    projections of ranks p and q on a dim-dimensional space, else None.

    Conditions: multiplicities nonnegative and summing to dim; support
    inside [0, 2]; m(1) >= |p - q|; symmetry m(x) = m(2 - x) on (0, 2); and
    m(0) - m(2) = dim - p - q.  Raises InvalidParameter for a p, q or dim
    that is not an integer, InvalidMultiplicity for a key that is not a
    rational or a multiplicity that is not an integer.
    """
    p, q, dim = as_ints((p, q, dim), InvalidParameter)
    lams = [as_rational(key, InvalidMultiplicity) for key in m]
    mults = as_ints(m.values(), InvalidMultiplicity)
    if not (0 <= p <= dim and 0 <= q <= dim) or min(mults, default=0) < 0:
        return None
    mm: Counter[Fraction] = Counter()
    for lam, mult in zip(lams, mults):
        mm[lam] += mult
    if (
        any(n and not 0 <= lam <= 2 for lam, n in mm.items())
        or sum(mm.values()) != dim
        or mm[1] < abs(p - q)
        or any(0 < lam < 2 and mm[2 - lam] != n for lam, n in mm.items())
        or mm[0] - mm[2] != dim - p - q
    ):
        return None
    return p, q, dim, mm


def validate_multiplicity(p: int, q: int, dim: int, m: Mapping) -> bool:
    """Whether ``m`` is a spectrum multiplicity function of P + Q for some
    orthogonal projections of ranks p and q on a dim-dimensional space; see
    ``_spectrum`` for the conditions and the errors."""
    return _spectrum(p, q, dim, m) is not None


def two_projection_sum(
    p: int, q: int, dim: int, m: Mapping
) -> tuple[np.ndarray, np.ndarray]:
    """Construct projections P, Q of ranks p, q with prescribed spectrum of
    P + Q, as a direct sum of explicit 1- and 2-dimensional blocks.

    Eigenvalue pairs (x, 2-x) with x in (1, 2) become planar blocks where Q
    projects onto a line at angle arccos(x-1) from the P line; eigenvalue 2
    blocks share the line, eigenvalue 1 blocks use a line in only one of P, Q
    (the |p-q| forced ones) or two orthogonal lines (the remaining pairs).
    """
    spectrum = _spectrum(p, q, dim, m)
    if spectrum is None:
        raise InvalidMultiplicity(
            f"not a two-projection spectrum for ranks ({p}, {q}) in dim {dim}"
        )
    return _two_projections(*spectrum)


def _two_projections(p: int, q: int, dim: int, mm: Counter) -> tuple[np.ndarray, ...]:
    """``two_projection_sum`` for a spectrum ``_spectrum`` has accepted."""
    P, Q = np.zeros((2, dim, dim))
    pos = mm[2]
    P[:pos, :pos] = Q[:pos, :pos] = np.eye(pos)
    uppers = sorted((lam for lam in mm if 1 < lam < 2), reverse=True)
    for lam in uppers:
        c = float(lam - 1)
        s = float(np.sqrt(1.0 - c * c))
        for _ in range(mm[lam]):
            P[pos, pos] = 1.0
            Q[pos:pos + 2, pos:pos + 2] = [[c * c, c * s], [c * s, s * s]]
            pos += 2
    forced = abs(p - q)
    (P if p >= q else Q)[pos:pos + forced, pos:pos + forced] = np.eye(forced)
    pos += forced
    extra = mm[1] - forced
    for _ in range(extra // 2):
        P[pos, pos] = 1.0
        Q[pos + 1, pos + 1] = 1.0
        pos += 2
    pos += mm[0]
    assert pos == dim, "block dimensions do not add up"
    return P, Q


def spectrum_chain(a: ConfigMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact eigenvalue targets of the partial projection sums encoded by a
    certificate: the k-th entry lists, as rationals, the spectrum that
    P_1 + ... + P_k must have (prefix row sums divided by the dimension)."""
    chain = mu_chain(a)
    return tuple(
        tuple(Fraction(x, a.dim) for x in pad(level, a.dim))
        for level in chain[1:]
    )


def _check_tol(tol: float) -> None:
    if not tol >= 0:
        raise InvalidParameter(f"tolerance must be nonnegative, got {tol}")


def _check_count(name: str, value: int, least: int) -> int:
    try:
        (count,) = as_ints((value,), InvalidParameter)
        if count >= least:
            return count
    except InvalidParameter:
        pass
    raise InvalidParameter(f"{name} must be an integer >= {least}, got {value!r}")


def realize_tff(
    ranks: Sequence[int],
    dim: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_restarts: int = DEFAULT_RESTARTS,
) -> ProjectionSet:
    """Explicit orthonormal block bases with projections summing to alpha*I.

    Descends once with ``tffcore.descend``, builds a frame for the terminal
    instance and lifts it back exactly: identity blocks for a peel, block
    complements for a spatial dual, an orthogonal completion of the
    synthesis matrix for a Naimark dual.  A terminal (L_k) in R^N is covered
    by spectral tetris when the spectral-tetris frame of its M unit vectors
    splits into families of sizes L_k with disjoint supports (needing M/N an
    integer or M >= 2N; ``_tetris_frame``); it is then tight, realized by
    orthonormal families with no decision, optimizer or seed.  Another
    terminal is decided with a certificate (NotATFFSequence unless tight)
    and built by that certificate's eigensteps (``_eigenstep_frame``); if a
    block comes out not orthonormal, the next certificates of
    ``iter_configs`` are tried, up to a fixed cap.  Only past the cap does
    the optimizer, ``_alternate``, run from ``seed``; it also polishes a
    lifted frame that misses ``tol``.  Deterministic for a fixed seed, and
    seed-free on the exact paths.  Raises InvalidParameter unless
    ``seed >= 0`` and ``max_restarts >= 1`` are integral (``2.0`` too) and
    ``tol >= 0``; a zero tolerance demands exactness.
    """
    seed = _check_count("seed", seed, 0)
    max_restarts = _check_count("max_restarts", max_restarts, 1)
    _check_tol(tol)
    ranks, dim = canonical_instance(ranks, dim)
    path = descend(ranks, dim)
    frame = _tetris_frame(path.ranks, path.dim)
    if frame is None:
        # the terminal is a fixed point of the descent, so its certificate
        # is find_config's, the first of iter_configs
        tight, cert = decide(path.ranks, path.dim, certificate=True)
        if not tight:
            raise NotATFFSequence(
                f"{ranks} admits no tight fusion frame in dimension {dim}"
            )
        later = islice(iter_configs(path.ranks, path.dim), 1, _CERT_CAP)
        frame = next(filter(None, map(_eigenstep_frame, chain([cert], later))), None)
        if frame is None:
            frame = _alternate(path.ranks, path.dim, seed, tol, max_restarts)
    frame = path.lift(frame, _peel_lift, _spatial_lift, _naimark_lift)
    stack = _stack(frame)
    sum_res = _sum_residual(stack, float(frame.alpha))
    if not all(x <= tol for x in (sum_res, *_orth(_gram(stack), frame.ranks))):
        frame = _alternate(ranks, dim, seed, tol, max_restarts, list(frame.blocks))
    return frame


def _tetris_frame(ranks: tuple[int, ...], dim: int) -> ProjectionSet | None:
    """The spectral-tetris frame of M = sum(ranks) unit vectors in R^dim split
    into blocks of sizes ``ranks`` with disjoint supports, or None (at once if
    M/dim < 2 is not an integer).  Row j, with exact weight r left, places e_j
    while r >= 1, then (sqrt(r/2), +-sqrt(1 - r/2)) on rows j, j+1 if r > 0; two
    vectors are orthogonal iff their supports are disjoint.  Each vector, in
    frame order, joins the free family (last row used below its first row)
    with the most vectors left, the lowest index on a tie; None when no family
    is free.  Greedy is exact: supports are row intervals of length 1 or 2
    whose first and last rows never decrease, so a free family stays free.  If
    a split puts v in free A (a left) while free B has b > a, some clean cut
    (last row before < first row after) past v has as many of A's vectors from
    v on as of B's left; swapping the tails there puts v in B, and both
    families stay disjoint.  Free families wait in a heap and busy ones in
    order of their last row, so the pass takes O(M log K) for K families."""
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
    # free: heap of (-vectors left, k); busy: queue of (last row, -left, k)
    free, busy = [(-n, k) for k, n in enumerate(ranks)], deque()
    heapify(free)
    for rows, entries in vectors:
        while busy and busy[0][0] < rows[0]:
            heappush(free, busy.popleft()[1:])
        if not free:
            return None
        neg_left, k = heappop(free)
        blocks[k][rows, ranks[k] + neg_left] = entries
        if neg_left < -1:
            busy.append((rows[-1], neg_left + 1, k))
    return ProjectionSet(dim, tuple(blocks))


def _eigenstep_weights(
    before: Sequence[int], after: Sequence[int]
) -> list[tuple[int, int, int]]:
    """The squared norms of one eigenstep's unit vector in the eigenspaces
    of the operator before it, as ``(b, num, den)`` with norm ``num/den`` in
    the eigenspace of eigenvalue b/N; ``before`` and ``after``
    are the operator's spectra (row sums of a certificate, in units of 1/N,
    N = len(before)).  The norm is -lim_{x->b} (x - b) p_after(x)/p_before(x)
    for the characteristic polynomials, nonzero only where the multiplicity
    of b drops by one, and interlacing makes it positive."""
    n = len(before)
    return [
        (b, -prod(b - t for t in after if t != b),
         n * prod(b - s for s in before if s != b))
        for b in set(before)
        if after.count(b) == before.count(b) - 1
    ]


def _eigenstep_frame(cert: ConfigMatrix) -> ProjectionSet | None:
    """The frame built by the eigensteps of ``cert``, or None unless every
    block is orthonormal (Gram matrix within ``_GRAM_BOUND`` of I).

    A certificate is an eigenstep sequence (Cahill, Fickus, Mixon, Poteet and
    Strawn, ACHA 2013): each column adds a unit vector f to F = sum f f^T, the
    prefix row sums divided by N are F's exact spectra, and property (iv) is
    their interlacing.  So f takes the norms of ``_eigenstep_weights`` in F's
    eigenspaces, whose eigenvectors come from ``eigh`` grouped by the known
    exact eigenvalues; inside an eigenspace the direction is its first
    eigenvector, so no seed is used.  Which certificates give orthonormal
    blocks is open; a rule that picked one directly would remove
    ``realize_tff``'s cap."""
    n = cert.dim
    op = np.zeros((n, n))
    vectors = []
    before = [0] * n
    for column in zip(*cert.entries):
        after = [s + x for s, x in zip(before, column)]
        # the row sums decrease and eigh ascends, so b/N's eigenspace starts
        # at the first index of b in the reversed row sums
        ascending = before[::-1]
        vecs = np.linalg.eigh(op)[1]
        f = sum(
            np.sqrt(num / den) * vecs[:, ascending.index(b)]
            for b, num, den in _eigenstep_weights(before, after)
        )
        op += np.outer(f, f)
        vectors.append(f)
        before = after
    frame = ProjectionSet(n, _column_blocks(np.array(vectors).T, cert.ranks))
    if any(x > _GRAM_BOUND for x in _orth(_gram(_stack(frame)), frame.ranks)):
        return None
    return frame


def _peel_lift(frame: ProjectionSet, count: int, dim: int) -> ProjectionSet:
    return ProjectionSet(dim=dim, blocks=(np.eye(dim),) * count + frame.blocks)


def _spatial_lift(frame: ProjectionSet) -> ProjectionSet:
    """Block complements in reversed order; they sum to (K - alpha') I.
    One complete QR of the padded stack: a zero column gets the identity
    as its Householder reflector, so each Q is the one of its own block."""
    qs = np.linalg.qr(_stack(frame), mode="complete")[0]
    blocks = [q[:, r:] for q, r in zip(qs, frame.ranks)]
    return ProjectionSet(dim=frame.dim, blocks=tuple(reversed(blocks)))


def _naimark_lift(frame: ProjectionSet) -> ProjectionSet:
    """Complete the orthonormal rows of [U_1 ... U_K]/sqrt(alpha) to an
    orthogonal M x M matrix; each column block of the complement rows has
    Gram matrix (1 - 1/alpha) I, and scaled it is an orthonormal basis."""
    alpha = float(frame.alpha)
    synthesis = np.hstack(frame.blocks) / np.sqrt(alpha)
    rest = np.linalg.qr(synthesis.T, mode="complete")[0][:, frame.dim:].T
    rest /= np.sqrt(1 - 1 / alpha)
    return ProjectionSet(dim=rest.shape[0], blocks=_column_blocks(rest, frame.ranks))


def _column_blocks(mat: np.ndarray, ranks: Sequence[int]) -> tuple[np.ndarray, ...]:
    """``mat`` cut into consecutive column blocks of widths ``ranks``."""
    return tuple(mat[:, end - r:end] for r, end in zip(ranks, accumulate(ranks)))


def _stack(frame: ProjectionSet) -> np.ndarray:
    """The blocks as one K x N x max(rank) array, each padded with zero
    columns on the right."""
    stack = np.zeros((len(frame.blocks), frame.dim, max(frame.ranks, default=0)))
    for layer, b in zip(stack, frame.blocks):
        layer[:, :b.shape[1]] = b
    return stack


def _checked_stack(
    frame: ProjectionSet, ranks: tuple[int, ...] | None = None
) -> np.ndarray:
    """``_stack`` of a frame from outside: raises MalformedInput unless
    ``frame.dim`` is a positive integer, every block is a 2-D array of real
    numbers (true and false read as 1 and 0) with ``frame.dim`` rows and, if
    ``ranks`` is given, ``ranks[k]`` columns, and every value is finite.  The
    shapes are checked before the stack is built, so its size is bounded by
    the declared ranks."""
    try:
        (dim,) = as_ints((frame.dim,), MalformedInput)
    except MalformedInput as exc:
        raise MalformedInput(f"ProjectionSet dim: {exc}") from None
    if dim < 1:
        raise MalformedInput(f"ProjectionSet dim must be positive, got {dim}")
    frame = ProjectionSet(dim, frame.blocks)
    if not all(
        isinstance(b, np.ndarray) and b.dtype.kind in "biuf"
        and b.ndim == 2 and b.shape[0] == frame.dim
        for b in frame.blocks
    ):
        raise MalformedInput(
            f"ProjectionSet blocks must be arrays of real numbers with {frame.dim} rows"
        )
    if ranks is not None and frame.ranks != ranks:
        raise MalformedInput(f"ProjectionSet bases must have {ranks} vectors")
    stack = _stack(frame)
    if not np.isfinite(stack).all():
        raise MalformedInput("ProjectionSet blocks must hold finite numbers")
    return stack


def _sum_residual(stack: np.ndarray, alpha: float) -> float:
    """The Frobenius norm of sum(P_k) - alpha*I for the padded ``stack``:
    sum(P_k) is S S^T for the blocks side by side, and a padded column adds
    nothing to it."""
    k, n, r = stack.shape
    flat = stack.transpose(1, 0, 2).reshape(n, k * r)
    total = flat @ flat.T
    total.flat[::n + 1] -= alpha
    return float(np.linalg.norm(total))


def _gram(stack: np.ndarray) -> np.ndarray:
    """Each block's Gram matrix U_k^T U_k, padded with zero rows and columns."""
    return stack.transpose(0, 2, 1) @ stack


def _orth(gram: np.ndarray, ranks: Sequence[int]) -> tuple[float, ...]:
    """The Frobenius norm of each U_k^T U_k - I from the padded ``gram``;
    the identity has ones only on the first r_k diagonal entries, so the
    padded rows and columns stay zero."""
    k, r, _ = gram.shape
    eye = np.zeros((k, r * r))
    eye[:, ::r + 1] = np.arange(r) < np.array(ranks)[:, None]
    return _norms(gram - eye.reshape(k, r, r))


def _norms(mats: np.ndarray) -> tuple[float, ...]:
    """The Frobenius norm of each matrix of a stack."""
    return tuple(np.sqrt(np.einsum("kij,kij->k", mats, mats)).tolist())


def _alternate(
    ranks: tuple[int, ...], dim: int, seed: int, tol: float, max_restarts: int,
    start: list[np.ndarray] | None = None,
) -> ProjectionSet:
    """The optimizer, for weakly decreasing ``ranks``.

    Alternates between the affine constraint (subtract the shared residual
    from every block) and the product of fixed-rank projection manifolds
    (spectral truncation), restarting from random orthonormal bases drawn
    from ``seed`` up to ``max_restarts`` times; the first run starts from
    ``start`` when given.  Every block truncates against the same residual
    (a Jacobi step), so one stacked eigendecomposition per iteration serves
    all blocks.  Raises ConvergenceFailure when no run reaches ``tol``.
    """
    alpha = sum(ranks) / dim
    kblocks = len(ranks)
    eye = np.eye(dim)
    # eigh sorts eigenvalues ascending, so block k keeps its last ranks[k]
    # eigenvectors
    keep = np.arange(dim) >= dim - np.array(ranks)[:, None]
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(max_restarts):
        bases = start or [np.linalg.qr(rng.standard_normal((dim, r)))[0] for r in ranks]
        start = None
        projs = np.stack([b @ b.T for b in bases])
        history: list[float] = []
        for _ in range(_MAX_ITER):
            residual = projs.sum(axis=0) - alpha * eye
            res = float(np.linalg.norm(residual))
            if res <= tol:
                return ProjectionSet(dim=dim, blocks=tuple(bases))
            history.append(res)
            if (
                len(history) > _STALL_WINDOW
                and history[-1] > _STALL_FACTOR * history[-_STALL_WINDOW]
            ):
                break
            _, vecs = np.linalg.eigh(projs - residual / kblocks)
            projs = (vecs * keep[:, None, :]) @ vecs.transpose(0, 2, 1)
            bases = [v[:, -r:] for v, r in zip(vecs, ranks)]
        best = min(best, history[-1] if history else np.inf)
    raise ConvergenceFailure(
        f"no realization within {max_restarts} restarts"
        f" (best residual {best:.3e}, tol {tol:.1e})"
    )


def verify_tff(
    s: ProjectionSet, alpha: Rational | float | None = None, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Independent check of a candidate realization.

    Measures the Frobenius residual of sum(P_k) - alpha*I, per-block
    orthonormality and idempotence, and the numerical rank of every block;
    passes iff all residuals are within ``tol`` and ranks match.  Every
    figure comes from one batched pass over the blocks stacked and padded
    with zero columns, which change none of them: a zero column adds only
    zeros to P_k and to its Gram matrix G_k = U_k^T U_k, and a zero
    singular value.  Idempotence is read from G_k, with no N x N matrix:
    P_k^2 - P_k = U_k (G_k - I) U_k^T has the Frobenius norm of
    G_k^2 - G_k.  ``alpha`` is read as a rational (``"3/2"`` too) or raises
    InvalidAlpha; a negative or NaN ``tol`` raises InvalidParameter, as in
    realize_tff; a block that is not a finite real (dim, rank) array raises
    MalformedInput.
    """
    _check_tol(tol)
    stack = _checked_stack(s)
    # the stack's rows are the checked dim, which s.dim may hold as 3.0
    alpha = (
        Fraction(sum(s.ranks), stack.shape[1]) if alpha is None
        else as_rational(alpha, InvalidAlpha)
    )
    sum_res = _sum_residual(stack, float(alpha))
    gram = _gram(stack)
    orth = _orth(gram, s.ranks)
    idem = _norms(gram @ gram - gram)
    sing = np.linalg.svd(stack, compute_uv=False)
    nranks = tuple((sing > 0.5).sum(axis=1).tolist())
    passed = all(x <= tol for x in (sum_res, *orth, *idem)) and nranks == s.ranks
    return VerificationReport(
        sum_residual=sum_res,
        block_orthonormality=orth,
        block_idempotence=idem,
        block_ranks=nranks,
        passed=passed,
    )
