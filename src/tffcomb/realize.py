"""Numerical realization of tight fusion frames and spectral verification.

The combinatorial layer is exact; this module is the only place floating
point enters.  It constructs explicit orthonormal block bases U_k whose
projections P_k = U_k U_k^T sum to alpha * I, builds two-projection sums
with a prescribed spectrum, and verifies candidate realizations
independently of how they were produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .configmat import ConfigMatrix, check_instance, mu_chain
from .errors import (
    ConvergenceFailure,
    InvalidMultiplicity,
    InvalidParameter,
    InvalidRanks,
    MalformedInput,
    NotATFFSequence,
)
from .partitions import pad
from .tffcore import decide

Rational = Fraction | int

DEFAULT_TOL = 1e-8
DEFAULT_RESTARTS = 20
_MAX_ITER = 4000
_STALL_WINDOW = 60
_STALL_FACTOR = 0.9995


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
            "blocks": [
                {
                    "rank": b.shape[1],
                    "basis": [list(map(float, b[:, j])) for j in range(b.shape[1])],
                }
                for b in self.blocks
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProjectionSet":
        """Inverse of to_json_dict.  Raises MalformedInput for any other
        layout: a missing key, a bad dim or rank, or a basis that is not
        ``rank`` vectors of ``dim`` finite numbers."""
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
            bases = [np.asarray(item["basis"]) for item in items]
        except KeyError as exc:
            raise MalformedInput(f"ProjectionSet JSON has no {exc} key") from exc
        except (InvalidRanks, ValueError) as exc:
            # InvalidRanks for dim and ranks, ValueError for ragged bases
            raise MalformedInput(f"ProjectionSet: {exc}") from exc
        blocks = []
        for basis, rank in zip(bases, ranks):
            # numeric numpy kinds; true/false read as 1/0, as in ConfigMatrix
            if (
                basis.dtype.kind not in "biuf"
                or basis.shape != (rank, dim)
                or not np.isfinite(basis).all()
            ):
                raise MalformedInput(
                    f"ProjectionSet basis must be {rank} vectors of {dim}"
                    " finite numbers"
                )
            blocks.append(basis.astype(float).T)
        return cls(dim=dim, blocks=tuple(blocks))

    def to_csv(self) -> str:
        """Concatenated basis matrix, one comma-separated line per row."""
        full = np.hstack(self.blocks)
        return "\n".join(
            ",".join(repr(float(x)) for x in row) for row in full
        )


@dataclass(frozen=True)
class VerificationReport:
    sum_residual: float
    block_orthonormality: tuple[float, ...]
    block_idempotence: tuple[float, ...]
    block_ranks: tuple[int, ...]
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def _normalize_multiplicities(m: Mapping) -> dict[Fraction, int] | None:
    out: dict[Fraction, int] = {}
    for key, mult in m.items():
        if mult == 0:
            continue
        if int(mult) != mult or mult < 0:
            return None
        lam = Fraction(key)
        out[lam] = out.get(lam, 0) + int(mult)
    return out


def validate_multiplicity(p: int, q: int, dim: int, m: Mapping) -> bool:
    """Whether ``m`` is a spectrum multiplicity function of P + Q for some
    orthogonal projections of ranks p and q on a dim-dimensional space.

    Conditions: support inside [0, 2]; multiplicities summing to dim;
    m(1) >= |p - q|; symmetry m(x) = m(2 - x) on (0, 2); and
    m(0) - m(2) = dim - p - q.
    """
    if not (0 <= p <= dim and 0 <= q <= dim):
        return False
    mm = _normalize_multiplicities(m)
    if mm is None:
        return False
    if any(lam < 0 or lam > 2 for lam in mm):
        return False
    if sum(mm.values()) != dim:
        return False
    if mm.get(Fraction(1), 0) < abs(p - q):
        return False
    for lam, mult in mm.items():
        if 0 < lam < 2 and mm.get(2 - lam, 0) != mult:
            return False
    if mm.get(Fraction(0), 0) - mm.get(Fraction(2), 0) != dim - p - q:
        return False
    return True


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
    if not validate_multiplicity(p, q, dim, m):
        raise InvalidMultiplicity(
            f"not a two-projection spectrum for ranks ({p}, {q}) in dim {dim}"
        )
    mm = _normalize_multiplicities(m)
    P = np.zeros((dim, dim))
    Q = np.zeros((dim, dim))
    pos = 0
    for _ in range(mm.get(Fraction(2), 0)):
        P[pos, pos] = 1.0
        Q[pos, pos] = 1.0
        pos += 1
    uppers = sorted((lam for lam in mm if 1 < lam < 2), reverse=True)
    for lam in uppers:
        c = float(lam - 1)
        s = float(np.sqrt(1.0 - c * c))
        for _ in range(mm[lam]):
            P[pos, pos] = 1.0
            Q[pos:pos + 2, pos:pos + 2] = [[c * c, c * s], [c * s, s * s]]
            pos += 2
    forced = abs(p - q)
    for _ in range(forced):
        if p >= q:
            P[pos, pos] = 1.0
        else:
            Q[pos, pos] = 1.0
        pos += 1
    extra = mm.get(Fraction(1), 0) - forced
    for _ in range(extra // 2):
        P[pos, pos] = 1.0
        Q[pos + 1, pos + 1] = 1.0
        pos += 2
    pos += mm.get(Fraction(0), 0)
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


def _orthonormal(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    mat = rng.standard_normal((dim, rank))
    qmat, _ = np.linalg.qr(mat)
    return qmat[:, :rank]


def _check_tol(tol: float) -> None:
    if not tol >= 0:
        raise InvalidParameter(f"tolerance must be nonnegative, got {tol}")


def _check_count(name: str, value: int, least: int) -> None:
    if not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidParameter(f"{name} must be an integer >= {least}, got {value!r}")


def realize_tff(
    ranks: Sequence[int],
    dim: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_restarts: int = DEFAULT_RESTARTS,
) -> ProjectionSet:
    """Explicit orthonormal block bases with projections summing to alpha*I.

    Alternates between the affine constraint (subtract the shared residual
    from every block) and the product of fixed-rank projection manifolds
    (spectral truncation), restarting from fresh random orthonormal bases up
    to ``max_restarts`` times.  Every block truncates against the same
    residual (a Jacobi step), so one stacked eigendecomposition per iteration
    serves all blocks.  Deterministic for a fixed seed.  Raises
    InvalidParameter unless ``seed >= 0`` and ``max_restarts >= 1`` are
    integers and ``tol >= 0``; a zero tolerance demands an exact realization.
    """
    _check_count("seed", seed, 0)
    _check_count("max_restarts", max_restarts, 1)
    _check_tol(tol)
    ranks, dim = check_instance(ranks, dim)
    ranks = tuple(sorted(ranks, reverse=True))
    if not decide(ranks, dim):
        raise NotATFFSequence(
            f"{ranks} admits no tight fusion frame in dimension {dim}"
        )
    alpha = sum(ranks) / dim
    kblocks = len(ranks)
    eye = np.eye(dim)
    if all(r == dim for r in ranks):
        return ProjectionSet(dim=dim, blocks=(eye,) * kblocks)
    # eigh sorts eigenvalues ascending, so block k keeps its last ranks[k]
    # eigenvectors
    keep = np.arange(dim) >= dim - np.array(ranks)[:, None]
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(max_restarts):
        bases = [_orthonormal(rng, dim, r) for r in ranks]
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
    passes iff all residuals are within ``tol`` and ranks match.  Raises
    InvalidParameter for a negative or NaN ``tol``, as realize_tff does.
    """
    _check_tol(tol)
    if alpha is None:
        alpha = s.alpha
    alpha = float(alpha)
    eye = np.eye(s.dim)
    total = np.zeros((s.dim, s.dim))
    orth = []
    idem = []
    nranks = []
    for b in s.blocks:
        proj = b @ b.T
        total += proj
        orth.append(float(np.linalg.norm(b.T @ b - np.eye(b.shape[1]))))
        idem.append(float(np.linalg.norm(proj @ proj - proj)))
        nranks.append(int(np.sum(np.linalg.svd(b, compute_uv=False) > 0.5)))
    sum_res = float(np.linalg.norm(total - alpha * eye))
    passed = (
        sum_res <= tol
        and all(x <= tol for x in orth)
        and all(x <= tol for x in idem)
        and tuple(nranks) == s.ranks
    )
    return VerificationReport(
        sum_residual=sum_res,
        block_orthonormality=tuple(orth),
        block_idempotence=tuple(idem),
        block_ranks=tuple(nranks),
        passed=passed,
    )
