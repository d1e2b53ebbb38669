"""The three workloads: their inputs, their ops and the checks on each op.

A workload builds its inputs from the workload seed, then runs rounds: one
round is the same fixed list of ops every time.  Ops call tffcomb through
the package namespace at call time (``tc.maximal_elements``), so the tracer's
wrappers see them.  Every op runs through ``Recorder.run``, which times it;
the checks on its answer run outside that timing and mark the op failed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import tffcomb as tc

from checks import cell_problem, config_violation, dominated_by, frame_problem

FAILED = object()


class Recorder:
    """Latency of every op, and which ops failed (raised or gave a wrong
    answer).  ``busy`` is the sum of the op latencies."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed: set[int] = set()
        self.errors: list[str] = []

    def run(self, fn, *args):
        """Time ``fn(*args)`` as one op; returns (op index, result or FAILED)."""
        idx = len(self.latencies)
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op
            self.latencies.append(perf_counter() - start)
            self.fail(idx, f"{type(exc).__name__}: {exc}")
            return idx, FAILED
        self.latencies.append(perf_counter() - start)
        return idx, out

    def fail(self, idx: int, why: str) -> None:
        if idx not in self.failed:
            self.failed.add(idx)
            if len(self.errors) < 10:
                self.errors.append(f"op {idx}: {why}")

    @property
    def busy(self) -> float:
        return sum(self.latencies)


# cells left out of catalog: together they take 35-50 s, longer than a run
SLOW_CELLS = {(9, Fraction(16, 9)), (9, Fraction(17, 9))}


class Catalog:
    """One op is ``maximal_elements(alpha, dim)`` for one cell of the table,
    in the order ``tffcomb maximal --all`` builds it (the seed changes
    nothing here)."""

    name = "catalog"
    tail_percentile = 90

    def __init__(self, seed: int, refdata):
        self.expected = refdata.EXPECTED_MAXIMAL
        self.cells = [
            (dim, Fraction(total, dim))
            for dim in range(3, 10)
            for total in range(dim, 2 * dim + 1)
            if (dim, Fraction(total, dim)) not in SLOW_CELLS
        ]
        self.checked_certificates = False

    def warm_up(self) -> None:
        tc.maximal_elements(Fraction(5, 3), 3)

    def round(self, rec: Recorder) -> None:
        first_round = not self.checked_certificates
        for dim, alpha in self.cells:
            idx, got = rec.run(tc.maximal_elements, alpha, dim)
            if got is FAILED:
                continue
            problem = cell_problem(dim, alpha, got, self.expected[dim, str(alpha)])
            if problem:
                rec.fail(idx, problem)
            if first_round:
                self._check_certificates(rec, idx, got, dim)
        self.checked_certificates = True

    @staticmethod
    def _check_certificates(rec: Recorder, idx: int, got, dim: int) -> None:
        """Every element of the cell gets a certificate from
        ``decide(..., certificate=True)`` that the independent validator
        accepts (first round only, outside the op's timing)."""
        for ranks in got:
            tight, cert = tc.decide(ranks, dim, certificate=True)
            problem = "not tight" if not tight else certificate_problem(cert, ranks, dim)
            if problem:
                rec.fail(idx, f"{ranks} in dim {dim}: {problem}")


def certificate_problem(cert, ranks, dim) -> str | None:
    if cert is None:
        return "no certificate"
    if cert.dim != dim or tuple(cert.ranks) != tuple(ranks):
        return f"certificate is for {cert.ranks} in dim {cert.dim}"
    violated = config_violation(cert.dim, cert.ranks, cert.entries)
    return f"certificate breaks property {violated}" if violated else None


# every (ranks, dim) with 3 <= dim <= 5, dim < sum(ranks) <= 2*dim, at least
# two ranks, all ranks < dim, and between 20 and 3000 certificates
DUAL_INSTANCES = [
    ((1, 1, 1, 1, 1, 1), 3),
    ((2, 1, 1, 1, 1, 1), 4),
    ((1, 1, 1, 1, 1, 1, 1), 4),
    ((3, 1, 1, 1, 1, 1), 4),
    ((2, 2, 2, 1, 1), 4),
    ((2, 2, 1, 1, 1, 1), 4),
    ((2, 1, 1, 1, 1, 1, 1), 4),
    ((1, 1, 1, 1, 1, 1, 1), 5),
    ((2, 2, 1, 1, 1, 1), 5),
    ((2, 1, 1, 1, 1, 1, 1), 5),
    ((1, 1, 1, 1, 1, 1, 1, 1), 5),
    ((3, 2, 1, 1, 1, 1), 5),
    ((3, 1, 1, 1, 1, 1, 1), 5),
    ((2, 2, 2, 2, 1), 5),
    ((2, 2, 2, 1, 1, 1), 5),
    ((2, 2, 1, 1, 1, 1, 1), 5),
    ((4, 3, 1, 1, 1), 5),
    ((4, 2, 2, 1, 1), 5),
    ((4, 2, 1, 1, 1, 1), 5),
    ((4, 1, 1, 1, 1, 1, 1), 5),
    ((3, 3, 2, 2), 5),
    ((3, 3, 2, 1, 1), 5),
    ((3, 3, 1, 1, 1, 1), 5),
    ((3, 2, 2, 2, 1), 5),
    ((3, 2, 2, 1, 1, 1), 5),
    ((3, 2, 1, 1, 1, 1, 1), 5),
    ((2, 2, 2, 2, 2), 5),
    ((2, 2, 2, 2, 1, 1), 5),
]


class Duals:
    """Per instance, one op decides it with a certificate, counts it and its
    two dual instances, and starts ``iter_configs``; then one op per
    certificate maps it through both certificate dualities and back and
    takes the next certificate.  The seed shuffles the instances."""

    name = "duals"
    tail_percentile = 99

    def __init__(self, seed: int, refdata):
        self.instances = list(DUAL_INSTANCES)
        random.Random(seed).shuffle(self.instances)

    def warm_up(self) -> None:
        state = SimpleNamespace()
        self._start(state, (1, 1, 1, 1), 3)
        while state.pending is not None:
            self._step(state)

    @staticmethod
    def _start(state, ranks, dim):
        state.tight, state.cert = tc.decide(ranks, dim, certificate=True)
        state.count = tc.count_configs(ranks, dim)
        state.spatial_count = tc.count_configs(tuple(dim - r for r in reversed(ranks)), dim)
        state.naimark_count = tc.count_configs(ranks, sum(ranks) - dim)
        state.it = tc.iter_configs(ranks, dim)
        state.pending = next(state.it, None)

    @staticmethod
    def _step(state):
        a = state.pending
        spatial = tc.config_spatial_dual(a)
        naimark = tc.config_naimark_dual(a)
        back = tc.config_spatial_dual(spatial) == a and tc.config_naimark_dual(naimark) == a
        state.pending = next(state.it, None)
        return a, spatial, naimark, back

    def round(self, rec: Recorder) -> None:
        for ranks, dim in self.instances:
            state = SimpleNamespace(pending=None)
            first, out = rec.run(self._start, state, ranks, dim)
            if out is FAILED:
                continue
            where = f"{ranks} in dim {dim}"
            if not state.tight:
                rec.fail(first, f"{where}: decided not tight")
            problem = certificate_problem(state.cert, ranks, dim)
            if problem:
                rec.fail(first, f"{where}: decide's {problem}")
            if not state.count == state.spatial_count == state.naimark_count:
                rec.fail(first, f"{where}: counts {state.count}, {state.spatial_count}, {state.naimark_count}")
            shapes = ((ranks, dim), (tuple(dim - r for r in reversed(ranks)), dim),
                      (ranks, sum(ranks) - dim))
            originals, spatials, naimarks = set(), set(), set()
            while state.pending is not None:
                idx, out = rec.run(self._step, state)
                if out is FAILED:
                    break
                a, spatial, naimark, back = out
                if not back:
                    rec.fail(idx, f"{where}: a round trip does not return its certificate")
                for cert, shape in zip((a, spatial, naimark), shapes):
                    problem = certificate_problem(cert, *shape)
                    if problem:
                        rec.fail(idx, f"{where}: {problem}")
                # hashes keep the benchmark's own memory small; a collision
                # can only make a count come out short, never hide a repeat
                originals.add(hash(a.entries))
                spatials.add(hash(spatial.entries))
                naimarks.add(hash(naimark.entries))
            if not len(originals) == len(spatials) == len(naimarks) == state.count:
                rec.fail(first, f"{where}: {len(originals)} certificates, {len(spatials)} and"
                         f" {len(naimarks)} distinct images, count_configs {state.count}")


# maximal tight sequences of dim 2 (the reference tables start at dim 3):
# (2,1) is not tight because peeling the full rank leaves rank 1 below dim 2
DIM2_MAXIMAL = {(2, "3/2"): [(1, 1, 1)], (2, "2"): [(2, 2)]}


def partitions(total: int, largest: int):
    """Partitions of ``total`` into parts at most ``largest``, descending
    lexicographic order."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def realize_inputs(refdata) -> list[tuple[tuple[int, ...], int]]:
    """Every tight sequence with 2 <= dim <= 6 and 1 < alpha <= 2 (the
    partitions below a maximal element of the reference table), then the
    maximal sequences of dims 7 and 8 with 1 < alpha < 2."""
    tables = {**DIM2_MAXIMAL, **refdata.EXPECTED_MAXIMAL}
    seqs = []
    for dim in range(2, 7):
        for total in range(dim + 1, 2 * dim + 1):
            tops = tables[dim, str(Fraction(total, dim))]
            seqs += [
                (p, dim) for p in partitions(total, dim)
                if any(dominated_by(p, top) for top in tops)
            ]
    for dim in (7, 8):
        for total in range(dim + 1, 2 * dim):
            seqs += [(tuple(p), dim) for p in tables[dim, str(Fraction(total, dim))]]
    return seqs


class Realize:
    """One op is ``realize_tff`` then ``verify_tff`` on one tight sequence.

    The realizer seed of a sequence is its index in ``realize_inputs``, the
    same in every run and round; the workload seed shuffles the order."""

    name = "realize"
    tail_percentile = 90

    def __init__(self, seed: int, refdata):
        self.ops = [(ranks, dim, index) for index, (ranks, dim) in enumerate(realize_inputs(refdata))]
        random.Random(seed).shuffle(self.ops)

    def warm_up(self) -> None:
        self._op((1, 1, 1), 2, 0)

    @staticmethod
    def _op(ranks, dim, realizer_seed):
        frame = tc.realize_tff(ranks, dim, seed=realizer_seed)
        return frame, tc.verify_tff(frame, alpha=Fraction(sum(ranks), dim))

    def round(self, rec: Recorder) -> None:
        for ranks, dim, realizer_seed in self.ops:
            idx, out = rec.run(self._op, ranks, dim, realizer_seed)
            if out is FAILED:
                continue
            frame, report = out
            problem = None if report.passed else "verify_tff does not pass it"
            problem = problem or frame_problem(frame.blocks, ranks, dim)
            if problem:
                rec.fail(idx, f"{ranks} in dim {dim}, seed {realizer_seed}: {problem}")


WORKLOADS = {cls.name: cls for cls in (Catalog, Duals, Realize)}
