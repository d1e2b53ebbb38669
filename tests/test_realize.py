import json
from fractions import Fraction

import numpy as np
import pytest

from oracles import reference_realize
from refdata import (
    CERT_6x11_RANKS_42221,
    REFERENCE_BASIS_6x11,
    REFERENCE_BASIS_RANKS,
    SPECTRA_42221,
)
from tffcomb import (
    ProjectionSet,
    enumerate_tff,
    realize_tff,
    spectrum_chain,
    two_projection_sum,
    validate_multiplicity,
    verify_tff,
)
from tffcomb.errors import (
    ConvergenceFailure,
    InvalidMultiplicity,
    InvalidParameter,
    MalformedInput,
    NotATFFSequence,
)


def grid_eigenvalues(max_den):
    """Reduced rationals strictly between 1 and 2 with small denominators."""
    vals = set()
    for den in range(2, max_den + 1):
        for num in range(den + 1, 2 * den):
            vals.add(Fraction(num, den))
    return sorted(vals)


def multisets(values, size):
    if size == 0:
        yield ()
        return
    for i, v in enumerate(values):
        for rest in multisets(values[i:], size - 1):
            yield (v,) + rest


def valid_multiplicity_functions(p, q, dim, eigs):
    """All spectrum multiplicity functions for ranks (p, q) in ``dim``
    whose paired eigenvalues come from ``eigs``."""
    low = max(0, p + q - dim)
    for shared in range(low, min(p, q) + 1):          # m(2)
        for npairs in range(0, min(p, q) - shared + 1):
            ones = p + q - 2 * shared - 2 * npairs     # m(1)
            zeros = dim - p - q + shared               # m(0)
            if ones < 0 or zeros < 0:
                continue
            for chosen in multisets(eigs, npairs):
                m = {}
                if shared:
                    m[Fraction(2)] = shared
                if zeros:
                    m[Fraction(0)] = zeros
                if ones:
                    m[Fraction(1)] = ones
                for lam in chosen:
                    m[lam] = m.get(lam, 0) + 1
                    m[2 - lam] = m.get(2 - lam, 0) + 1
                yield m


def reference_projection_set():
    cols = np.array(REFERENCE_BASIS_6x11, dtype=float)
    blocks = []
    start = 0
    for rank in REFERENCE_BASIS_RANKS:
        blocks.append(cols[:, start:start + rank])
        start += rank
    return ProjectionSet(dim=6, blocks=tuple(blocks))


class TestValidateMultiplicity:
    def test_single_projection(self):
        assert validate_multiplicity(3, 0, 5, {1: 3, 0: 2})

    def test_tilted_pair(self):
        m = {Fraction(3, 2): 1, Fraction(1, 2): 1}
        assert validate_multiplicity(1, 1, 2, m)

    def test_forced_ones_violation(self):
        assert not validate_multiplicity(2, 1, 3, {Fraction(3, 2): 1, Fraction(1, 2): 1, 0: 1})

    def test_wrong_total(self):
        assert not validate_multiplicity(1, 1, 3, {1: 2})

    def test_asymmetric_pair(self):
        assert not validate_multiplicity(1, 1, 2, {Fraction(3, 2): 1, Fraction(1, 3): 1})

    def test_support_outside_range(self):
        assert not validate_multiplicity(2, 2, 2, {Fraction(5, 2): 1, 1: 1})

    def test_zero_minus_two_balance(self):
        assert not validate_multiplicity(2, 2, 4, {2: 1, 1: 1, 0: 2})
        assert validate_multiplicity(2, 2, 4, {2: 2, 0: 2})


class TestTwoProjectionSum:
    def test_tilted_pair_spectrum(self):
        m = {Fraction(3, 2): 1, Fraction(1, 2): 1}
        P, Q = two_projection_sum(1, 1, 2, m)
        eig = np.sort(np.linalg.eigvalsh(P + Q))
        assert np.allclose(eig, [0.5, 1.5], atol=1e-12)

    def test_zero_rank_second(self):
        P, Q = two_projection_sum(2, 0, 4, {1: 2, 0: 2})
        assert np.allclose(Q, 0)
        eig = np.sort(np.linalg.eigvalsh(P + Q))
        assert np.allclose(eig, [0, 0, 1, 1], atol=1e-12)

    def test_orthogonal_lines_double_one(self):
        P, Q = two_projection_sum(1, 1, 2, {1: 2})
        eig = np.linalg.eigvalsh(P + Q)
        assert np.allclose(eig, [1, 1], atol=1e-12)

    def test_invalid_raises(self):
        with pytest.raises(InvalidMultiplicity):
            two_projection_sum(2, 1, 3, {1: 0, 2: 1, 0: 1, Fraction(3, 2): 1})

    def _spectrum_from(self, m, dim):
        out = []
        for lam, mult in m.items():
            out.extend([float(lam)] * mult)
        return np.sort(np.array(out))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_exhaustive_small_grid(self, dim):
        eigs = grid_eigenvalues(6)
        for p in range(dim + 1):
            for q in range(p + 1):
                for m in valid_multiplicity_functions(p, q, dim, eigs):
                    assert validate_multiplicity(p, q, dim, m)
                    P, Q = two_projection_sum(p, q, dim, m)
                    assert np.allclose(P @ P, P, atol=1e-12)
                    assert np.allclose(Q @ Q, Q, atol=1e-12)
                    assert round(np.trace(P)) == p
                    assert round(np.trace(Q)) == q
                    eig = np.sort(np.linalg.eigvalsh(P + Q))
                    assert np.max(np.abs(eig - self._spectrum_from(m, dim))) <= 1e-10

    def test_random_pairs_satisfy_necessary_conditions(self):
        rng = np.random.default_rng(12345)
        tol = 1e-8
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            p = int(rng.integers(0, dim + 1))
            q = int(rng.integers(0, dim + 1))
            P = _random_projection(rng, dim, p)
            Q = _random_projection(rng, dim, q)
            eig = np.sort(np.linalg.eigvalsh(P + Q))
            assert eig[0] >= -tol and eig[-1] <= 2 + tol
            assert len(eig) == dim
            ones = np.sum(np.abs(eig - 1) <= tol)
            assert ones >= abs(p - q)
            zeros = np.sum(np.abs(eig) <= tol)
            twos = np.sum(np.abs(eig - 2) <= tol)
            assert zeros - twos == dim - p - q
            interior = eig[(eig > tol) & (eig < 2 - tol)]
            assert np.max(np.abs(interior + interior[::-1] - 2), initial=0.0) <= tol


def _random_projection(rng, dim, rank):
    if rank == 0:
        return np.zeros((dim, dim))
    mat = rng.standard_normal((dim, rank))
    qmat, _ = np.linalg.qr(mat)
    return qmat @ qmat.T


class TestSpectrumChain:
    def test_reference_chain_42221(self):
        assert spectrum_chain(CERT_6x11_RANKS_42221) == SPECTRA_42221

    def test_first_level_is_indicator(self):
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        assert chain[0] == (1, 1, 1, 1, 0, 0)

    def test_row_sums_are_prefix_ranks(self):
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        sigma = 0
        for level, width in zip(chain, CERT_6x11_RANKS_42221.ranks):
            sigma += width
            assert sum(level) == sigma

    def test_last_level_constant(self):
        chain = spectrum_chain(CERT_6x11_RANKS_42221)
        assert set(chain[-1]) == {Fraction(11, 6)}


class TestRealize:
    def test_single_full_projection_exact(self):
        ps = realize_tff((4,), 4, seed=1, tol=0.0, max_restarts=1)
        assert verify_tff(ps, tol=1e-15).passed

    def test_unit_norm_frame(self):
        ps = realize_tff((1, 1, 1), 2, seed=3)
        rep = verify_tff(ps, tol=1e-8)
        assert rep.passed and rep.block_ranks == (1, 1, 1)

    def test_not_tight_rejected(self):
        with pytest.raises(NotATFFSequence):
            realize_tff((3, 3), 5, seed=0)

    @pytest.mark.parametrize(
        "options",
        [{"max_restarts": 0}, {"max_restarts": -3}, {"tol": -1e-9},
         {"tol": float("nan")}, {"seed": -1}, {"seed": 1.5},
         {"max_restarts": 1.5}],
    )
    def test_bad_parameters_rejected(self, options):
        with pytest.raises(InvalidParameter):
            realize_tff((2, 2, 2), 4, **{"seed": 0, **options})

    @pytest.mark.parametrize(
        "options, name",
        [({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
         ({"seed": 0, "max_restarts": 1.5}, "max_restarts")],
    )
    def test_bad_parameter_named_before_precheck(self, options, name):
        # (3, 3) in dimension 5 is not tight: the parameter check comes first
        with pytest.raises(InvalidParameter, match=name):
            realize_tff((3, 3), 5, **options)

    def test_deterministic_for_seed(self):
        a = realize_tff((2, 2, 2), 4, seed=11)
        b = realize_tff((2, 2, 2), 4, seed=11)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_verifier_passes_its_output(self):
        ps = realize_tff((3, 2, 2, 2), 4, seed=2, tol=1e-9)
        assert verify_tff(ps, tol=1e-9).passed


SMALL_TIGHT = [
    (ranks, dim)
    for dim in range(2, 6)
    for num in range(dim + 1, 2 * dim + 1)
    for ranks in enumerate_tff(Fraction(num, dim), dim)
]


def _realize_or_failure(realizer, ranks, dim, seed):
    try:
        return realizer(ranks, dim, seed)
    except ConvergenceFailure as exc:
        return str(exc)


class TestStackedKernel:
    def test_agrees_with_per_block_loop(self):
        # every tight sequence with dim <= 5 and 1 < alpha <= 2, seeded by
        # its index: the stacked eigendecomposition gives the frames of the
        # per-block loop, and both fail to converge together
        assert len(SMALL_TIGHT) == 90
        for seed, (ranks, dim) in enumerate(SMALL_TIGHT):
            got = _realize_or_failure(realize_tff, ranks, dim, seed)
            want = _realize_or_failure(reference_realize, ranks, dim, seed)
            assert type(got) is type(want), (ranks, dim, got, want)
            if isinstance(want, str):
                continue
            assert got.ranks == want.ranks == ranks
            for x, y in zip(got.blocks, want.blocks):
                assert np.allclose(x, y, atol=1e-10), (ranks, dim)
            assert verify_tff(got, tol=1e-8).passed, (ranks, dim)


class TestVerify:
    @pytest.mark.parametrize("tol", [-1.0, -1e-9, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidParameter):
            verify_tff(reference_projection_set(), tol=tol)

    def test_reference_basis_passes(self):
        rep = verify_tff(reference_projection_set(), alpha=Fraction(11, 6), tol=1e-8)
        assert rep.passed
        assert rep.block_ranks == REFERENCE_BASIS_RANKS

    def test_perturbation_fails(self):
        ps = reference_projection_set()
        blocks = list(ps.blocks)
        bad = blocks[1].copy()
        bad[0, 0] += 1e-3
        blocks[1] = bad
        perturbed = ProjectionSet(dim=6, blocks=tuple(blocks))
        rep = verify_tff(perturbed, alpha=Fraction(11, 6), tol=1e-8)
        assert not rep.passed
        assert rep.sum_residual >= 1e-4

    def test_wrong_alpha_fails(self):
        rep = verify_tff(reference_projection_set(), alpha=2, tol=1e-8)
        assert not rep.passed


class TestSerialization:
    def test_json_round_trip(self):
        ps = realize_tff((2, 1, 1, 1), 3, seed=4)
        data = json.loads(json.dumps(ps.to_json_dict()))
        back = ProjectionSet.from_json_dict(data)
        assert back.dim == ps.dim and back.ranks == ps.ranks
        for x, y in zip(ps.blocks, back.blocks):
            assert np.allclose(x, y)
        assert verify_tff(back, tol=1e-6).passed

    def test_malformed_basis_is_typed_error(self):
        # an object in place of a number must not reach numpy's float cast
        data = {"dim": 2, "blocks": [{"rank": 1, "basis": [[{}, 0]]}]}
        with pytest.raises(MalformedInput, match="ProjectionSet"):
            ProjectionSet.from_json_dict(data)

    def test_csv_shape(self):
        ps = reference_projection_set()
        lines = ps.to_csv().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 11 for line in lines)
