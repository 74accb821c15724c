import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnlight import observables
from cnlight.analytic_core import evolve_ground_analytic
from cnlight.dynamics import (
    CONSTANT_SCHEDULE,
    CouplingSchedule,
    SystemState,
    ground_product_state,
    integrate,
    make_superposition,
)
from cnlight.errors import ValidationError
from cnlight.hilbert import AtomicConfig, Kind, build_sector_basis
from cnlight.observables import (
    FieldDensityMatrix,
    HusimiGrid,
    SymmetryReport,
    detect_cyclic_symmetry,
    husimi,
    husimi_two_fock,
    husimi_values,
    linear_entropies,
    linear_entropy,
    photon_probabilities,
    photon_weights,
    pure_field,
    reduce_field,
    reduce_field_blocks,
    reduce_fields,
)

REF = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0))


def fock_projector(nu, nu_max):
    rho = np.zeros((nu_max + 1, nu_max + 1), dtype=complex)
    rho[nu, nu] = 1.0
    return FieldDensityMatrix(rho=rho)


def pure_rho(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return FieldDensityMatrix(rho=np.outer(vec, vec.conj()))


# ---------------------------------------------------------------------------
# density-matrix container


class TestFieldDensityMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            FieldDensityMatrix(rho=np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            FieldDensityMatrix(rho=bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            FieldDensityMatrix(rho=0.7 * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # NaN passes both tolerance comparisons, so it needs its own check
        diagonal = np.diag([bad, 1.0]).astype(complex)
        off_diagonal = np.array([[0.5, bad], [np.conj(bad), 0.5]], dtype=complex)
        for rho in (diagonal, off_diagonal):
            with pytest.raises(ValidationError, match="non-finite"):
                FieldDensityMatrix(rho=rho)

    def test_properties(self):
        rho = fock_projector(2, 4)
        assert rho.nu_max == 4
        assert rho.trace == pytest.approx(1.0)
        assert rho.min_eigenvalue() == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# field reduction


class TestReduceField:
    def test_pure_fock(self):
        rho = reduce_field(ground_product_state(REF, 3))
        want = np.zeros((4, 4), dtype=complex)
        want[3, 3] = 1.0
        assert np.allclose(rho.rho, want, atol=1e-15)

    def test_state_without_sectors_is_refused(self):
        with pytest.raises(ValidationError, match="no sectors"):
            reduce_field(SystemState(sectors={}))

    def test_evolved_ground_is_diagonal(self):
        # the three exit channels ride orthogonal atom levels, so every
        # field coherence dies in the trace
        tau = 1.3
        traj = integrate(
            ground_product_state(REF, 3), REF, CONSTANT_SCHEDULE, tau, n_snapshots=1
        )
        rho = reduce_field(traj.state(-1))
        u13, u23, u33 = evolve_ground_analytic(REF, 3, tau)
        probs = photon_probabilities(rho)
        assert probs[1] == pytest.approx(abs(u13) ** 2, abs=1e-9)
        assert probs[2] == pytest.approx(abs(u23) ** 2, abs=1e-9)
        assert probs[3] == pytest.approx(abs(u33) ** 2, abs=1e-9)
        off = rho.rho - np.diag(np.diag(rho.rho))
        assert np.max(np.abs(off)) < 1e-12

    def test_two_sector_cat_keeps_one_stripe(self):
        theta, xi = 0.7, 0.4
        rho = reduce_field(make_superposition(1, 3, theta, xi, 1, REF))
        c = rho.rho[3, 1]
        assert abs(c) == pytest.approx(abs(math.cos(theta) * math.sin(theta)))
        # the only off-diagonal support is the (1, 3) pair
        mask = np.ones((4, 4), dtype=bool)
        for i, j in [(1, 1), (3, 3), (1, 3), (3, 1)]:
            mask[i, j] = False
        assert np.max(np.abs(rho.rho[mask])) == 0.0

    def test_reduction_is_positive(self):
        state = make_superposition(2, 7, 0.9, 1.8, 1, REF)
        traj = integrate(state, REF, CONSTANT_SCHEDULE, 2.0, n_snapshots=4)
        for snap in map(traj.state, range(len(traj.times))):
            assert reduce_field(snap).min_eigenvalue() > -1e-12


_COUPLINGS = {
    Kind.XI: ("mu12", "mu23"),
    Kind.V: ("mu12", "mu13"),
    Kind.LAMBDA: ("mu13", "mu23"),
}


def random_multi_sector_state(kind, na, ms, seed):
    """Normalised random amplitudes on the sectors ``ms``."""
    rng = np.random.default_rng(seed)
    cfg = AtomicConfig(kind=kind, **{mu: 1.0 for mu in _COUPLINGS[kind]})
    sectors = {}
    for m in ms:
        basis = build_sector_basis(cfg, na, m)
        n = len(basis)
        sectors[m] = (basis, rng.normal(size=n) + 1j * rng.normal(size=n))
    norm = math.sqrt(sum(np.sum(np.abs(a) ** 2) for _, a in sectors.values()))
    return SystemState(sectors={m: (b, a / norm) for m, (b, a) in sectors.items()})


class TestReduceFieldProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 4),
        ms=st.sets(st.integers(0, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_is_a_density_matrix(self, kind, na, ms, seed):
        state = random_multi_sector_state(kind, na, sorted(ms), seed)
        rho = reduce_field(state).rho
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(rho).imag) < 1e-14
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


class TestPhotonWeights:
    """P(nu) off the amplitudes against the diagonal of the reduced field."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 3),
        ms=st.sets(st.integers(0, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_match_the_reduced_field(self, kind, na, ms, seed):
        state = random_multi_sector_state(kind, na, sorted(ms), seed)
        got = photon_weights(state)
        want = photon_probabilities(reduce_field(state))
        assert got.shape == want.shape == (max(ms) + 1,)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_evolved_states_match_the_reduced_field(self):
        cfg = AtomicConfig(kind=Kind.V, mu12=0.9, mu13=1.2, delta12=0.1,
                           delta13=-0.05)
        state = make_superposition(1, 4, 0.6, 0.3, 3, cfg)
        traj = integrate(state, cfg, CouplingSchedule(mode="bump", t_tof=3.0),
                         3.0, n_snapshots=6)
        for snap in map(traj.state, range(len(traj.times))):
            want = photon_probabilities(reduce_field(snap))
            assert np.max(np.abs(photon_weights(snap) - want)) <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0])
    def test_refuses_what_the_reduced_field_refuses(self, bad):
        basis, amps = ground_product_state(REF, 3).sectors[3]
        amps = amps.copy()
        amps[basis.index(1, 1)] = bad
        state = SystemState(sectors={3: (basis, amps)})
        with pytest.raises(ValidationError):
            reduce_field(state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="photon weights"):
                photon_weights(state)


def reduce_field_by_dicts(state):
    """Matter labels traced out by a dict per sector and a pair loop: the
    reduction written out entry by entry, kept as the oracle."""
    nu_max = max(state.sectors)
    rho = np.zeros((nu_max + 1, nu_max + 1), dtype=complex)
    # per sector: matter label -> (photon number, amplitude)
    tagged = []
    for _, (basis, amps) in sorted(state.sectors.items()):
        tagged.append({
            (s.q, s.r): (s.nu, amps[i]) for i, s in enumerate(basis.states)
        })
    for d1 in tagged:
        for d2 in tagged:
            for qr, (nu1, a1) in d1.items():
                hit = d2.get(qr)
                if hit is not None:
                    nu2, a2 = hit
                    rho[nu1, nu2] += a1 * np.conj(a2)
    return rho


# the stacked reduction sums the same products in the same order, but a
# vectorised complex product may round differently from a scalar one
STACK_ATOL = 1e-15


class TestReduceFields:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 3),
        ms=st.sets(st.integers(0, 6), min_size=1, max_size=4),
        detuned=st.booleans(),
        mode=st.sampled_from(["constant", "bump"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_pair_loop(self, kind, na, ms, detuned, mode, seed):
        state = random_multi_sector_state(kind, na, sorted(ms), seed)
        couplings = {mu: 0.8 + 0.1 * k for k, mu in enumerate(_COUPLINGS[kind])}
        # each coupling's transition, detuned by a few per cent
        deltas = {
            "delta" + mu[2:]: (0.07 - 0.11 * k if detuned else 0.0)
            for k, mu in enumerate(_COUPLINGS[kind])
        }
        cfg = AtomicConfig(kind=kind, **couplings, **deltas)
        schedule = CouplingSchedule(mode=mode, t_tof=2.5 if mode == "bump" else 0.0)
        traj = integrate(state, cfg, schedule, 2.5, tol=1e-8, n_snapshots=12)

        rhos = reduce_fields(traj)
        entropies = linear_entropies(rhos)
        assert rhos.shape == (len(traj.times), max(ms) + 1, max(ms) + 1)
        for k, (rho, s_l) in enumerate(zip(rhos, entropies)):
            snap = traj.state(k)
            want = reduce_field_by_dicts(snap)
            assert np.max(np.abs(rho - want)) <= STACK_ATOL
            assert abs(s_l - (1.0 - np.sum(np.abs(want) ** 2))) <= STACK_ATOL
            # reduce_field is the one-state case of the same code, bit for bit
            one = reduce_field(snap)
            assert np.max(np.abs(one.rho - want)) <= STACK_ATOL
            assert np.array_equal(one.rho, rho)
            assert np.max(np.abs(
                photon_probabilities(one) - np.real(np.diag(want))
            )) <= STACK_ATOL
            assert abs(linear_entropy(one) - s_l) <= STACK_ATOL

    def trajectory(self):
        state = make_superposition(1, 3, 0.7, 0.4, 2, REF)
        return integrate(state, REF, CONSTANT_SCHEDULE, 1.0, n_snapshots=5)

    def test_one_state_with_a_wrong_trace_fails_the_stack(self):
        traj = self.trajectory()
        amps = traj.amplitudes.copy()
        amps[3] *= 1.1
        with pytest.raises(ValidationError, match="rho 3 trace"):
            reduce_fields(dataclasses.replace(traj, amplitudes=amps))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_non_finite_state_fails_the_stack(self, bad):
        traj = self.trajectory()
        amps = traj.amplitudes.copy()
        amps[2, 0] = bad
        bad_traj = dataclasses.replace(traj, amplitudes=amps)
        with pytest.raises(ValidationError, match="state 2 has a non-finite"):
            reduce_fields(bad_traj)
        with pytest.raises(ValidationError, match="non-finite"):
            reduce_field(bad_traj.state(2))

    @pytest.mark.parametrize("entries", [1, 16, 2 * 16, 3 * 16 + 5, 10**6])
    def test_blocks_are_the_stack_bit_for_bit(self, entries, monkeypatch):
        traj = self.trajectory()   # nu_max 3: 16 entries per rho
        whole = reduce_fields(traj)
        monkeypatch.setattr(observables, "BLOCK_ENTRIES", entries)
        blocks = list(reduce_field_blocks(traj))
        rows = max(1, entries // 16)
        assert [first for first, _ in blocks] == list(range(0, len(whole), rows))
        assert all(rhos.size <= max(entries, 16) for _, rhos in blocks)
        assert np.array_equal(np.concatenate([r for _, r in blocks]), whole)

    def test_blocks_name_a_bad_row_by_its_index_in_the_trajectory(
        self, monkeypatch
    ):
        monkeypatch.setattr(observables, "BLOCK_ENTRIES", 32)   # 2 rows each
        traj = self.trajectory()
        amps = traj.amplitudes.copy()
        amps[3] *= 1.1
        with pytest.raises(ValidationError, match="rho 3 trace"):
            list(reduce_field_blocks(dataclasses.replace(traj, amplitudes=amps)))
        amps[3] = traj.amplitudes[3]
        amps[2, 0] = np.nan
        with pytest.raises(ValidationError, match="state 2 has a non-finite"):
            list(reduce_field_blocks(dataclasses.replace(traj, amplitudes=amps)))

    @pytest.mark.parametrize("entry, shift, message", [
        ((1, 3), 1e-6, "is not Hermitian"),
        ((0, 0), 0.1, "trace"),
        ((0, 0), np.nan, "has a non-finite entry"),
    ], ids=["non-hermitian", "wrong-trace", "non-finite"])
    def test_one_bad_row_fails_the_stack_checks(self, entry, shift, message):
        # a reduction is Hermitian by construction, so the checks are fed a
        # corrupted stack directly
        rhos = reduce_fields(self.trajectory())
        observables._check_rhos(rhos)
        rhos[(4,) + entry] += shift
        with pytest.raises(ValidationError, match=f"rho 4 {message}"):
            observables._check_rhos(rhos)


@pytest.mark.parametrize("amplitudes", [
    {3: 1.0, -1: 1.0},
    {-2: 1.0},
    {},
    {2: 0.0},
    {0: 0.0, 4: 0j},
    {2: math.nan},
    {1: 1.0, 2: math.inf},
    {1: complex(0.0, math.nan)},
], ids=["negative", "only-negative", "empty", "zero", "all-zero", "nan", "inf",
        "complex-nan"])
def test_pure_field_refuses_bad_amplitudes(amplitudes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            pure_field(amplitudes)


def test_pure_field_normalises():
    rho = pure_field({1: 3.0, 4: 4j}).rho
    assert rho[1, 1] == pytest.approx(0.36)
    assert rho[4, 4] == pytest.approx(0.64)
    assert rho[1, 4] == pytest.approx(3.0 * -4j / 25.0)


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert linear_entropy(fock_projector(0, 0)) == pytest.approx(0.0, abs=1e-15)
        assert linear_entropy(pure_rho([1.0, 0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_single_atom_bound(self):
        # rank <= 3 reduction: purity >= 1/3
        for tau in (0.5, 1.1, 2.9, 4.2):
            traj = integrate(
                ground_product_state(REF, 4), REF, CONSTANT_SCHEDULE, tau,
                n_snapshots=1,
            )
            s = linear_entropy(reduce_field(traj.state(-1)))
            assert -1e-12 <= s <= 2.0 / 3.0 + 1e-12

    def test_matches_eigenvalue_form(self):
        traj = integrate(
            ground_product_state(REF, 5), REF, CONSTANT_SCHEDULE, 1.7, n_snapshots=1
        )
        rho = reduce_field(traj.state(-1))
        lam = np.linalg.eigvalsh(rho.rho)
        assert linear_entropy(rho) == pytest.approx(1.0 - np.sum(lam**2), abs=1e-13)

    def test_probabilities_sum_to_trace(self):
        rho = reduce_field(make_superposition(0, 4, 0.3, 0.0, 1, REF))
        assert np.sum(photon_probabilities(rho)) == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# Husimi function


class TestHusimi:
    def test_vacuum_gaussian(self):
        grid = husimi(fock_projector(0, 0), grid=((-4, 4, 81), (-4, 4, 81)))
        qm, pm = np.meshgrid(grid.q_values, grid.p_values)
        want = np.exp(-(qm**2 + pm**2) / 2.0) / math.pi
        assert np.max(np.abs(grid.values - want)) < 1e-14
        assert np.max(grid.values) == pytest.approx(1.0 / math.pi)

    def test_default_grid_normalization(self):
        for state in (
            make_superposition(2, 7, math.pi / 4, 0.0, 1, REF),
            make_superposition(1, 3, 0.9, 2.1, 1, REF),
        ):
            grid = husimi(reduce_field(state))
            assert grid.normalization() == pytest.approx(1.0, abs=1e-3)

    def test_fock_ring_radius(self):
        # Q of |nu> peaks on the circle |alpha|^2 = nu
        rho = fock_projector(3, 3)
        rad = np.linspace(0.01, 5.0, 500)
        q = husimi_values(rho, rad, np.zeros_like(rad))
        assert rad[np.argmax(q)] ** 2 == pytest.approx(3.0, abs=0.05)

    def test_polar_values_match_grid(self):
        rho = reduce_field(make_superposition(1, 4, 0.6, 0.5, 1, REF))
        grid = husimi(rho, grid=((-3, 3, 61), (-3, 3, 61)))
        alpha = (grid.q_values[45] + 1j * grid.p_values[10]) / math.sqrt(2.0)
        val = husimi_values(rho, np.abs(alpha), np.angle(alpha))
        assert val[0] == pytest.approx(grid.values[10, 45], abs=1e-14)

    def test_validation(self):
        rho = fock_projector(0, 1)
        with pytest.raises(ValidationError):
            husimi(rho, grid=((-1, 1, 1), (-1, 1, 5)))
        with pytest.raises(ValidationError):
            husimi_values(rho, [1.0, 2.0], [0.0])
        with pytest.raises(ValidationError):
            husimi_values(rho, -0.5, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            husimi_values(rho, [math.nan, math.inf, 1.0], [0.0, 0.0, math.inf])
        with pytest.raises(ValidationError, match="finite"):
            husimi(rho, ((-math.inf, 1, 3), (0, 1, 2)))

    def test_overlap_table_is_capped_at_its_bound(self, monkeypatch):
        # the default grid stays open up to 100 photons
        assert 241 * 241 * 101 <= observables.MAX_OVERLAPS
        # 4 points of a rho on 0..2 need 4 x 3 overlaps
        monkeypatch.setattr(observables, "MAX_OVERLAPS", 12)
        rad, ang = np.linspace(0.0, 1.0, 4), np.zeros(4)
        assert husimi_values(fock_projector(2, 2), rad, ang).shape == (4,)
        with pytest.raises(ValidationError, match="more than 12"):
            husimi_values(fock_projector(3, 3), rad, ang)


def husimi_by_einsum(rho, rad, ang):
    """Q from a (point, nu) overlap table, log-domain magnitudes times
    exp(i nu phi), contracted with rho in one three-operand einsum: the
    formula the stripe kernel replaced, kept as the oracle."""
    nu = np.arange(rho.shape[0])
    lg = np.array([math.lgamma(n + 1) for n in nu])
    log_r = np.log(rad, out=np.zeros_like(rad), where=rad > 0.0)
    log_mag = nu[None, :] * log_r[:, None] - 0.5 * lg[None, :] - 0.5 * rad[:, None] ** 2
    c = np.exp(log_mag) * np.exp(1j * nu[None, :] * ang[:, None])
    c[rad == 0.0, :] = 0.0
    c[rad == 0.0, 0] = 1.0
    return np.einsum("gi,ij,gj->g", c.conj(), rho, c).real / math.pi


polar_points = st.lists(
    st.tuples(st.floats(0.0, 40.0), st.floats(-10.0, 10.0)), min_size=1, max_size=40
)


class TestHusimiKernel:
    """The stripe contraction against the dense einsum over the whole table."""

    @staticmethod
    def check(rho, points):
        # the origin is always among the points
        rad = np.array([0.0] + [r for r, _ in points])
        ang = np.array([0.3] + [a for _, a in points])
        got = husimi_values(rho, rad, ang)
        want = husimi_by_einsum(rho.rho, rad, ang)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert got.min() >= -1e-15
        assert got[0] == rho.rho[0, 0].real / math.pi

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 15), seed=st.integers(0, 2**16), points=polar_points)
    def test_dense_rho_matches_the_einsum(self, dim, seed, points):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho = FieldDensityMatrix(rho=rho / np.trace(rho).real)
        assert all(np.diagonal(rho.rho, k).all() for k in range(dim))
        self.check(rho, points)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 3),
        ms=st.sets(st.integers(0, 6), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        points=polar_points,
    )
    def test_striped_rho_matches_the_einsum(self, kind, na, ms, seed, points):
        state = random_multi_sector_state(kind, na, sorted(ms), seed)
        self.check(reduce_field(state), points)


def drawn_rho(shape, dim, seed):
    """A dense, two-stripe (a pure state on two photon numbers) or diagonal
    rho on 0..dim - 1, dim >= 2."""
    rng = np.random.default_rng(seed)
    if shape == "diagonal":
        rho = np.diag(rng.random(dim) + 0.01).astype(complex)
    elif shape == "dense":
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
    else:
        vec = np.zeros(dim, dtype=complex)
        vec[rng.choice(dim, 2, replace=False)] = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(vec, vec.conj())
    return FieldDensityMatrix(rho=rho / np.trace(rho).real)


class TestHusimiBatch:
    """A batch of fields against lone calls, one field at a time."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 12),
        shapes=st.lists(
            st.sampled_from(["dense", "two-stripe", "diagonal"]), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**16),
        points=polar_points,
    )
    def test_a_batch_equals_lone_calls(self, dim, shapes, seed, points):
        fields = [drawn_rho(shape, dim, seed + k) for k, shape in enumerate(shapes)]
        rad = np.array([0.0] + [r for r, _ in points])
        ang = np.array([0.3] + [a for _, a in points])
        got = husimi_values(fields, rad, ang)
        assert got.shape == (len(fields), len(rad))
        for q, field in zip(got, fields, strict=True):
            assert np.array_equal(q, husimi_values(field, rad, ang))

    def test_a_batch_of_one_equals_a_lone_call(self):
        rho = reduce_field(make_superposition(1, 4, 0.6, 0.5, 1, REF))
        grid = ((-3, 3, 31), (-2, 2, 17))
        lone = husimi(rho, grid)
        batch = husimi((rho,), grid)
        assert lone.values.shape == (17, 31)
        assert batch.values.shape == (1, 17, 31)
        assert np.array_equal(batch.values[0], lone.values)

    def test_normalization_is_per_frame(self):
        fields = [fock_projector(0, 4), fock_projector(4, 4),
                  pure_rho([1.0, 0.0, 0.0, 1.0, 0.0])]
        grid = ((-2, 2, 21), (-2, 2, 21))
        sums = husimi(fields, grid).normalization()
        assert sums.shape == (3,)
        lone = [husimi(f, grid).normalization() for f in fields]
        assert all(isinstance(x, float) for x in lone)
        assert sums.tolist() == lone
        # the narrow window holds most of the vacuum and little of |4>
        assert sums[0] > 0.8 > 0.2 > sums[1]

    def test_batch_bounds(self, monkeypatch):
        table = []
        real = observables._coherent_overlaps
        monkeypatch.setattr(observables, "_coherent_overlaps",
                            lambda *a: table.append(a) or real(*a))
        # 4 points of fields on 0..2: 12 overlaps, and 12 Q values for 3 fields
        monkeypatch.setattr(observables, "MAX_OVERLAPS", 12)
        rad, ang = np.linspace(0.0, 1.0, 4), np.zeros(4)
        assert husimi_values([fock_projector(2, 2)] * 3, rad, ang).shape == (3, 4)
        assert len(table) == 1
        with pytest.raises(ValidationError, match="more than 12 Q values"):
            husimi_values([fock_projector(2, 2)] * 4, rad, ang)
        with pytest.raises(ValidationError, match="one dimension"):
            husimi_values([fock_projector(2, 2), fock_projector(1, 1)], rad, ang)
        with pytest.raises(ValidationError, match="at least one"):
            husimi_values([], rad, ang)
        assert len(table) == 1


class TestHusimiTwoFock:
    def test_origin_value(self):
        # only the nu = 0 component survives at the origin
        got = husimi_two_fock(0, 1, math.pi / 4, 0.0, 0.0, 0.0)
        assert got == pytest.approx(0.5 / math.pi, abs=1e-15)
        assert isinstance(got, float)

    def test_single_component_is_angle_independent(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 50)
        vals = husimi_two_fock(2, 7, 0.0, 0.0, np.full_like(phis, 1.4), phis)
        assert np.ptp(vals) < 1e-16

    def test_matches_generic_husimi(self):
        nu1, nu2, theta, xi = 2, 7, math.pi / 3, 0.9
        rho = reduce_field(make_superposition(nu1, nu2, theta, xi, 1, REF))
        rng = np.random.default_rng(5)
        rad = rng.uniform(0.0, 6.0, 2000)
        ang = rng.uniform(0.0, 2.0 * math.pi, 2000)
        generic = husimi_values(rho, rad, ang)
        closed = husimi_two_fock(nu1, nu2, theta, xi, rad, ang)
        assert np.max(np.abs(generic - closed)) < 1e-12

    def test_invariant_under_cyclic_rotation(self):
        rad = np.full(100, 2.0)
        ang = np.linspace(0.0, 2.0 * math.pi, 100)
        q1 = husimi_two_fock(2, 7, 0.8, 0.3, rad, ang)
        q2 = husimi_two_fock(2, 7, 0.8, 0.3, rad, ang + 2.0 * math.pi / 5.0)
        assert np.max(np.abs(q1 - q2)) < 1e-14

    def test_phase_acts_as_rigid_rotation(self):
        nu1, nu2, xi = 1, 4, 1.3
        rad = np.full(64, 1.7)
        ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        with_phase = husimi_two_fock(nu1, nu2, 0.7, xi, rad, ang)
        rotated = husimi_two_fock(nu1, nu2, 0.7, 0.0, rad, ang - xi / (nu2 - nu1))
        assert np.max(np.abs(with_phase - rotated)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            husimi_two_fock(3, 3, 0.5, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            husimi_two_fock(-1, 2, 0.5, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            husimi_two_fock(0, 2, 0.5, 0.0, -1.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        rad=st.floats(0.0, 6.0, allow_nan=False),
        ang=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    )
    def test_never_negative(self, rad, ang):
        assert husimi_two_fock(1, 5, 0.6, 2.0, rad, ang) >= -1e-16


# ---------------------------------------------------------------------------
# symmetry certification


def paired_angle_residual(rho, order):
    """max_residual measured at paired angles, phi and phi + 2pi/order, or
    at independent second angles for order 0, with one lone husimi_values
    call per angle set: the certificate's residual before the rotated rho."""
    rng = np.random.default_rng(observables._RESIDUAL_SEED)
    rad = rng.uniform(0.0, 6.0, observables._RESIDUAL_SAMPLES)
    ang = rng.uniform(0.0, 2.0 * math.pi, observables._RESIDUAL_SAMPLES)
    if order >= 1:
        ang2 = ang + 2.0 * math.pi / order
    else:
        ang2 = rng.uniform(0.0, 2.0 * math.pi, observables._RESIDUAL_SAMPLES)
    q1 = husimi_values(rho, rad, ang)
    q2 = husimi_values(rho, rad, ang2)
    return float(np.max(np.abs(q1 - q2)))


class TestDetectCyclicSymmetry:
    def test_diagonal_state_is_continuous(self):
        rho = FieldDensityMatrix(rho=np.diag([0.25, 0.25, 0.5]).astype(complex))
        report = detect_cyclic_symmetry(rho)
        assert report.order == 0
        assert report.support_differences == ()
        assert report.max_residual < 1e-10

    def test_two_fock_cat(self):
        rho = reduce_field(make_superposition(2, 7, math.pi / 4, 0.6, 1, REF))
        report = detect_cyclic_symmetry(rho)
        assert report.order == 5
        assert report.support_differences == (5,)
        assert report.max_residual < 1e-10

    def test_gcd_of_mixed_support(self):
        rho = pure_rho([1.0] + [0.0] * 3 + [1.0] + [0.0] * 5 + [1.0])
        report = detect_cyclic_symmetry(rho)
        assert report.support_differences == (4, 6, 10)
        assert report.order == 2
        assert report.max_residual < 1e-10

    def test_deterministic(self):
        rho = reduce_field(make_superposition(1, 4, 0.5, 0.2, 1, REF))
        r1 = detect_cyclic_symmetry(rho)
        r2 = detect_cyclic_symmetry(rho)
        assert r1 == r2

    def test_tolerance_gates_support(self):
        rho_mat = np.diag([0.5, 0.0, 0.5]).astype(complex)
        rho_mat[0, 2] = rho_mat[2, 0] = 1e-12
        report = detect_cyclic_symmetry(FieldDensityMatrix(rho=rho_mat))
        assert report.order == 0  # below the coherence tolerance
        loose = detect_cyclic_symmetry(FieldDensityMatrix(rho=rho_mat), tol=1e-14)
        assert loose.order == 2

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 10),
        seed=st.integers(0, 2**16),
        tol_pick=st.one_of(
            st.just(0.0), st.floats(1e-16, 1.0), st.integers(0, 99)
        ),
    )
    def test_support_matches_the_entry_loop(self, dim, seed, tol_pick):
        # zeros and entries spread over 14 decades; an integer pick makes
        # tol one of the entries' moduli, the edge of "> tol"
        rng = np.random.default_rng(seed)
        upper = (
            (rng.random((dim, dim)) < 0.4)
            * 10.0 ** rng.uniform(-14, 0, (dim, dim))
            * np.exp(2j * math.pi * rng.random((dim, dim)))
        )
        upper = np.triu(upper, 1)
        r = upper + upper.conj().T
        r[np.diag_indices(dim)] = 1.0 / dim
        moduli = np.abs(r[~np.eye(dim, dtype=bool)])
        if isinstance(tol_pick, int):
            tol = float(moduli[tol_pick % len(moduli)]) if len(moduli) else 0.0
        else:
            tol = tol_pick
        report = detect_cyclic_symmetry(FieldDensityMatrix(rho=r), tol=tol)
        want = sorted({
            abs(i - j)
            for i in range(dim)
            for j in range(dim)
            if i != j and abs(r[i, j]) > tol
        })
        assert report.support_differences == tuple(want)
        assert report.order == math.gcd(*want)
        assert report.tol == tol

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 5),
        dim=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        leaks=st.integers(0, 4),
    )
    @example(n=3, dim=7, seed=1, leaks=3)
    @example(n=0, dim=5, seed=2, leaks=2)
    def test_rotated_rho_matches_the_paired_angles(self, n, dim, seed, leaks):
        # a state of order n (a diagonal one for n = 0) with coherences of
        # 1e-11, below the tolerance, anywhere off the diagonal: they leave
        # the order as it is and make the residual nonzero
        rng = np.random.default_rng(seed)
        if n == 0:
            r = np.diag(rng.random(dim) + 0.1).astype(complex)
        else:
            vec = np.zeros(dim, dtype=complex)
            support = np.arange(rng.integers(min(n, dim)), dim, n)
            vec[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
            r = np.outer(vec, vec.conj())
        for _ in range(leaks):
            i, j = rng.integers(dim, size=2)
            if i != j:
                leak = 1e-11 * np.exp(2j * math.pi * rng.random())
                r[i, j] += leak
                r[j, i] += leak.conjugate()
        rho = FieldDensityMatrix(rho=r / np.trace(r).real)
        report = detect_cyclic_symmetry(rho)
        diffs = {
            abs(i - j) for i in range(dim) for j in range(dim)
            if i != j and abs(rho.rho[i, j]) > observables.COHERENCE_TOL
        }
        assert report.order == math.gcd(*diffs)
        want = paired_angle_residual(rho, report.order)
        if report.order == 0:
            assert report.max_residual == want
        else:
            assert abs(report.max_residual - want) <= 1e-15

    def test_off_support_coherence_shows_in_the_residual(self):
        r = pure_rho([1.0, 0.0, 0.0, 1.0]).rho
        r[0, 1] = r[1, 0] = 3e-11
        rho = FieldDensityMatrix(rho=r)
        report = detect_cyclic_symmetry(rho)
        assert report.order == 3
        assert 1e-12 < report.max_residual < 1e-10
        assert abs(report.max_residual - paired_angle_residual(rho, 3)) <= 1e-15

    def test_negative_tolerance_is_refused(self):
        # a negative tolerance would count every zero coherence as support
        rho = reduce_field(make_superposition(2, 7, math.pi / 4, 0.6, 1, REF))
        with pytest.raises(ValidationError):
            detect_cyclic_symmetry(rho, tol=-1.0)
        assert detect_cyclic_symmetry(rho, tol=0.0).order == 5
