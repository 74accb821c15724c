"""Envelope, sector matrices and the adaptive integrator.

The multi-atom matrix elements are checked against a brute-force oracle
that builds the interaction Hamiltonian on the full photon x atom x atom
product space and projects it onto symmetrized sector vectors.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from cnlight import dynamics
from cnlight.analytic_core import evolve_ground_analytic
from cnlight.dynamics import (
    _DP_A,
    _DP_B5,
    _DP_E,
    _DP_P,
    _DP_ROWS,
    CONSTANT_SCHEDULE,
    DEFAULT_TOL,
    SEARCH_TOL,
    CouplingSchedule,
    SectorPropagator,
    SystemState,
    Trajectory,
    _frame_rhs,
    _pulse_area,
    _quadrature_area,
    bump,
    diagonal_energy,
    ground_product_state,
    integrate,
    integrate_ode,
    interaction_elements,
    interaction_matrix,
    make_superposition,
    product_state,
)
from cnlight.errors import StepSizeUnderflowError, ValidationError
from cnlight.hilbert import AtomicConfig, Kind, build_sector_basis

REF = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0))


# ---------------------------------------------------------------------------
# coupling envelope


class TestBump:
    def test_plateau_is_exactly_one(self):
        assert bump(8.0, 4.0) == 1.0
        assert bump(8.0, 1.0) == 1.0
        assert bump(8.0, 7.0) == 1.0

    def test_zero_outside_support(self):
        assert bump(8.0, 0.0) == 0.0
        assert bump(8.0, 8.0) == 0.0
        assert bump(8.0, -0.5) == 0.0
        assert bump(8.0, 9.0) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(1e-6, 8.0 - 1e-6, allow_nan=False))
    def test_symmetric_about_midpoint(self, t):
        assert bump(8.0, t) == pytest.approx(bump(8.0, 8.0 - t), abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(1e-6, 1.0 - 1e-6, allow_nan=False))
    def test_entry_ramp_partition_of_unity(self, x):
        assert bump(8.0, x) + bump(8.0, 1.0 - x) == pytest.approx(1.0, abs=1e-14)

    def test_ramp_area_is_half(self):
        area, err = quad(lambda t: bump(8.0, t), 0.0, 1.0)
        assert area == pytest.approx(0.5, abs=1e-10)

    def test_total_area(self):
        t_tof = 8.0
        area, err = quad(lambda t: bump(t_tof, t), 0.0, t_tof, points=[1.0, 7.0])
        assert area == pytest.approx(t_tof - 1.0, abs=1e-9)

    def test_short_flight_never_reaches_one(self):
        grid = np.linspace(0.0, 1.5, 2001)
        assert np.max(bump(1.5, grid)) < 1.0

    def test_array_shape_and_scalar_type(self):
        out = bump(8.0, np.array([[0.5, 4.0], [7.5, 9.0]]))
        assert out.shape == (2, 2)
        assert isinstance(bump(8.0, 0.5), float)

    @pytest.mark.parametrize("t_tof", [1.5, 2.0, 5.749, 8.0])
    def test_scalar_path_matches_array_path_bit_for_bit(self, t_tof):
        edges = [0.0, -0.0, 1.0, t_tof - 1.0, t_tof, 5e-324,
                 1e-3, 1.0 - 1e-3, t_tof - 1e-3,   # exp overflows at 1e-3
                 math.nan, math.inf, -math.inf]
        ts = np.concatenate([np.linspace(-0.5, t_tof + 0.5, 20001), edges])
        want = bump(t_tof, ts).tobytes()
        for points in (ts.tolist(), list(ts)):   # float, then np.float64
            got = [bump(t_tof, t) for t in points]
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want

    def test_scalar_call_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e-3, 5e-324, 8.0 - 1e-3, math.nan, math.inf):
                bump(8.0, t)
                bump(8.0, np.float64(t))

    def test_invalid_flight_time(self):
        with pytest.raises(ValidationError):
            bump(0.0, 1.0)
        with pytest.raises(ValidationError):
            bump(-2.0, 1.0)


class TestCouplingSchedule:
    def test_constant_envelope(self):
        assert CONSTANT_SCHEDULE.envelope(3.7) == 1.0
        assert type(CONSTANT_SCHEDULE.envelope(np.float64(3.7))) is float
        assert np.all(CONSTANT_SCHEDULE.envelope(np.arange(5.0)) == 1.0)

    def test_bump_envelope_delegates(self):
        sched = CouplingSchedule(mode="bump", t_tof=6.0)
        assert sched.envelope(3.0) == bump(6.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CouplingSchedule(mode="triangle")
        with pytest.raises(ValidationError):
            CouplingSchedule(mode="bump")  # missing t_tof
        with pytest.raises(ValidationError):
            CouplingSchedule(mode="bump", t_tof=math.nan)


# ---------------------------------------------------------------------------
# sector matrices: hand-built one-atom blocks


def xi_hand_matrix(m, mu12, mu23):
    a, b = math.sqrt(m - 1) * mu23, math.sqrt(m) * mu12
    return -np.array([[0, a, 0], [a, 0, b], [0, b, 0]], dtype=complex)


def v_hand_matrix(m, mu12, mu13):
    a, b = math.sqrt(m) * mu13, math.sqrt(m) * mu12
    return -np.array([[0, 0, a], [0, 0, b], [a, b, 0]], dtype=complex)


def lambda_hand_matrix(m, mu13, mu23):
    a, b = math.sqrt(m) * mu23, math.sqrt(m) * mu13
    return -np.array([[0, a, b], [a, 0, 0], [b, 0, 0]], dtype=complex)


class TestOneAtomMatrices:
    def test_ladder(self):
        cfg = AtomicConfig(kind=Kind.XI, mu12=0.8, mu23=1.4)
        basis = build_sector_basis(cfg, 1, 3)
        assert np.allclose(
            interaction_matrix(cfg, basis), xi_hand_matrix(3, 0.8, 1.4), atol=1e-14
        )

    def test_v(self):
        cfg = AtomicConfig(kind=Kind.V, mu12=0.8, mu13=1.4)
        basis = build_sector_basis(cfg, 1, 3)
        assert np.allclose(
            interaction_matrix(cfg, basis), v_hand_matrix(3, 0.8, 1.4), atol=1e-14
        )

    def test_lambda(self):
        cfg = AtomicConfig(kind=Kind.LAMBDA, mu13=0.8, mu23=1.4)
        basis = build_sector_basis(cfg, 1, 3)
        assert np.allclose(
            interaction_matrix(cfg, basis), lambda_hand_matrix(3, 0.8, 1.4), atol=1e-14
        )

    def test_mixed_atom_numbers_rejected(self):
        b2 = build_sector_basis(REF, 2, 4)
        b1 = build_sector_basis(REF, 1, 3)
        with pytest.raises(ValidationError):
            interaction_elements(b2.states[0], b1.states[0], REF)


# ---------------------------------------------------------------------------
# two-atom oracle on the full product space


def full_space_interaction(config, na, nmax):
    """H_int on photons(0..nmax) x (C^3)^na, built from kron ladder ops."""
    ad = np.diag(np.sqrt(np.arange(1.0, nmax + 1)), -1)
    pairs = {"mu12": (0, 1), "mu13": (0, 2), "mu23": (1, 2)}
    dim_a = 3**na
    h = np.zeros(((nmax + 1) * dim_a, (nmax + 1) * dim_a))
    for name, (lo, hi) in pairs.items():
        mu = getattr(config, name)
        if mu == 0.0:
            continue
        drop = np.zeros((3, 3))
        drop[lo, hi] = 1.0  # takes the atom from the upper to the lower level
        collective = np.zeros((dim_a, dim_a))
        for k in range(na):
            ops = [np.eye(3)] * na
            ops[k] = drop
            term = ops[0]
            for o in ops[1:]:
                term = np.kron(term, o)
            collective += term
        h -= (mu / math.sqrt(na)) * (
            np.kron(ad, collective) + np.kron(ad.T, collective.T)
        )
    return h


def full_space_bare(config, na, nmax):
    """Cavity plus level energies on the same product space."""
    w = config.level_frequencies
    number = np.diag(np.arange(nmax + 1.0))
    dim_a = 3**na
    level = np.zeros((dim_a, dim_a))
    for k in range(na):
        ops = [np.eye(3)] * na
        ops[k] = np.diag(w)
        term = ops[0]
        for o in ops[1:]:
            term = np.kron(term, o)
        level += term
    return config.omega * np.kron(number, np.eye(dim_a)) + np.kron(
        np.eye(nmax + 1), level
    )


def symmetric_vector(s, nmax):
    """Product-space vector for |nu; na q r>: Fock x symmetrized levels."""
    fock = np.zeros(nmax + 1)
    fock[s.nu] = 1.0
    pops = (s.r, s.q - s.r, s.na - s.q)
    letters = [lvl for lvl, n in enumerate(pops) for _ in range(n)]
    atom = np.zeros(3**s.na)
    for perm in set(itertools.permutations(letters)):
        idx = 0
        for lvl in perm:
            idx = idx * 3 + lvl
        atom[idx] = 1.0
    atom /= np.linalg.norm(atom)
    return np.kron(fock, atom)


TWO_ATOM_CASES = [
    AtomicConfig(kind=Kind.XI, mu12=0.8, mu23=1.4, delta12=0.3, delta23=-0.3),
    AtomicConfig(kind=Kind.V, mu12=1.1, mu13=0.6, delta12=-0.4, delta13=-0.4),
    AtomicConfig(kind=Kind.LAMBDA, mu13=0.9, mu23=1.2, delta13=0.5, delta23=0.5),
]


@pytest.mark.parametrize("cfg", TWO_ATOM_CASES, ids=lambda c: c.kind.value)
def test_two_atom_sector_matches_product_space(cfg):
    m = 4 if cfg.kind is Kind.XI else 2
    basis = build_sector_basis(cfg, 2, m)
    assert len(basis) == 6
    nmax = m
    h_full = full_space_interaction(cfg, 2, nmax)
    vectors = [symmetric_vector(s, nmax) for s in basis.states]
    for i, bi in enumerate(basis.states):
        for j, bj in enumerate(basis.states):
            want = vectors[i] @ h_full @ vectors[j]
            got = interaction_elements(bi, bj, cfg) if i != j else 0.0
            if i == j:
                assert abs(want) < 1e-12  # no diagonal interaction terms
            else:
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("cfg", TWO_ATOM_CASES, ids=lambda c: c.kind.value)
def test_two_atom_diagonal_matches_product_space(cfg):
    m = 4 if cfg.kind is Kind.XI else 2
    basis = build_sector_basis(cfg, 2, m)
    h0 = full_space_bare(cfg, 2, m)
    for s in basis.states:
        v = symmetric_vector(s, m)
        assert diagonal_energy(s, cfg) == pytest.approx(v @ h0 @ v, abs=1e-12)


def test_symmetric_sector_closed_under_interaction():
    # H_int maps the symmetric sector onto itself: expanding a mapped vector
    # in sector vectors reproduces it with nothing left over
    cfg = TWO_ATOM_CASES[0]
    basis = build_sector_basis(cfg, 2, 4)
    h_full = full_space_interaction(cfg, 2, 4)
    vectors = np.array([symmetric_vector(s, 4) for s in basis.states])
    for v in vectors:
        image = h_full @ v
        residual = image - vectors.T @ (vectors @ image)
        assert np.max(np.abs(residual)) < 1e-12


# ---------------------------------------------------------------------------
# rotating-frame derivative


DETUNED_XI = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0),
                          delta12=0.3, delta23=-0.2)


def frame_detunings(config, basis):
    """E - E0 of every basis state; the frame rotates at E0, the energy of
    the sector's first basis state."""
    e = np.array([diagonal_energy(s, config) for s in basis.states])
    return e - e[0]


def rhs_matrix(config, basis, schedule, t):
    """W(t) with dphi/dt = W(t) phi: the right-hand side applied to 1."""
    rhs = _frame_rhs(frame_detunings(config, basis),
                     interaction_matrix(config, basis), schedule.envelope)
    return rhs(t, np.eye(len(basis)))


def test_rhs_is_antihermitian_with_diagonal_minus_i_delta():
    for cfg in (REF, DETUNED_XI):
        basis = build_sector_basis(cfg, 1, 3)
        delta = frame_detunings(cfg, basis)
        assert np.any(delta != 0.0) == (cfg is DETUNED_XI)
        for t in (0.0, 0.37, 2.0):
            w = rhs_matrix(cfg, basis, CONSTANT_SCHEDULE, t)
            assert np.max(np.abs(w + w.conj().T)) < 1e-14
            assert np.array_equal(np.diag(w), -1j * delta)


def test_rhs_at_time_zero_is_minus_i_h():
    basis = build_sector_basis(REF, 1, 3)
    w = rhs_matrix(REF, basis, CONSTANT_SCHEDULE, 0.0)
    assert np.allclose(w, -1j * interaction_matrix(REF, basis), atol=1e-14)


@pytest.mark.parametrize(
    "schedule", [CONSTANT_SCHEDULE, CouplingSchedule(mode="bump", t_tof=5.749)]
)
def test_rhs_matches_the_inline_expression_bit_for_bit(schedule):
    cfg = AtomicConfig(kind=Kind.V, mu12=1.1, mu13=0.8, delta12=0.3, delta13=-0.2)
    basis = build_sector_basis(cfg, 2, 4)
    delta = frame_detunings(cfg, basis)
    h = interaction_matrix(cfg, basis)
    rng = np.random.default_rng(7)
    n = len(basis)
    vector = rng.normal(size=n) + 1j * rng.normal(size=n)
    matrix = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    rhs = _frame_rhs(delta, h, schedule.envelope)
    for phi in (vector, matrix):
        for t in (0.0, 0.37, np.float64(0.9), 2.5, 5.7):
            f = schedule.envelope(t)
            want = (f * (-1j * h) + np.diag(-1j * delta)).dot(phi)
            assert rhs(t, phi).tobytes() == want.tobytes()


def test_rhs_scales_with_envelope():
    # the coupling part scales with the envelope; the detunings do not
    sched = CouplingSchedule(mode="bump", t_tof=6.0)
    t = 0.25  # on the entry ramp
    for cfg in (REF, DETUNED_XI):
        basis = build_sector_basis(cfg, 1, 3)
        d = np.diag(-1j * frame_detunings(cfg, basis))
        w_bump = rhs_matrix(cfg, basis, sched, t)
        w_flat = rhs_matrix(cfg, basis, CONSTANT_SCHEDULE, t)
        assert np.allclose(w_bump - d, bump(6.0, t) * (w_flat - d), atol=1e-14)


# ---------------------------------------------------------------------------
# Dormand-Prince driver


def linear_rhs(a_mat):
    return lambda t, y: a_mat @ y


class TestIntegrateOde:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(41)
        h = rng.normal(size=(4, 4))
        h = h + h.T
        a_mat = -1j * h
        y0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        samples, stats = integrate_ode(
            linear_rhs(a_mat), y0, 0.0, 3.0, 1e-11, [0.0, 1.5, 3.0]
        )
        for t, y in samples:
            assert np.max(np.abs(y - expm(a_mat * t) @ y0)) < 1e-9
        assert stats.steps > 0

    def test_snapshots_hit_exactly(self):
        targets = [0.0, 0.1234567, 1.0, 2.999999, 3.0]
        samples, _ = integrate_ode(
            linear_rhs(-1j * np.eye(2)), np.ones(2, complex), 0.0, 3.0, 1e-9, targets
        )
        assert [t for t, _ in samples] == targets

    def test_tighter_tolerance_takes_more_steps(self):
        a_mat = -1j * np.diag([1.0, 5.0, 9.0])
        y0 = np.ones(3, complex) / math.sqrt(3.0)
        _, loose = integrate_ode(linear_rhs(a_mat), y0, 0.0, 10.0, 1e-6, [10.0])
        _, tight = integrate_ode(linear_rhs(a_mat), y0, 0.0, 10.0, 1e-12, [10.0])
        assert tight.steps > loose.steps

    def test_underflow_on_singular_rhs(self):
        def blow_up(t, y):
            return y / np.sqrt(max(1.0 - t, 1e-300))

        with pytest.raises(StepSizeUnderflowError):
            integrate_ode(blow_up, np.ones(1, complex), 0.0, 1.0, 1e-10, [1.0])

    def test_stage_rows_match_the_tableau(self):
        # row i forms stage i's input from the first i stages only; the
        # last row forms the error estimate from all seven
        assert _DP_ROWS.shape == (8, 7)
        for i in range(7):
            assert np.array_equal(_DP_ROWS[i, :i], _DP_A[i])
            assert not _DP_ROWS[i, i:].any()
        assert np.array_equal(_DP_ROWS[7], _DP_E)

    def test_continuous_extension_ends_at_the_fifth_order_solution(self):
        # b(1) are the 5th-order weights, and sum_i b_i(s) = s: a constant
        # derivative is followed exactly at every s
        np.testing.assert_allclose(_DP_P.sum(axis=1), _DP_B5, rtol=0, atol=1e-15)
        for s in (0.2, 0.5, 0.9):
            b = _DP_P @ s ** np.arange(1, 5)
            assert b.sum() == pytest.approx(s, abs=1e-15)

    def test_dense_output_matches_matrix_exponential_at_interior_times(self):
        rng = np.random.default_rng(43)
        h = rng.normal(size=(5, 5))
        a_mat = -1j * (h + h.T)
        y0 = rng.normal(size=5) + 1j * rng.normal(size=5)
        y0 /= np.linalg.norm(y0)
        times = sorted(rng.uniform(0.0, 4.0, size=50))
        samples, _ = integrate_ode(
            linear_rhs(a_mat), y0, 0.0, 4.0, DEFAULT_TOL, times
        )
        for t, (ts, y) in zip(times, samples):
            assert ts == t
            assert np.max(np.abs(y - expm(a_mat * t) @ y0)) < 1e-9

    def test_matrix_state_matches_matrix_exponential(self):
        # an (n, k) state, as the ramp propagator integrates, read off inside
        # a step and at the end
        a_mat = -1j * np.array([[1.0, 0.5], [0.5, -2.0]])
        samples, _ = integrate_ode(
            linear_rhs(a_mat), np.eye(2, dtype=complex), 0.0, 2.0, 1e-12,
            [0.7, 2.0],
        )
        for t, u in samples:
            assert u.shape == (2, 2)
            assert np.max(np.abs(u - expm(a_mat * t))) < 1e-9

    def test_last_stage_input_is_the_fifth_order_solution(self):
        # first-same-as-last: integrate_ode takes the 7th stage input as y5
        assert np.array_equal(_DP_A[6], _DP_B5[:6])
        assert _DP_B5[6] == 0.0

    def test_targets_outside_span_rejected(self):
        with pytest.raises(ValidationError):
            integrate_ode(
                linear_rhs(np.eye(1)), np.ones(1, complex), 0.0, 1.0, 1e-9, [2.0]
            )


# ---------------------------------------------------------------------------
# state helpers


def test_ground_product_state():
    state = ground_product_state(REF, 3)
    basis, amps = state.sectors[3]
    assert amps[basis.index(1, 1)] == 1.0
    assert state.norm() == pytest.approx(1.0)
    assert state.nu_max == 3 and state.na == 1


KIND_CONFIGS = {
    Kind.XI: REF,
    Kind.V: AtomicConfig(kind=Kind.V, mu12=1.0, mu13=0.7),
    Kind.LAMBDA: AtomicConfig(kind=Kind.LAMBDA, mu13=1.0, mu23=0.7),
}


def ground_sectors_by_hand(config, weights, na):
    """Each nonzero weight on its sector's all-ground basis state."""
    sectors = {}
    for m in sorted(weights):
        if weights[m] != 0:
            basis = build_sector_basis(config, na, m)
            amps = np.zeros(len(basis), dtype=complex)
            amps[basis.index(na, na)] = weights[m]
            sectors[m] = (basis, amps)
    return sectors


def assert_bit_equal(state, sectors):
    assert list(state.sectors) == list(sectors)
    for m, (basis, amps) in sectors.items():
        got_basis, got_amps = state.sectors[m]
        assert got_basis == basis
        assert got_amps.dtype == amps.dtype
        assert got_amps.tobytes() == amps.tobytes()


@pytest.mark.parametrize("kind", list(KIND_CONFIGS), ids=lambda k: k.value)
@pytest.mark.parametrize("na", [1, 2, 3])
def test_product_state_builds_the_ground_state_constructors_bit_for_bit(kind, na):
    cfg = KIND_CONFIGS[kind]
    ground = {3: 1.0}
    assert_bit_equal(ground_product_state(cfg, 3, na=na),
                     ground_sectors_by_hand(cfg, ground, na))
    assert_bit_equal(product_state(cfg, ground, na),
                     ground_sectors_by_hand(cfg, ground, na))
    for theta, xi in ((0.6, 1.1), (0.0, 0.4)):   # theta = 0 drops sector 4
        weights = {1: complex(math.cos(theta)),
                   4: math.sin(theta) * np.exp(1j * xi)}
        expected = ground_sectors_by_hand(cfg, weights, na)
        assert len(expected) == (1 if theta == 0.0 else 2)
        assert_bit_equal(make_superposition(1, 4, theta, xi, na, cfg), expected)
        assert_bit_equal(product_state(cfg, weights, na), expected)


def test_make_superposition_structure():
    theta, xi = 0.6, 1.1
    state = make_superposition(1, 3, theta, xi, 1, REF)
    assert sorted(state.sectors) == [1, 3]
    b1, a1 = state.sectors[1]
    b3, a3 = state.sectors[3]
    assert a1[b1.index(1, 1)] == pytest.approx(math.cos(theta))
    assert a3[b3.index(1, 1)] == pytest.approx(math.sin(theta) * np.exp(1j * xi))
    assert state.norm() == pytest.approx(1.0)


def test_make_superposition_drops_exact_zeros():
    state = make_superposition(1, 3, 0.0, 0.0, 1, REF)
    assert list(state.sectors) == [1]


def test_make_superposition_rejects_equal_photon_numbers():
    with pytest.raises(ValidationError):
        make_superposition(2, 2, 0.5, 0.0, 1, REF)


@pytest.mark.parametrize(
    "theta,xi", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, -math.inf)]
)
def test_make_superposition_rejects_non_finite_angles(theta, xi):
    with pytest.raises(ValidationError):
        make_superposition(0, 2, theta, xi, 1, REF)


# ---------------------------------------------------------------------------
# full propagation


class TestIntegrate:
    def test_constant_schedule_reproduces_closed_form(self):
        t_end = 4.0
        traj = integrate(
            ground_product_state(REF, 3), REF, CONSTANT_SCHEDULE, t_end,
            n_snapshots=8,
        )
        for k, t in enumerate(traj.times):
            state = traj.state(k)
            if t == 0.0:
                continue
            _, amps = state.sectors[3]
            want = evolve_ground_analytic(REF, 3, float(t))
            assert np.max(np.abs(amps - want)) < 1e-9

    def test_norm_conserved_across_sectors(self):
        state = make_superposition(1, 3, math.pi / 4, 0.3, 1, REF)
        sched = CouplingSchedule(mode="bump", t_tof=5.0)
        traj = integrate(state, REF, sched, 5.0, n_snapshots=40)
        assert traj.stats.max_norm_drift < 1e-9
        final = traj.state(-1)
        assert final.norm() == pytest.approx(1.0, abs=1e-9)
        assert sorted(final.sectors) == [1, 3]

    def test_sector_norms_individually_conserved(self):
        state = make_superposition(1, 3, 0.7, 0.0, 1, REF)
        before = state.sector_norms()
        sched = CouplingSchedule(mode="bump", t_tof=4.0)
        traj = integrate(state, REF, sched, 4.0, n_snapshots=20)
        after = traj.state(-1).sector_norms()
        for m in before:
            assert after[m] == pytest.approx(before[m], abs=1e-9)

    def test_requested_snapshot_times_available(self):
        traj = integrate(
            ground_product_state(REF, 2), REF, CONSTANT_SCHEDULE, 2.0,
            snapshot_times=[0.7654321], n_snapshots=10,
        )
        state = traj.state_at(0.7654321)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(KeyError):
            traj.state_at(0.123456789)

    def test_validation(self):
        state = ground_product_state(REF, 2)
        for t_end in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                integrate(state, REF, CONSTANT_SCHEDULE, t_end)
        basis, _ = state.sectors[2]
        for fill in (0.5, math.nan):
            bad = SystemState(sectors={2: (basis, np.full(len(basis), fill + 0j))})
            with pytest.raises(ValidationError):
                integrate(bad, REF, CONSTANT_SCHEDULE, 1.0)

    @pytest.mark.parametrize(
        "schedule", [CONSTANT_SCHEDULE, CouplingSchedule(mode="bump", t_tof=3.0)],
        ids=["constant", "bump"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_snapshot_time_is_refused(self, schedule, bad):
        # a NaN used to vanish in the merge with the uniform grid
        state = ground_product_state(REF, 2)
        with pytest.raises(ValidationError):
            integrate(state, REF, schedule, 1.0, snapshot_times=[bad],
                      n_snapshots=2)
        with pytest.raises(ValidationError):
            integrate(state, REF, schedule, 1.0, snapshot_times=[0.25, bad],
                      n_snapshots=2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": 1e-300},
         {"tol": 1e-16}, {"n_snapshots": 0}, {"n_snapshots": -1},
         {"n_snapshots": 10**30}],
        ids=["tol=0", "tol<0", "tol=nan", "tol=1e-300", "tol<eps",
             "snapshots=0", "snapshots<0", "snapshots=1e30"],
    )
    def test_bad_tolerance_or_snapshot_count_is_refused(self, kwargs):
        state = ground_product_state(REF, 2)
        with pytest.raises(ValidationError):
            integrate(state, REF, CONSTANT_SCHEDULE, 1.0, **kwargs)

    # the single-run regime: constant coupling, and a bump whose ramps
    # overlap (t_tof < 2), here run on past its exit
    @pytest.mark.parametrize(
        "schedule", [CONSTANT_SCHEDULE, CouplingSchedule(mode="bump", t_tof=1.75)],
        ids=["constant", "bump"],
    )
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("na,detuned", [(1, False), (2, True)])
    def test_one_sector_matches_the_inline_run_bit_for_bit(
        self, kind, na, detuned, schedule
    ):
        deltas = (0.13, -0.07) if detuned else (0.0, 0.0)
        cfg, state = random_detuned_state(kind, na, 2, deltas, 21)
        basis, amps = state.sectors[2]
        one = SystemState(sectors={2: (basis, amps / np.linalg.norm(amps))})
        traj = integrate(one, cfg, schedule, 3.5, n_snapshots=20)
        want = integrate_sectors_alone(one, cfg, schedule, 3.5, 1e-11, traj.times)
        for snap, psi in zip(map(traj.state, range(len(traj.times))), want[2]):
            assert snap.sectors[2][1].tobytes() == psi.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 3),
        m=st.integers(0, 3),
        detuned=st.booleans(),
        mode=st.sampled_from(["constant", "bump"]),
        t_end=st.floats(0.5, 6.0),
        seed=st.integers(0, 2**16),
    )
    @example(kind=Kind.XI, na=1, m=1, detuned=False, mode="bump", t_end=5.749, seed=1)
    @example(kind=Kind.V, na=3, m=2, detuned=True, mode="constant", t_end=4.0, seed=2)
    def test_sectors_run_together_match_each_run_alone(
        self, kind, na, m, detuned, mode, t_end, seed
    ):
        deltas = (0.11, -0.06) if detuned else (0.0, 0.0)
        cfg, state = random_detuned_state(kind, na, m, deltas, seed)
        if mode == "bump":
            sched = CouplingSchedule(mode="bump", t_tof=t_end)
        else:
            sched = CONSTANT_SCHEDULE
        traj = integrate(state, cfg, sched, t_end, n_snapshots=10)
        want = integrate_sectors_alone(state, cfg, sched, t_end, 1e-13, traj.times)
        for i, snap in enumerate(map(traj.state, range(len(traj.times)))):
            assert sorted(snap.sectors) == sorted(state.sectors)
            for mm, psis in want.items():
                np.testing.assert_allclose(
                    snap.sectors[mm][1], psis[i], rtol=0, atol=1e-9
                )

    def test_snapshot_count_leaves_the_steps_alone(self):
        # snapshots come from the continuous extension, so 200 of them cost
        # no step more than one (clipping steps at them cost 564 against 428)
        state = make_superposition(1, 3, math.pi / 4, 0.3, 1, REF)
        sched = CouplingSchedule(mode="bump", t_tof=5.749)
        one = integrate(state, REF, sched, 5.749, n_snapshots=1)
        many = integrate(state, REF, sched, 5.749, n_snapshots=200)
        assert many.stats.steps == one.stats.steps
        assert many.stats.rejected == one.stats.rejected
        # the last snapshot is the last step's own solution
        for mm, (_, amps) in one.state(-1).sectors.items():
            assert many.state(-1).sectors[mm][1].tobytes() == amps.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 3),
        m=st.integers(0, 3),
        deltas=st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        ),
        mode=st.sampled_from(["constant", "bump"]),
        t_end=st.floats(0.5, 8.0),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    @example(kind=Kind.XI, na=1, m=1, deltas=(0.0, 0.0), mode="bump",
             t_end=5.749, fracs=[0.3, 0.77], seed=1)
    @example(kind=Kind.LAMBDA, na=3, m=2, deltas=(1.5, -1.5), mode="constant",
             t_end=8.0, fracs=[0.01, 0.5, 0.999], seed=2)
    def test_snapshots_inside_steps_match_a_tight_run(
        self, kind, na, m, deltas, mode, t_end, fracs, seed
    ):
        # the continuous extension at DEFAULT_TOL against tol = 1e-13
        cfg, state = random_detuned_state(kind, na, m, deltas, seed)
        if mode == "bump":
            sched = CouplingSchedule(mode="bump", t_tof=t_end)
        else:
            sched = CONSTANT_SCHEDULE
        times = [t_end * f for f in fracs]
        got = integrate(state, cfg, sched, t_end, snapshot_times=times,
                        n_snapshots=7)
        want = integrate(state, cfg, sched, t_end, tol=1e-13,
                         snapshot_times=times, n_snapshots=7)
        assert np.array_equal(got.times, want.times)
        for k in range(len(want.times)):
            g, w = got.state(k), want.state(k)
            for mm, (_, amps) in w.sectors.items():
                np.testing.assert_allclose(
                    g.sectors[mm][1], amps, rtol=0, atol=1e-9
                )

    def test_all_sectors_take_one_integration(self, monkeypatch):
        # one DP45 run per ramp of the t_tof >= 2 bump, each over all sectors
        # stacked; a bump with overlapping ramps takes one run in all
        runs = spy_on_ramp_runs(monkeypatch)
        cfg, state = random_detuned_state(Kind.LAMBDA, 2, 1, (0.2, -0.1), 15)
        assert len(state.sectors) == 2
        traj = integrate(state, cfg, CouplingSchedule(mode="bump", t_tof=3.0), 3.0)
        n = traj.amplitudes.shape[1]
        assert runs == [(n, 0.0, 1.0), (n, 2.0, 3.0)]
        runs.clear()
        integrate(state, cfg, CouplingSchedule(mode="bump", t_tof=1.9), 1.9)
        assert runs == [(n, 0.0, 1.9)]
        # the sectors are disjoint views of the trajectory's one array:
        # writing into one touches no other
        snap = traj.state(-1)
        for _, amps in snap.sectors.values():
            assert np.shares_memory(amps, traj.amplitudes)
        before = snap.sectors[3][1].copy()
        snap.sectors[1][1][:] = 0.0
        assert snap.sectors[3][1].tobytes() == before.tobytes()

    @pytest.mark.parametrize("row_block", [None, 37])
    def test_rows_match_the_whole_array_formula(self, row_block, monkeypatch):
        # a detuned na = 2 pass on sectors 1 and 3 in the single-run regime
        # (ramps that overlap); 37 amplitudes make blocks of 5 rows of 7
        if row_block is not None:
            monkeypatch.setattr(dynamics, "_ROW_BLOCK", row_block)
        runs = record_integrate_ode(monkeypatch)
        cfg, state = random_detuned_state(Kind.XI, 2, 1, (0.2, -0.15), 21)
        traj = integrate(state, cfg, CouplingSchedule(mode="bump", t_tof=1.9),
                         4.0, n_snapshots=50)
        ((_, samples, _),) = runs
        layout, _, e0, _ = dynamics._block_system(state.sectors, cfg)
        ts = np.array([t for t, _ in samples])
        ys = np.array([y for _, y in samples])
        want = np.exp((-1j * e0)[None, :] * ts[:, None]) * ys
        assert traj.amplitudes.shape == (51, 7)
        assert np.array_equal(traj.amplitudes, want)
        assert traj.stats.max_norm_drift == drift_of(ys, state, layout)

    @pytest.mark.parametrize("row_block", [None, 37])
    def test_split_rows_match_the_whole_array_formula(
        self, row_block, monkeypatch
    ):
        # the same pass with t_tof = 3.7 and t_end = 4.9: ramp rows are
        # their runs' samples, plateau rows one product over all times,
        # rows past the exit one free phase.  Blocks of 5 rows leave every
        # elementwise row bit for bit; a plateau block of one row is a
        # matrix-vector product, whose sums may round differently
        if row_block is not None:
            monkeypatch.setattr(dynamics, "_ROW_BLOCK", row_block)
        runs = record_integrate_ode(monkeypatch)
        cfg, state = random_detuned_state(Kind.XI, 2, 1, (0.2, -0.15), 21)
        t_tof = 3.7
        traj = integrate(state, cfg, CouplingSchedule(mode="bump", t_tof=t_tof),
                         4.9, n_snapshots=49)
        (_, entry, entry_stats), (plateau_end, exit_, exit_stats) = runs
        layout, e, e0, h = dynamics._block_system(state.sectors, cfg)
        times = traj.times
        on_plateau = (times > 1.0) & (times < t_tof - 1.0)
        past = times > t_tof
        assert entry[-1][0] == 1.0 and exit_[-1][0] == t_tof
        phi_in, phi_out = entry[-1][1], exit_[-1][1]
        ts = times.copy()
        rows = np.empty((len(times), 7), dtype=complex)
        ramp_rows = [k for k in range(len(times))
                     if not (on_plateau[k] or past[k])]
        ramp_samples = entry[:-1] + exit_[:-1]
        assert len(ramp_rows) == len(ramp_samples)
        for k, (t, y) in zip(ramp_rows, ramp_samples):
            ts[k], rows[k] = t, y
        eig = dynamics._plateau_eigensystems(layout, e - e0, h)
        for m, (_, sl) in layout.items():
            lam, w = eig[m]
            tau = times[on_plateau] - 1.0
            c = w.conj().T @ phi_in[sl]
            rows[np.ix_(on_plateau, np.arange(7)[sl])] = (
                np.exp(-1j * np.outer(tau, lam)) * c) @ w.T
            # the exit run starts from the exact plateau state
            np.testing.assert_array_equal(
                plateau_end[sl], w @ (np.exp(-1j * (t_tof - 2.0) * lam) * c)
            )
        free = np.exp(-1j * np.outer(times[past] - t_tof, e - e0))
        rows[past] = free * phi_out
        want = np.exp((-1j * e0)[None, :] * ts[:, None]) * rows
        assert on_plateau.sum() > 5 and past.sum() > 5
        exact = ~on_plateau if row_block else slice(None)
        assert np.array_equal(traj.amplitudes[exact], want[exact])
        np.testing.assert_allclose(traj.amplitudes, want, rtol=0, atol=1e-15)
        assert traj.stats.max_norm_drift == pytest.approx(
            drift_of(rows, state, layout), rel=0,
            abs=1e-15 if row_block else 0.0,
        )
        assert traj.stats.steps == entry_stats.steps + exit_stats.steps
        assert traj.stats.rejected == entry_stats.rejected + exit_stats.rejected

    def test_rows_take_one_array_besides_the_samples(self):
        # 2001 snapshots of one 231-state sector (na = 20): the samples and
        # the rows are 7.4 MB each and the N^2 matrices of the right-hand
        # side about 6 MB more; a phase array and a product beside the rows
        # took the peak from 2.8 to 4.4 times the rows
        state = ground_product_state(REF, 40, na=20)
        tracemalloc.start()
        try:
            traj = integrate(state, REF, CONSTANT_SCHEDULE, 0.01, n_snapshots=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.amplitudes.shape == (2001, 231)
        assert peak < 3.5 * traj.amplitudes.nbytes


# where t_end falls on a bump with t_tof >= 2, as a function of t_tof and a
# fraction in (0, 1)
_T_END = {
    "entry ramp": lambda t_tof, frac: frac,
    "1": lambda t_tof, frac: 1.0,
    "plateau": lambda t_tof, frac: 1.0 + frac * (t_tof - 2.0),
    "t_tof - 1": lambda t_tof, frac: t_tof - 1.0,
    "exit ramp": lambda t_tof, frac: t_tof - 1.0 + frac,
    "t_tof": lambda t_tof, frac: t_tof,
    "past": lambda t_tof, frac: t_tof + 2.0 * frac,
}


class TestSplitBumpPass:
    """integrate on a bump with t_tof >= 2 (DP45 ramps, exact plateau and
    free phase after the exit) against one whole-pass DP45 run."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 3),
        m=st.integers(0, 3),
        deltas=st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        ),
        t_tof=st.floats(2.0, 8.0),
        where=st.sampled_from(list(_T_END)),
        frac=st.floats(0.01, 0.99),
        fracs=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 2**16),
    )
    @example(kind=Kind.XI, na=1, m=1, deltas=(0.0, 0.0), t_tof=5.749,
             where="t_tof", frac=0.5, fracs=[0.3], seed=1)
    @example(kind=Kind.LAMBDA, na=3, m=2, deltas=(1.5, -1.5), t_tof=2.0,
             where="past", frac=0.99, fracs=[0.01, 0.5], seed=2)
    @example(kind=Kind.V, na=2, m=0, deltas=(0.4, -0.2), t_tof=8.0,
             where="exit ramp", frac=0.01, fracs=[], seed=3)
    def test_matches_one_tight_run_of_the_whole_pass(
        self, kind, na, m, deltas, t_tof, where, frac, fracs, seed
    ):
        cfg, state = random_detuned_state(kind, na, m, deltas, seed)
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        t_end = _T_END[where](t_tof, frac)
        # requested times, the piece boundaries among them
        times = [t_end * f for f in fracs] + [
            b for b in (1.0, t_tof - 1.0, t_tof) if b <= t_end
        ]
        traj = integrate(state, cfg, sched, t_end, snapshot_times=times,
                         n_snapshots=9)
        for t in times:
            traj.state_at(t)
        layout, e, e0, h = dynamics._block_system(state.sectors, cfg)
        y0 = np.concatenate([state.sectors[mm][1] for mm in layout])
        rhs = _frame_rhs(e - e0, h, sched.envelope)
        samples, _ = integrate_ode(rhs, y0, 0.0, t_end, 1e-13, traj.times)
        want = np.array([np.exp(-1j * e0 * t) * phi for t, phi in samples])
        assert traj.amplitudes[0].tobytes() == y0.tobytes()
        np.testing.assert_allclose(traj.amplitudes, want, rtol=0, atol=1e-9)

    def test_readme_second_pass_takes_at_most_200_dp45_attempts(
        self, monkeypatch
    ):
        # the README library example; as one run from t = 0 its second
        # pass took 436 attempted steps, the two ramp runs take 159
        from cnlight import protocol

        trajs = []
        real = protocol.integrate

        def recording(*args, **kwargs):
            trajs.append(real(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(protocol, "integrate", recording)
        spec = protocol.ProtocolSpec(
            config=REF, nu0=3, theta=math.pi / 4,
            passes=(
                protocol.PassSpec(schedule=CouplingSchedule(mode="bump", t_tof=8.0)),
                protocol.PassSpec(
                    schedule=CouplingSchedule(mode="bump", t_tof=5.749),
                    exit_policy="search",
                ),
            ),
        )
        _, second = protocol.run_protocol(spec)
        stats = trajs[-1].stats
        assert trajs[-1].times[-1] == second.exit_time
        assert stats.steps + stats.rejected <= 200


# ---------------------------------------------------------------------------
# SectorPropagator: engine choice and agreement with the integrator

_ALLOWED = {
    Kind.XI: ("mu12", "mu23"),
    Kind.V: ("mu12", "mu13"),
    Kind.LAMBDA: ("mu13", "mu23"),
}
# the detunings that enter each kind's level frequencies
_DETUNINGS = {
    Kind.XI: ("delta12", "delta23"),
    Kind.V: ("delta12", "delta13"),
    Kind.LAMBDA: ("delta13", "delta23"),
}


def random_resonant_state(kind, na, m, seed):
    """Resonant config plus a random state on sectors m and m + 2."""
    rng = np.random.default_rng(seed)
    cfg = AtomicConfig(
        kind=kind, **{name: rng.uniform(0.3, 1.5) for name in _ALLOWED[kind]}
    )
    sectors = {}
    for mm in (m, m + 2):
        basis = build_sector_basis(cfg, na, mm)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        sectors[mm] = (basis, amps)
    norm = math.sqrt(sum(np.sum(np.abs(a) ** 2) for _, a in sectors.values()))
    return cfg, SystemState(
        sectors={mm: (b, a / norm) for mm, (b, a) in sectors.items()}
    )


def random_detuned_state(kind, na, m, deltas, seed):
    """Config with the given detunings plus a random state on m and m + 2."""
    cfg, state = random_resonant_state(kind, na, m, seed)
    mus = {name: getattr(cfg, name) for name in _ALLOWED[kind]}
    cfg = AtomicConfig(kind=kind, **mus, **dict(zip(_DETUNINGS[kind], deltas)))
    return cfg, state


def integrate_sectors_alone(state, cfg, schedule, t_end, tol, times):
    """{m: physical amplitudes at ``times``}, one integrate_ode run per sector,
    each in the frame rotating at the energy of the sector's first state."""
    out = {}
    for m, (basis, amps) in state.sectors.items():
        e = np.array([diagonal_energy(s, cfg) for s in basis.states])
        e0 = np.full_like(e, e[0])
        rhs = _frame_rhs(e - e0, interaction_matrix(cfg, basis), schedule.envelope)
        samples, _ = integrate_ode(rhs, amps, 0.0, t_end, tol, times)
        out[m] = [np.exp(-1j * e0 * t) * phi for t, phi in samples]
    return out


def record_integrate_ode(monkeypatch):
    """Record (y0, samples, stats) of every integrate_ode run."""
    runs = []
    real = dynamics.integrate_ode

    def recording(f, y0, *args, **kwargs):
        samples, stats = real(f, y0, *args, **kwargs)
        runs.append((np.copy(y0), samples, stats))
        return samples, stats

    monkeypatch.setattr(dynamics, "integrate_ode", recording)
    return runs


def spy_on_ramp_runs(monkeypatch):
    """Record (size of y0, t0, t_end) of every integrate_ode run."""
    runs = []
    real = dynamics.integrate_ode

    def spy(f, y0, t0, t_end, *args, **kwargs):
        runs.append((np.size(y0), t0, t_end))
        return real(f, y0, t0, t_end, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_ode", spy)
    return runs


def drift_of(rows, state, layout):
    """Largest change of any sector's norm over the rows."""
    return max(
        float(np.max(np.abs(np.linalg.norm(rows[:, sl], axis=1)
                            - np.linalg.norm(state.sectors[m][1]))))
        for m, (_, sl) in layout.items()
    )


def spy_on_integrate(monkeypatch):
    """Record (t_end, tol) of every dynamics.integrate call."""
    calls = []
    real = dynamics.integrate

    def spy(initial, config, schedule, t_end, tol=dynamics.DEFAULT_TOL, **kwargs):
        calls.append((float(t_end), tol))
        return real(initial, config, schedule, t_end, tol=tol, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", spy)
    return calls


def spy_on_integrate_ode(monkeypatch):
    """Record the rank of y0 of every integrate_ode call: 2 for a ramp."""
    ranks = []
    real = dynamics.integrate_ode

    def spy(f, y0, *args, **kwargs):
        ranks.append(np.ndim(y0))
        return real(f, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_ode", spy)
    return ranks


# the exact engines agree with integrate(tol=1e-11) to 1e-9; one integration
# at SEARCH_TOL = 1e-9 per step drifts up to about 2e-8 over a pass
FALLBACK_ATOL = 1e-7


def assert_matches_integrator(state, cfg, sched, times, atol):
    """SectorPropagator against integrate(tol=1e-11) at every time."""
    got = SectorPropagator(state, cfg).states_at(sched, times)
    want = integrate(state, cfg, sched, max(times), tol=1e-11,
                     snapshot_times=times, n_snapshots=1)
    for t, g in zip(times, got):
        assert sorted(g.sectors) == sorted(state.sectors)
        for mm, (_, amps) in want.state_at(t).sectors.items():
            np.testing.assert_allclose(g.sectors[mm][1], amps, rtol=0, atol=atol)


def assert_exits_match_integrator(state, cfg, t_tofs, atols):
    """SectorPropagator.exit_states of one batch against integrate(tol=1e-11)
    of each flight, to the matching entry of ``atols``."""
    got = SectorPropagator(state, cfg).exit_states(t_tofs)
    assert len(got) == len(t_tofs)
    for t_tof, atol, g in zip(t_tofs, atols, got):
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        want = integrate(state, cfg, sched, t_tof, tol=1e-11, n_snapshots=1)
        assert sorted(g.sectors) == sorted(state.sectors)
        for mm, (_, amps) in want.state(-1).sectors.items():
            np.testing.assert_allclose(g.sectors[mm][1], amps, rtol=0, atol=atol)


def spy_on_quadrature(monkeypatch):
    """Record the time of every quadrature of the envelope."""
    times = []
    real = dynamics._quadrature_area

    def spy(schedule, t):
        times.append(t)
        return real(schedule, t)

    monkeypatch.setattr(dynamics, "_quadrature_area", spy)
    return times


class TestPulseArea:
    """The closed-form area of a full bump against its quadrature."""

    @settings(max_examples=200, deadline=None)
    @given(t_tof=st.floats(2.0, 20.0), frac=st.floats(0.0, 1.0))
    @example(t_tof=2.0, frac=0.0)
    @example(t_tof=5.749, frac=1.0)
    def test_plateau_matches_the_quadrature_bit_for_bit(self, t_tof, frac):
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        t = min(1.0 + frac * (t_tof - 2.0), t_tof - 1.0)
        assert _pulse_area(sched, t) == 0.5 + (t - 1.0)
        assert _pulse_area(sched, t) == _quadrature_area(sched, t)

    @settings(max_examples=200, deadline=None)
    @given(t_tof=st.floats(2.0, 20.0), past=st.floats(0.0, 10.0))
    @example(t_tof=2.0, past=0.0)
    @example(t_tof=20.0, past=0.0)
    def test_exit_and_past_match_the_quadrature_bit_for_bit(self, t_tof, past):
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        t = t_tof + past
        assert _pulse_area(sched, t) == t_tof - 1.0
        assert _pulse_area(sched, t) == _quadrature_area(sched, t)

    def test_closed_forms_take_no_quadrature(self, monkeypatch):
        calls = spy_on_quadrature(monkeypatch)
        sched = CouplingSchedule(mode="bump", t_tof=5.749)
        for t in (1.0, 2.5, 4.749, 5.749, 9.0):
            _pulse_area(sched, t)
        assert calls == []

    @pytest.mark.parametrize("t_tof, t", [
        (5.749, 0.3),      # entry ramp
        (5.749, 0.999),
        (5.749, 5.2),      # exit ramp
        (2.0, 1.5),
        (1.999, 1.0),      # overlapping ramps, at every time
        (1.5, 0.75),
        (1.5, 1.5),
        (0.5, 3.0),
    ])
    def test_partial_ramps_and_short_flights_take_the_quadrature(
        self, monkeypatch, t_tof, t
    ):
        calls = spy_on_quadrature(monkeypatch)
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        area = _pulse_area(sched, t)
        assert calls == [t]
        cuts = [c for c in (1.0, t_tof - 1.0) if 0.0 < c < t]
        want, _ = quad(lambda x: bump(t_tof, x), 0.0, t, points=cuts or None,
                       epsabs=1e-12, epsrel=1e-12)
        assert area == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5, 7.1, 19.9])
    def test_constant_schedule_returns_t(self, monkeypatch, t):
        calls = spy_on_quadrature(monkeypatch)
        assert _pulse_area(CONSTANT_SCHEDULE, t) == pytest.approx(t, rel=1e-15, abs=0)
        assert calls == [t]


class TestExactPropagator:
    """SectorPropagator on resonant sectors: the exact pulse-area closed form."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 4),
        m=st.integers(0, 4),
        mode=st.sampled_from(["constant", "bump"]),
        t_tof=st.floats(0.5, 6.0),
        frac=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    # short flights (overlapping ramps) and partial passes, in and past a ramp
    @example(kind=Kind.XI, na=1, m=3, mode="bump", t_tof=1.5, frac=0.6, seed=1)
    @example(kind=Kind.V, na=2, m=2, mode="bump", t_tof=1.5, frac=1.0, seed=2)
    @example(kind=Kind.LAMBDA, na=4, m=3, mode="bump", t_tof=5.0, frac=0.9, seed=3)
    @example(kind=Kind.XI, na=3, m=4, mode="bump", t_tof=5.0, frac=0.5, seed=4)
    @example(kind=Kind.XI, na=2, m=1, mode="constant", t_tof=4.0, frac=1.0, seed=5)
    # na = 5 and 6, with sectors of dimension up to 27
    @example(kind=Kind.V, na=5, m=4, mode="bump", t_tof=4.5, frac=1.0, seed=6)
    @example(kind=Kind.XI, na=6, m=4, mode="bump", t_tof=3.5, frac=0.7, seed=7)
    @example(kind=Kind.LAMBDA, na=6, m=3, mode="constant", t_tof=2.5, frac=1.0, seed=8)
    def test_matches_integrator(self, kind, na, m, mode, t_tof, frac, seed):
        cfg, state = random_resonant_state(kind, na, m, seed)
        if mode == "bump":
            sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        else:
            sched = CONSTANT_SCHEDULE
        t = t_tof * frac
        want = integrate(state, cfg, sched, t, tol=1e-11, n_snapshots=1)
        (got,) = SectorPropagator(state, cfg).states_at(sched, [t])
        assert sorted(got.sectors) == sorted(state.sectors)
        for mm, (_, amps) in want.state(-1).sectors.items():
            np.testing.assert_allclose(got.sectors[mm][1], amps, rtol=0, atol=1e-9)

    def test_time_zero_returns_the_initial_state(self):
        cfg, state = random_resonant_state(Kind.V, 2, 2, 7)
        (got,) = SectorPropagator(state, cfg).states_at(CONSTANT_SCHEDULE, [0.0])
        for mm, (_, amps) in state.sectors.items():
            np.testing.assert_allclose(got.sectors[mm][1], amps, atol=1e-15)

    def test_full_bump_is_a_plateau_of_area_t_tof_minus_one(self):
        # a full pass of duration T >= 2 equals flat coupling for T - 1,
        # up to the bare phase exp(-i m T)
        state = make_superposition(1, 3, 0.4, 0.3, 1, REF)
        t_tof = 5.3
        prop = SectorPropagator(state, REF)
        (bumped,) = prop.states_at(CouplingSchedule(mode="bump", t_tof=t_tof), [t_tof])
        (flat,) = prop.states_at(CONSTANT_SCHEDULE, [t_tof - 1.0])
        for mm in state.sectors:
            np.testing.assert_allclose(
                bumped.sectors[mm][1],
                np.exp(-1j * mm) * flat.sectors[mm][1],
                atol=1e-13,
            )

    @pytest.mark.parametrize(
        "kind,name",
        [(k, d) for k, names in _DETUNINGS.items() for d in names],
    )
    @pytest.mark.parametrize("delta", [0.1, -1e-9])
    def test_any_detuning_is_refused(self, kind, name, delta, monkeypatch):
        # the closed form would be a silent approximation: one integration
        mus = {mu: 1.0 for mu in _ALLOWED[kind]}
        cfg = AtomicConfig(kind=kind, **mus, **{name: delta})
        state = make_superposition(1, 3, 0.5, 0.0, 1, cfg)
        calls = spy_on_integrate(monkeypatch)
        SectorPropagator(state, cfg).states_at(CONSTANT_SCHEDULE, [0.5])
        assert calls == [(0.5, SEARCH_TOL)]

    def test_negative_time_is_refused(self):
        prop = SectorPropagator(ground_product_state(REF, 3), REF)
        for times in ([-0.1], [1.0, math.nan], [math.inf], []):
            with pytest.raises(ValidationError):
                prop.states_at(CONSTANT_SCHEDULE, times)


class TestFlightPropagator:
    """SectorPropagator on full flights: ramps joined by the exact plateau."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(Kind)),
        na=st.integers(1, 4),
        m=st.integers(0, 4),
        deltas=st.tuples(
            st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
            st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
        ),
        t_tof=st.floats(2.0, 8.0),
        seed=st.integers(0, 2**16),
    )
    # the shortest full bump has no plateau at all
    @example(kind=Kind.XI, na=1, m=3, deltas=(0.1, -0.05), t_tof=2.0, seed=1)
    @example(kind=Kind.V, na=3, m=2, deltas=(0.0, 0.0), t_tof=2.0, seed=2)
    @example(kind=Kind.LAMBDA, na=6, m=4, deltas=(0.3, -0.2), t_tof=6.5, seed=3)
    @example(kind=Kind.XI, na=6, m=3, deltas=(-0.4, 0.25), t_tof=2.0, seed=4)
    def test_matches_integrator(self, kind, na, m, deltas, t_tof, seed):
        cfg, state = random_detuned_state(kind, na, m, deltas, seed)
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        want = integrate(state, cfg, sched, t_tof, tol=1e-11, n_snapshots=1)
        (got,) = SectorPropagator(state, cfg).exit_states([t_tof])
        assert sorted(got.sectors) == sorted(state.sectors)
        for mm, (_, amps) in want.state(-1).sectors.items():
            np.testing.assert_allclose(got.sectors[mm][1], amps, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t_tof", [1.999, 1.0, 0.5])
    def test_overlapping_ramps_are_refused(self, t_tof, monkeypatch):
        # the ramps overlap below 2: one integration, no ramp
        cfg, state = random_detuned_state(Kind.V, 1, 2, (0.2, 0.1), 10)
        calls = spy_on_integrate(monkeypatch)
        ranks = spy_on_integrate_ode(monkeypatch)
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        SectorPropagator(state, cfg).states_at(sched, [t_tof])
        assert len(state.sectors) == 2
        assert calls == [(t_tof, SEARCH_TOL)]
        assert ranks == [1]   # one run for both sectors


class TestSectorPropagator:
    """Regime edges and the work each regime does."""

    @pytest.mark.parametrize("t_tof,atol", [(2.0, 1e-9), (1.999, FALLBACK_ATOL)])
    def test_exit_states_on_both_sides_of_two(self, t_tof, atol):
        cfg, state = random_detuned_state(Kind.XI, 2, 2, (0.13, -0.07), 11)
        assert_exits_match_integrator(state, cfg, [t_tof], [atol])

    def test_exit_batch_straddling_two(self, monkeypatch):
        # one kernel call serves the flights of 2 and more, in any order
        # among the shorter ones; each shorter one takes its own integration
        cfg, state = random_detuned_state(Kind.XI, 2, 2, (0.13, -0.07), 11)
        t_tofs = [3.7, 1.999, 2.0, 1.5, 2.0001, 5.25]
        atols = [1e-9 if t >= 2.0 else FALLBACK_ATOL for t in t_tofs]
        assert_exits_match_integrator(state, cfg, t_tofs, atols)
        calls = spy_on_integrate(monkeypatch)
        ranks = spy_on_integrate_ode(monkeypatch)
        SectorPropagator(state, cfg).exit_states(t_tofs)
        assert calls == [(1.999, SEARCH_TOL), (1.5, SEARCH_TOL)]
        assert ranks == [2, 1, 1]   # the ramp, then one run per short flight

    def test_batch_mixing_exit_and_partial_times(self, monkeypatch):
        cfg, state = random_detuned_state(Kind.LAMBDA, 2, 2, (0.2, -0.1), 12)
        sched = CouplingSchedule(mode="bump", t_tof=5.0)
        times = [0.4, 2.5, 5.0, 4.6]
        assert_matches_integrator(state, cfg, sched, times, atol=FALLBACK_ATOL)
        calls = spy_on_integrate(monkeypatch)
        prop = SectorPropagator(state, cfg)
        mixed = prop.states_at(sched, times)
        assert calls == [(5.0, SEARCH_TOL)]
        (alone,) = prop.exit_states([5.0])
        assert calls == [(5.0, SEARCH_TOL)]   # the exit state takes the ramps
        for mm, (_, amps) in alone.sectors.items():
            np.testing.assert_allclose(
                mixed[2].sectors[mm][1], amps, rtol=0, atol=FALLBACK_ATOL
            )

    @pytest.mark.parametrize("t_tof", [2.0, 4.5])
    def test_one_dimensional_sector_next_to_a_detuned_one(self, t_tof):
        cfg = AtomicConfig(kind=Kind.XI, mu12=0.9, mu23=1.3,
                           delta12=0.2, delta23=-0.15)
        state = make_superposition(0, 2, 0.7, 0.4, 1, cfg)
        assert [len(b) for b, _ in state.sectors.values()] == [1, 3]
        sched = CouplingSchedule(mode="bump", t_tof=t_tof)
        assert_exits_match_integrator(state, cfg, [t_tof], [1e-9])
        assert_matches_integrator(state, cfg, sched, [0.5, t_tof], atol=FALLBACK_ATOL)

    @pytest.mark.parametrize("regime", ["closed form", "flight", "fallback"])
    @pytest.mark.parametrize("fill", [2.0, math.nan], ids=["norm 2", "nan"])
    def test_initial_state_is_checked_as_integrate_checks_it(self, regime, fill):
        # the exact engines once returned a state of norm 2 unchanged, and
        # NaN rows for a NaN amplitude
        deltas = (0.0, 0.0) if regime == "closed form" else (0.2, -0.1)
        cfg, state = random_detuned_state(Kind.XI, 1, 1, deltas, 15)
        bad = SystemState(sectors={
            m: (basis, amps * fill) if m == 1 else (basis, amps)
            for m, (basis, amps) in state.sectors.items()
        })
        if fill == 2.0:
            assert bad.norm() > 1.1
        sched = CouplingSchedule(mode="bump", t_tof=3.0)
        with pytest.raises(ValidationError):
            integrate(bad, cfg, sched, 3.0)
        with pytest.raises(ValidationError):
            prop = SectorPropagator(bad, cfg)
            if regime == "fallback":
                prop.states_at(sched, [1.5])
            else:
                prop.states_at(sched, [3.0])
                prop.exit_states([3.0])

    def test_resonant_propagator_never_integrates(self, monkeypatch):
        ranks = spy_on_integrate_ode(monkeypatch)
        cfg, state = random_resonant_state(Kind.XI, 2, 2, 13)
        prop = SectorPropagator(state, cfg)
        for t_tof in (1.5, 2.0, 5.0):
            sched = CouplingSchedule(mode="bump", t_tof=t_tof)
            prop.states_at(sched, [t_tof])
            prop.states_at(sched, [0.3, t_tof / 2, t_tof])
        prop.states_at(CONSTANT_SCHEDULE, [0.0, 3.0])
        prop.exit_states([1.5, 2.0, 5.0])
        assert ranks == []

    def test_detuned_ramps_integrate_once_per_state_on_demand(self, monkeypatch):
        ranks = spy_on_integrate_ode(monkeypatch)
        cfg, state = random_detuned_state(Kind.V, 2, 2, (0.2, 0.1), 14)
        assert len(state.sectors) == 2
        prop = SectorPropagator(state, cfg)
        assert ranks == []
        prop.states_at(CouplingSchedule(mode="bump", t_tof=5.0), [3.0])
        assert ranks == [1]         # a partial pass takes no ramp
        for t_tof in (2.0, 3.3, 5.0, 7.5, 3.3):
            prop.exit_states([t_tof])
        assert ranks == [1, 2]      # one ramp run for both sectors

    @pytest.mark.parametrize("deltas", [(0.0, 0.0), (0.1, 0.0)],
                             ids=["resonant", "detuned"])
    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.0]])
    def test_times_at_zero_return_the_initial_state(self, deltas, times, monkeypatch):
        # a detuned propagator once handed t_end = 0 to integrate, which
        # refuses it, while the closed form returned the initial state
        cfg = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=1.0,
                           delta12=deltas[0], delta23=deltas[1])
        state = make_superposition(1, 3, 0.5, 0.0, 1, cfg)
        calls = spy_on_integrate(monkeypatch)
        got = SectorPropagator(state, cfg).states_at(CONSTANT_SCHEDULE, times)
        assert calls == []
        assert len(got) == len(times)
        for g in got:
            assert sorted(g.sectors) == sorted(state.sectors)
            for mm, (_, amps) in state.sectors.items():
                np.testing.assert_allclose(g.sectors[mm][1], amps, rtol=0, atol=1e-15)
