"""Closed-form sector results checked against a dense matrix-exponential oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cnlight.analytic_core import (
    Branch,
    balanced_coupling,
    balanced_detuning_residual,
    dressed_linear_entropy,
    dressed_states,
    evolve_ground_analytic,
    propagator,
    rabi_frequency,
    step_spectrum,
    switching_time,
)
from cnlight.dynamics import SystemState, diagonal_energy, interaction_matrix
from cnlight.errors import (
    DegenerateSectorError,
    DetuningConditionError,
    SectorTooSmallError,
    ValidationError,
)
from cnlight.hilbert import AtomicConfig, Kind, build_sector_basis
from cnlight.observables import linear_entropy, reduce_field

REF = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0))

ALL_KINDS = [Kind.XI, Kind.V, Kind.LAMBDA]


def random_config(kind, rng, detuned=True):
    """Draw couplings and a detuning satisfying the solvable condition."""
    mu = {"mu12": 0.0, "mu13": 0.0, "mu23": 0.0}
    allowed = {
        Kind.XI: ("mu12", "mu23"),
        Kind.V: ("mu12", "mu13"),
        Kind.LAMBDA: ("mu13", "mu23"),
    }[kind]
    for name in allowed:
        mu[name] = rng.uniform(0.3, 2.0)
    d = rng.uniform(-1.5, 1.5) if detuned else 0.0
    det = {
        Kind.XI: {"delta12": d, "delta23": -d},
        Kind.V: {"delta12": d, "delta13": d},
        Kind.LAMBDA: {"delta13": d, "delta23": d},
    }[kind]
    return AtomicConfig(kind=kind, **mu, **det)


def sector_hamiltonian(config, m):
    """Dense one-atom sector Hamiltonian, ordered like the closed forms."""
    basis = build_sector_basis(config, 1, m)
    assert len(basis) == 3
    diag = [diagonal_energy(s, config) for s in basis.states]
    return interaction_matrix(config, basis) + np.diag(diag)


# ---------------------------------------------------------------------------
# step spectrum


def test_reference_spectrum_m3():
    spec = step_spectrum(REF, 3)
    assert spec.e_plus == pytest.approx(3.0 + math.sqrt(7.0), abs=1e-14)
    assert spec.e_zero == 3.0
    assert spec.e_minus == pytest.approx(3.0 - math.sqrt(7.0), abs=1e-14)
    assert spec.cal_e == pytest.approx(math.sqrt(7.0), abs=1e-14)


def test_lambda_spectrum_m1():
    cfg = AtomicConfig(kind=Kind.LAMBDA, mu13=1.0, mu23=math.sqrt(2.0))
    spec = step_spectrum(cfg, 1)
    assert spec.e_plus == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-14)
    assert spec.e_minus == pytest.approx(1.0 - math.sqrt(3.0), abs=1e-14)
    assert spec.e_zero == 1.0


def test_uncoupled_spectrum_collapses_to_m():
    # every branch sits at the bare sector energy when nothing couples
    spec = step_spectrum(AtomicConfig(kind=Kind.V), 4)
    assert (spec.e_plus, spec.e_zero, spec.e_minus) == (4.0, 4.0, 4.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_spectrum_matches_dense_eigenvalues(kind):
    rng = np.random.default_rng(7)
    for _ in range(5):
        cfg = random_config(kind, rng)
        m = int(rng.integers(2, 7))
        plus, zero, minus = dressed_states(cfg, m)
        got = sorted([plus.energy, zero.energy, minus.energy])
        want = np.linalg.eigvalsh(sector_hamiltonian(cfg, m))
        assert np.allclose(got, want, atol=1e-12)


def test_detuning_condition_enforced():
    bad = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=1.0, delta12=0.3)
    with pytest.raises(DetuningConditionError):
        step_spectrum(bad, 2)


def test_sector_too_small():
    with pytest.raises(SectorTooSmallError):
        step_spectrum(REF, 0)
    with pytest.raises(SectorTooSmallError):
        rabi_frequency(REF, -1)


# ---------------------------------------------------------------------------
# dressed states


def test_zero_branch_examples():
    cfg = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=1.0)
    _, zero, _ = dressed_states(cfg, 2)
    want = np.array([-math.sqrt(2.0), 0.0, 1.0]) / math.sqrt(3.0)
    assert np.allclose(zero.amps, want, atol=1e-14)

    # m = 1: the sqrt(m-1) weight vanishes and the dark state is the first ket
    _, zero1, _ = dressed_states(cfg, 1)
    assert np.allclose(zero1.amps, [-1.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dressed_states_are_eigenvectors(kind):
    rng = np.random.default_rng(11)
    for _ in range(6):
        cfg = random_config(kind, rng)
        m = int(rng.integers(2, 7))
        h = sector_hamiltonian(cfg, m)
        for d in dressed_states(cfg, m):
            residual = h @ d.amps - d.energy * d.amps
            assert np.max(np.abs(residual)) < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dressed_states_orthonormal_on_resonance(kind):
    rng = np.random.default_rng(13)
    cfg = random_config(kind, rng, detuned=False)
    mat = np.column_stack([d.amps for d in dressed_states(cfg, 3)])
    assert np.allclose(mat.conj().T @ mat, np.eye(3), atol=1e-12)


def test_dressed_energies_match_spectrum():
    plus, _, minus = dressed_states(REF, 3)
    spec = step_spectrum(REF, 3)
    assert plus.energy == pytest.approx(spec.e_plus, abs=1e-14)
    assert minus.energy == pytest.approx(spec.e_minus, abs=1e-14)


def test_degenerate_sector_rejected():
    with pytest.raises(DegenerateSectorError):
        dressed_states(AtomicConfig(kind=Kind.V), 2)


# ---------------------------------------------------------------------------
# dressed-state entanglement


def test_entropy_examples_ladder():
    cfg = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=1.0)
    assert dressed_linear_entropy(cfg, Branch.ZERO, 2) == pytest.approx(4.0 / 9.0)
    assert dressed_linear_entropy(cfg, Branch.PLUS, 2) == pytest.approx(11.0 / 18.0)
    assert dressed_linear_entropy(cfg, Branch.MINUS, 2) == pytest.approx(11.0 / 18.0)


def test_dark_states_are_product_states():
    rng = np.random.default_rng(17)
    for kind in (Kind.V, Kind.LAMBDA):
        cfg = random_config(kind, rng)
        assert dressed_linear_entropy(cfg, "zero", 3) == 0.0


@pytest.mark.parametrize("kind", [Kind.V, Kind.LAMBDA])
@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
def test_resonant_bright_branches_half(kind, branch):
    rng = np.random.default_rng(19)
    cfg = random_config(kind, rng, detuned=False)
    assert dressed_linear_entropy(cfg, branch, 2) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("branch", list(Branch))
def test_entropy_closed_form_vs_reduction(kind, branch):
    rng = np.random.default_rng(23)
    for _ in range(4):
        cfg = random_config(kind, rng)
        m = int(rng.integers(2, 6))
        idx = {"plus": 0, "zero": 1, "minus": 2}[branch.value]
        d = dressed_states(cfg, m)[idx]
        basis = build_sector_basis(cfg, 1, m)
        state = SystemState(sectors={m: (basis, d.amps.astype(complex))})
        got = linear_entropy(reduce_field(state))
        assert got == pytest.approx(dressed_linear_entropy(cfg, branch, m), abs=1e-12)


def test_entropy_branch_swap_under_detuning_flip():
    cfg_p = AtomicConfig(kind=Kind.XI, mu12=0.7, mu23=1.3, delta12=0.9, delta23=-0.9)
    cfg_m = AtomicConfig(kind=Kind.XI, mu12=0.7, mu23=1.3, delta12=-0.9, delta23=0.9)
    assert dressed_linear_entropy(cfg_p, Branch.PLUS, 3) == pytest.approx(
        dressed_linear_entropy(cfg_m, Branch.MINUS, 3), abs=1e-14
    )


# ---------------------------------------------------------------------------
# propagator


def test_propagator_at_zero_is_identity():
    assert np.allclose(propagator(REF, 3, 0.0).u, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_propagator_refuses_non_finite_tau(tau):
    with pytest.raises(ValidationError, match="finite tau"):
        propagator(REF, 3, tau)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_propagator_matches_matrix_exponential(kind):
    rng = np.random.default_rng(29)
    for _ in range(6):
        cfg = random_config(kind, rng)
        m = int(rng.integers(2, 7))
        tau = rng.uniform(0.1, 8.0)
        want = expm(-1j * tau * sector_hamiltonian(cfg, m))
        got = propagator(cfg, m, tau).u
        assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_propagator_unitary_and_symmetric(kind):
    rng = np.random.default_rng(31)
    cfg = random_config(kind, rng)
    for tau in np.arange(0.1, 3.0, 0.4):
        u = propagator(cfg, 4, tau).u
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        assert np.max(np.abs(u - u.T)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    tau1=st.floats(0.0, 5.0, allow_nan=False),
    tau2=st.floats(0.0, 5.0, allow_nan=False),
)
def test_propagator_group_property(tau1, tau2):
    u1 = propagator(REF, 3, tau1).u
    u2 = propagator(REF, 3, tau2).u
    u12 = propagator(REF, 3, tau1 + tau2).u
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10


def test_resonant_collapse_v_and_lambda():
    # with only two flopping frequencies the resonant step revives exactly
    for kind in (Kind.V, Kind.LAMBDA):
        rng = np.random.default_rng(37)
        cfg = random_config(kind, rng, detuned=False)
        m = 3
        period = 2.0 * math.pi / step_spectrum(cfg, m).cal_e
        u = propagator(cfg, m, period).u
        assert np.allclose(u, cmath.exp(-1j * m * period) * np.eye(3), atol=1e-12)


def test_intermediate_amplitude_vanishes_at_switching_time():
    ts = switching_time(REF, 3)
    u = propagator(REF, 3, ts).u
    assert abs(u[1, 2]) < 1e-14
    assert abs(u[0, 2]) ** 2 + abs(u[2, 2]) ** 2 == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# ground-state passage helpers


def test_evolve_ground_is_last_propagator_column():
    amps = evolve_ground_analytic(REF, 3, 1.7)
    assert np.allclose(amps, propagator(REF, 3, 1.7).u[:, 2], atol=1e-15)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_evolve_ground_needs_full_sector():
    with pytest.raises(SectorTooSmallError):
        evolve_ground_analytic(REF, 1, 1.0)


def test_switching_time_reference_value():
    assert switching_time(REF, 3) == pytest.approx(math.pi / math.sqrt(7.0))
    assert switching_time(REF, 3, n=4) == pytest.approx(4.0 * math.pi / math.sqrt(7.0))


def test_switching_time_ladder_only():
    cfg = AtomicConfig(kind=Kind.V, mu12=1.0, mu13=1.0)
    with pytest.raises(ValidationError):
        switching_time(cfg, 3)
    with pytest.raises(ValidationError):
        switching_time(REF, 3, n=0)


# ---------------------------------------------------------------------------
# balance conditions


def test_balanced_coupling_values():
    assert balanced_coupling(2, 1.0, +1) == pytest.approx(
        (math.sqrt(2.0) + 1.0) / math.sqrt(2.0), abs=1e-15
    )
    assert balanced_coupling(3, math.sqrt(2.0), -1) == pytest.approx(
        (math.sqrt(2.0) - 1.0) * math.sqrt(2.0 / 3.0) * math.sqrt(2.0), abs=1e-15
    )


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("nu0", [2, 3, 5])
def test_balanced_coupling_balances_end_probabilities(sign, nu0):
    mu23 = 1.3
    cfg = AtomicConfig(
        kind=Kind.XI, mu12=balanced_coupling(nu0, mu23, sign), mu23=mu23
    )
    amps = evolve_ground_analytic(cfg, nu0, switching_time(cfg, nu0))
    assert abs(amps[0]) ** 2 == pytest.approx(abs(amps[2]) ** 2, abs=1e-10)


def test_balanced_detuning_residual_values():
    assert balanced_detuning_residual(2, 1.0, 1.0, 0.0) == pytest.approx(7.0 / 8.0)
    mu12 = balanced_coupling(3, 1.0, +1)
    assert balanced_detuning_residual(3, mu12, 1.0, 0.0) == pytest.approx(0.0, abs=1e-13)


def test_balanced_detuning_residual_no_root_when_couplings_too_skewed():
    # the photon-weight mismatch exceeds 1, so no detuning can close the gap
    values = [
        balanced_detuning_residual(2, 3.0, 1.0, d) for d in np.linspace(-8.0, 8.0, 161)
    ]
    assert max(values) < 0.0


def test_balance_validation():
    with pytest.raises(ValidationError):
        balanced_coupling(1, 1.0, +1)
    with pytest.raises(ValidationError):
        balanced_coupling(2, 0.0, +1)
    with pytest.raises(ValidationError):
        balanced_coupling(2, 1.0, 2)
    with pytest.raises(ValidationError):
        balanced_detuning_residual(2, -1.0, 1.0, 0.0)
