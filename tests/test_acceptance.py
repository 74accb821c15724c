"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run with -s to
see them on success; pytest replays them on failure).
"""

import math
import time

import numpy as np
import pytest

from cnlight.analytic_core import (
    Branch,
    dressed_linear_entropy,
    dressed_states,
    propagator,
    switching_time,
)
from cnlight.dynamics import (
    CONSTANT_SCHEDULE,
    CouplingSchedule,
    SystemState,
    diagonal_energy,
    ground_product_state,
    integrate,
    interaction_matrix,
    make_superposition,
)
from cnlight.hilbert import AtomicConfig, Kind, build_sector_basis
from cnlight.observables import (
    FieldDensityMatrix,
    detect_cyclic_symmetry,
    husimi,
    husimi_two_fock,
    husimi_values,
    linear_entropy,
    reduce_field,
)
from cnlight.protocol import (
    REFERENCE_CATS,
    find_tof_for_cat,
    first_passage,
    reference_config,
    subsequent_passage,
)

REF = reference_config()

ALL_KINDS = (Kind.XI, Kind.V, Kind.LAMBDA)

# expected (P(nu_lo), P(m2)) for the three bundled operating points
REFERENCE_PROBS = ((0.4993, 0.5000), (0.4851, 0.4985), (0.4935, 0.4918))


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_config(kind, rng, detuned=True):
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


def test_criterion_1_ode_matches_closed_form():
    """Adaptive integration agrees with the closed-form propagator."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for kind in ALL_KINDS:
        for _ in range(20):
            cfg = _random_config(kind, rng)
            m = int(rng.integers(2, 7))
            tau = float(rng.uniform(0.05, 10.0))
            basis = build_sector_basis(cfg, 1, m)
            y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            y0 /= np.linalg.norm(y0)
            state = SystemState(sectors={m: (basis, y0)})
            traj = integrate(state, cfg, CONSTANT_SCHEDULE, tau,
                             tol=1e-10, n_snapshots=1)
            _, got = traj.state(-1).sectors[m]
            want = propagator(cfg, m, tau).u @ y0
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 5.0
    _report(1, ok, f"60 random draws, worst deviation {worst:.3g} "
                   f"(< 1e-8), {elapsed:.2f} s (< 5 s)")


def test_criterion_2_closed_form_internal_consistency():
    """Unitarity, eigen-residuals and entropies at 1e-12."""
    rng = np.random.default_rng(202)
    worst_u = worst_res = worst_s = worst_half = 0.0
    for kind in ALL_KINDS:
        for _ in range(5):
            cfg = _random_config(kind, rng)
            m = int(rng.integers(2, 7))
            u = propagator(cfg, m, 1.234).u
            worst_u = max(worst_u, float(np.max(np.abs(
                u.conj().T @ u - np.eye(3)))))
            basis = build_sector_basis(cfg, 1, m)
            h = interaction_matrix(cfg, basis) + np.diag(
                [diagonal_energy(s, cfg) for s in basis.states])
            for d in dressed_states(cfg, m):
                worst_res = max(worst_res, float(np.max(np.abs(
                    h @ d.amps - d.energy * d.amps))))
            for i, branch in enumerate(Branch):
                ds = dressed_states(cfg, m)[i]
                got = linear_entropy(reduce_field(
                    SystemState(sectors={m: (basis, ds.amps)})))
                worst_s = max(worst_s, abs(
                    got - dressed_linear_entropy(cfg, branch, m)))
    for kind in (Kind.V, Kind.LAMBDA):
        cfg = _random_config(kind, rng, detuned=False)
        for branch in (Branch.PLUS, Branch.MINUS):
            worst_half = max(worst_half, abs(
                dressed_linear_entropy(cfg, branch, 3) - 0.5))
    ok = max(worst_u, worst_res, worst_s, worst_half) < 1e-12
    _report(2, ok, f"unitarity {worst_u:.3g}, eigen-residual {worst_res:.3g}, "
                   f"entropy {worst_s:.3g}, resonant-half {worst_half:.3g} "
                   f"(all < 1e-12)")


def test_criterion_3_first_passage_exit():
    """The exit search empties the intermediate photon component."""
    started = time.perf_counter()
    flat = first_passage(3, REF, CONSTANT_SCHEDULE)
    p_mid = max(flat.min_probability, float(flat.probabilities[2]))
    bump_rep = first_passage(3, REF, CouplingSchedule(mode="bump", t_tof=8.0))
    predicted = switching_time(REF, 3) + 0.5
    offset = abs(bump_rep.exit_time - predicted)
    elapsed = time.perf_counter() - started
    ok = p_mid < 1e-10 and offset < 0.15 and elapsed < 10.0
    _report(3, ok, f"P(2) at exit {p_mid:.3g} (< 1e-10), bump exit offset "
                   f"{offset:.3g} (< 0.15), {elapsed:.2f} s (< 10 s)")


def test_criterion_4_reference_operating_points():
    """Re-derive the bundled time-of-flight table from scratch."""
    started = time.perf_counter()
    details = []
    ok = True
    for ref, (p_first, p_last) in zip(REFERENCE_CATS, REFERENCE_PROBS):
        vec = np.zeros(ref.m2 + 1, dtype=complex)
        vec[ref.m1] = vec[ref.m2] = 1.0 / math.sqrt(2.0)
        field = FieldDensityMatrix(rho=np.outer(vec, vec.conj()))
        window = (0.85 * ref.t_tof, 1.15 * ref.t_tof)
        found = find_tof_for_cat(field, REF, window=window)
        rep = subsequent_passage(field, REF, found.t_tof)
        basis1 = build_sector_basis(REF, 1, ref.m1)
        nu_lo = min(s.nu for s in basis1.states)
        dev_t = abs(found.t_tof - ref.t_tof) / ref.t_tof
        dev_first = abs(float(rep.probabilities[nu_lo]) - p_first)
        dev_last = abs(float(rep.probabilities[ref.m2]) - p_last)
        row_ok = (dev_t <= 0.15 and dev_first <= 0.02
                  and dev_last <= 0.02 and rep.leakage < 0.03)
        ok = ok and row_ok
        details.append(
            f"({ref.m1},{ref.m2}): t_tof {found.t_tof:.3f} "
            f"({100 * dev_t:.1f}%), probs off ({dev_first:.4f}, "
            f"{dev_last:.4f}), leak {rep.leakage:.4f}"
        )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.1f} s (< 120 s)")


def test_criterion_5_cyclic_order_is_conserved():
    """The coherence stripe (and so the certified order) survives evolution."""
    # one atom, components (2, 7): order 5 along a flat-coupling trajectory
    state = make_superposition(2, 7, math.pi / 4, 0.0, 1, REF)
    traj = integrate(state, REF, CONSTANT_SCHEDULE, 10.0, n_snapshots=19)
    worst = 0.0
    orders = set()
    for snap in map(traj.state, range(len(traj.times))):
        rep = detect_cyclic_symmetry(reduce_field(snap))
        orders.add(rep.order)
        worst = max(worst, rep.max_residual)
    ok_one = orders == {5} and worst < 1e-10

    # two atoms, components (1, 5): order 4 at entry, midpoint and exit
    cfg2 = AtomicConfig(kind=Kind.XI, mu12=1 / math.sqrt(2.0),
                        mu23=1 / math.sqrt(2.0))
    state2 = make_superposition(1, 5, math.pi / 4, 0.0, 2, cfg2)
    sched = CouplingSchedule(mode="bump", t_tof=4.0)
    traj2 = integrate(state2, cfg2, sched, 4.0, snapshot_times=[0.0, 2.0, 4.0],
                      n_snapshots=2)
    orders2 = set()
    worst2 = 0.0
    for t in (0.0, 2.0, 4.0):
        rep = detect_cyclic_symmetry(reduce_field(traj2.state_at(t)))
        orders2.add(rep.order)
        worst2 = max(worst2, rep.max_residual)
    ok_two = orders2 == {4} and worst2 < 1e-10

    ok = ok_one and ok_two
    _report(5, ok, f"one-atom orders {sorted(orders)} residual {worst:.3g}; "
                   f"two-atom orders {sorted(orders2)} residual {worst2:.3g} "
                   f"(all residuals < 1e-10)")


def test_criterion_6_husimi_contracts():
    """Normalization, the two-Fock closed form, and the phase rotation."""
    # protocol outputs: a first-passage read-off plus the three table cats
    fields = [first_passage(3, REF, CouplingSchedule(mode="bump", t_tof=8.0)).field]
    for ref in REFERENCE_CATS:
        vec = np.zeros(ref.m2 + 1, dtype=complex)
        vec[ref.m1] = vec[ref.m2] = 1.0 / math.sqrt(2.0)
        field = FieldDensityMatrix(rho=np.outer(vec, vec.conj()))
        fields.append(subsequent_passage(field, REF, ref.t_tof).field)
    fields.append(reduce_field(make_superposition(2, 7, math.pi / 4, 0.9, 1, REF)))
    worst_norm = max(abs(husimi(f).normalization() - 1.0) for f in fields)

    nu1, nu2, theta, xi = 2, 7, math.pi / 3, 0.9
    rho = reduce_field(make_superposition(nu1, nu2, theta, xi, 1, REF))
    rng = np.random.default_rng(606)
    rad = rng.uniform(0.0, 6.0, 10_000)
    ang = rng.uniform(0.0, 2.0 * math.pi, 10_000)
    agree = float(np.max(np.abs(
        husimi_values(rho, rad, ang) - husimi_two_fock(nu1, nu2, theta, xi, rad, ang)
    )))

    rotated = husimi_two_fock(nu1, nu2, theta, 0.0, rad, ang - xi / (nu2 - nu1))
    rot = float(np.max(np.abs(husimi_two_fock(nu1, nu2, theta, xi, rad, ang)
                              - rotated)))
    ok = worst_norm < 1e-3 and agree < 1e-12 and rot < 1e-12
    _report(6, ok, f"norm deviation {worst_norm:.3g} (< 1e-3) over "
                   f"{len(fields)} fields, two-Fock agreement {agree:.3g} "
                   f"(< 1e-12), rotation identity {rot:.3g} (< 1e-12)")


def test_criterion_7_long_time_stability():
    """Norm drift over tau = 100 and strict sector confinement."""
    traj = integrate(ground_product_state(REF, 3), REF, CONSTANT_SCHEDULE,
                     100.0, n_snapshots=100)
    drift = traj.stats.max_norm_drift

    # sectors 1 and 7 can spread to nu in {0,1} and {5,6,7} only: the gap
    # {2,3,4} must stay strictly empty along the whole trajectory
    state = make_superposition(1, 7, 0.8, 0.5, 1, REF)
    labels = set(state.sectors)
    traj2 = integrate(state, REF, CouplingSchedule(mode="bump", t_tof=6.0), 6.0)
    outside = 0.0
    for snap in map(traj2.state, range(len(traj2.times))):
        assert set(snap.sectors) == labels  # sector labels are immutable
        probs = np.real(np.diag(reduce_field(snap).rho))
        outside = max(outside, float(np.sum(probs[2:5])))
    ok = drift < 1e-9 and outside < 1e-12
    _report(7, ok, f"norm drift {drift:.3g} over tau=100 (< 1e-9), "
                   f"support outside the initial sectors {outside:.3g} "
                   f"(< 1e-12)")
