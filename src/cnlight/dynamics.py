"""Sector matrices, the coupling envelope, and time-dependent integration.

The solver works in the interaction picture: for a sector basis
``{|nu; na q r>}`` with diagonal energies ``E_a`` the coefficients obey

    dphi_a/dtau = -i * sum_b exp(-i (E_b - E_a) tau) <a|H_int(tau)|b> phi_b

and snapshots convert back to physical amplitudes ``psi_a = exp(-i E_a tau)
phi_a`` so that cross-sector phase relations (which carry the cyclic
symmetry of the field) come out right.

Sectors never mix: the total excitation number commutes with the
Hamiltonian, so a multi-sector state integrates as independent runs.

Searches evaluate many states of one initial state; :class:`SectorPropagator`
serves them in closed form for resonant sectors, by two precomputed ramp
propagators joined by the exact plateau for the exit states of full bump
passes, and by one integration otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import StepSizeUnderflowError, ValidationError
from .hilbert import AtomicConfig, BasisState, SectorBasis, build_sector_basis

__all__ = [
    "CouplingSchedule",
    "SectorPropagator",
    "SystemState",
    "Trajectory",
    "IntegratorStats",
    "bump",
    "interaction_elements",
    "interaction_matrix",
    "diagonal_energy",
    "integrate",
    "integrate_ode",
    "make_superposition",
    "ground_product_state",
    "product_state",
]

DEFAULT_TOL = 1e-11
SEARCH_TOL = 1e-9      # integration tolerance of search probes off the exact paths
MIN_STEP = 1e-12
GAUSS_NODES = 64    # Gauss-Legendre nodes per smooth piece of the envelope


# ------------------------------------------------------------------
# coupling envelope
# ------------------------------------------------------------------

def _smoothstep(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, e^(-1/x)-shaped inside.

    Written as 1 / (1 + exp(1/x - 1/(1-x))) which saturates cleanly in IEEE
    arithmetic (the exponent overflows to +inf near 0, giving exactly 0).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    with np.errstate(over="ignore"):
        out[inside] = 1.0 / (1.0 + np.exp(1.0 / xi - 1.0 / (1.0 - xi)))
    return out


def _ramp(x: float) -> float:
    """``_smoothstep`` of one float, bit for bit, without array overhead.

    ``np.exp`` on a scalar rounds as the array loop does; ``math.exp``
    does not everywhere.
    """
    if not x > 0.0:   # NaN too
        return 0.0
    if x >= 1.0:
        return 1.0
    a = 1.0 / x - 1.0 / (1.0 - x)
    if a > 709.0:   # exp overflows past 709.78
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + float(np.exp(a)))
    return 1.0 / (1.0 + float(np.exp(a)))


def bump(t_tof: float, t):
    """Smooth compactly supported coupling envelope on (0, t_tof).

    The envelope is a product of an entry ramp and an exit ramp, each a
    partition-of-unity smoothstep on a unit window ((0,1) at entry,
    (t_tof-1, t_tof) at exit) held at its saturation value elsewhere.  It
    is symmetric about t_tof/2, infinitely differentiable, equal to 1 on
    the plateau between the ramps, and each ramp integrates to exactly
    1/2, so the area under the envelope is t_tof - 1 for t_tof >= 2.
    For t_tof < 2 the two ramps overlap and the peak stays below 1.
    The ramps are clamped because the textbook expression
    exp(-t_tof / (t (t_tof - t))) / [(e^(-1/t) + e^(-1/(1-t)))
    (e^(-1/(t_tof-t)) + e^(-1/(1-t_tof+t)))], evaluated on all of
    (0, t_tof), collapses outside the two unit ramp windows.

    Accepts scalars or arrays; scalar in, scalar out.
    """
    if not t_tof > 0:
        raise ValidationError(f"need t_tof > 0, got {t_tof}")
    if isinstance(t, float):   # np.float64 too: the integrator's hot path
        t = float(t)   # Python float arithmetic: 1/x raises no warning
        return _ramp(t) * _ramp(float(t_tof) - t)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = _smoothstep(t_arr) * _smoothstep(t_tof - t_arr)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CouplingSchedule:
    """Time profile of the matter-field couplings.

    The instantaneous coupling of pair (i, j) is
    ``config.mu_ij * envelope(t)`` where the envelope is 1 in ``constant``
    mode and :func:`bump` in ``bump`` mode.
    """

    mode: str = "constant"
    t_tof: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant", "bump"):
            raise ValidationError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "bump" and not self.t_tof > 0:
            raise ValidationError("bump schedule needs t_tof > 0")

    def envelope(self, t):
        if self.mode == "constant":
            if isinstance(t, float):
                return 1.0
            t_arr = np.asarray(t, dtype=float)
            return 1.0 if t_arr.ndim == 0 else np.ones_like(t_arr)
        return bump(self.t_tof, t)


CONSTANT_SCHEDULE = CouplingSchedule(mode="constant")


# ------------------------------------------------------------------
# sector matrices
# ------------------------------------------------------------------

def interaction_elements(
    b1: BasisState, b2: BasisState, config: AtomicConfig
) -> complex:
    """Matrix element <b1| H_int |b2> for collective 3-level atoms.

    With level populations ``(n1, n2, n3) = (r, q-r, na-q)`` the
    photon-creating half of pair (i, j) carries sqrt((nu+1) * n_j * (n_i + 1))
    and the conjugate half sqrt(nu * n_i * (n_j + 1)), everything scaled by
    -mu_ij / sqrt(na).
    """
    if b1.na != b2.na:
        raise ValidationError("matrix elements need a common atom number")
    mu12, mu13, mu23 = config.mu12, config.mu13, config.mu23
    na = b2.na
    nu, q, r = b2.nu, b2.q, b2.r
    dnu, dq, dr = b1.nu - nu, b1.q - q, b1.r - r

    val = 0.0
    if dq == 0 and dr == 1 and dnu == 1:
        val = mu12 * math.sqrt((nu + 1) * (q - r) * (r + 1))
    elif dq == 0 and dr == -1 and dnu == -1:
        val = mu12 * math.sqrt(nu * (q - r + 1) * r)
    elif dq == 1 and dr == 1 and dnu == 1:
        val = mu13 * math.sqrt((nu + 1) * (na - q) * (r + 1))
    elif dq == -1 and dr == -1 and dnu == -1:
        val = mu13 * math.sqrt(nu * (na - q + 1) * r)
    elif dq == 1 and dr == 0 and dnu == 1:
        val = mu23 * math.sqrt((nu + 1) * (na - q) * (q - r + 1))
    elif dq == -1 and dr == 0 and dnu == -1:
        val = mu23 * math.sqrt(nu * (na - q + 1) * (q - r))
    return complex(-val / math.sqrt(na))


def interaction_matrix(config: AtomicConfig, basis: SectorBasis) -> np.ndarray:
    """Dense H_int on a sector basis (Hermitian, zero diagonal)."""
    n = len(basis)
    h = np.zeros((n, n), dtype=complex)
    for i, bi in enumerate(basis.states):
        for j, bj in enumerate(basis.states):
            if i != j:
                h[i, j] = interaction_elements(bi, bj, config)
    return h


def diagonal_energy(s: BasisState, config: AtomicConfig) -> float:
    """Bare energy nu*Omega + omega21*(q-r) + omega31*(na-q), omega1 = 0."""
    _, w2, w3 = config.level_frequencies
    return s.nu * config.omega + w2 * (s.q - s.r) + w3 * (s.na - s.q)


# ------------------------------------------------------------------
# states
# ------------------------------------------------------------------

@dataclass(frozen=True)
class SystemState:
    """Amplitudes grouped by excitation sector (sectors never mix)."""

    sectors: Mapping[int, Tuple[SectorBasis, np.ndarray]]

    def norm(self) -> float:
        return math.sqrt(
            sum(float(np.sum(np.abs(a) ** 2)) for _, a in self.sectors.values())
        )

    def sector_norms(self) -> Dict[int, float]:
        return {
            m: float(np.linalg.norm(a)) for m, (_, a) in self.sectors.items()
        }

    @property
    def nu_max(self) -> int:
        """Largest photon number with support: the largest sector label."""
        return max(self.sectors)

    @property
    def na(self) -> int:
        basis, _ = next(iter(self.sectors.values()))
        return basis.na


def product_state(
    config: AtomicConfig, amplitudes: Mapping[int, complex], na: int
) -> SystemState:
    """(sum of c_nu |nu>) x all atoms ground, from ``amplitudes`` {nu: c_nu}.

    All-ground atoms carry no excitation, so the component |nu> lives in
    the sector m = nu.  Exactly vanishing amplitudes drop their sector.
    """
    sectors: Dict[int, Tuple[SectorBasis, np.ndarray]] = {}
    for m in sorted(amplitudes):
        if amplitudes[m] == 0:
            continue
        basis = build_sector_basis(config, na, m)
        amps = np.zeros(len(basis), dtype=complex)
        amps[basis.index(na, na)] = amplitudes[m]
        sectors[m] = (basis, amps)
    return SystemState(sectors=sectors)


def ground_product_state(
    config: AtomicConfig, nu0: int, na: int = 1
) -> SystemState:
    """|nu0> photons with every atom in its lowest level."""
    return product_state(config, {nu0: 1.0}, na)


def make_superposition(
    nu1: int,
    nu2: int,
    theta: float,
    xi: float,
    na: int,
    config: AtomicConfig,
) -> SystemState:
    """(cos(theta) |nu1> + e^(i xi) sin(theta) |nu2>) x all atoms ground.

    theta = 0 leaves a single pure Fock sector.
    """
    if nu1 == nu2:
        raise ValidationError("superposition needs two distinct photon numbers")
    if not (math.isfinite(theta) and math.isfinite(xi)):
        raise ValidationError(f"need a finite theta and xi, got {theta}, {xi}")
    weights = {nu1: complex(math.cos(theta)), nu2: math.sin(theta) * np.exp(1j * xi)}
    return product_state(config, weights, na)


# ------------------------------------------------------------------
# adaptive Runge-Kutta 4(5), Dormand-Prince coefficients
# ------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between the 5th- and embedded 4th-order weights
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


# (weight, stage) pairs with the exact-zero weights left out.  The last row
# of _DP_A equals the first six 5th-order weights and _DP_B5[6] is 0, so the
# input of the 7th stage is the 5th-order solution itself.
_DP_A_TERMS = [
    [(float(a), j) for j, a in enumerate(row) if a != 0.0] for row in _DP_A
]
_DP_E_TERMS = [(float(e), j) for j, e in enumerate(_DP_E) if e != 0.0]


def _combine(terms, ks):
    """sum(w * ks[j]) accumulated left to right, as ``sum`` would."""
    (w0, j0), *rest = terms
    acc = w0 * ks[j0]
    for w, j in rest:
        acc += w * ks[j]
    return acc


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    max_norm_drift: float = 0.0

    def merge(self, other: "IntegratorStats") -> None:
        self.steps += other.steps
        self.rejected += other.rejected
        self.max_norm_drift = max(self.max_norm_drift, other.max_norm_drift)


def integrate_ode(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t_end: float,
    tol: float,
    dense_times: Sequence[float],
) -> Tuple[list, IntegratorStats]:
    """Embedded Dormand-Prince 4(5) driver hitting ``dense_times`` exactly.

    The local error of each step is kept below ``tol`` in a mixed
    absolute/relative sense; rejected attempts are counted.  The state is
    never renormalized -- norm drift is a diagnostic, not a knob.  Raises
    :class:`StepSizeUnderflowError` if stiffness forces the step below
    ``MIN_STEP``.
    """
    stats = IntegratorStats()
    y = np.array(y0, dtype=complex)
    t = t0
    targets = [float(x) for x in dense_times]
    if any(x < t0 - 1e-15 or x > t_end + 1e-15 for x in targets):
        raise ValidationError("snapshot times must lie inside the span")
    out: list = [None] * len(targets)
    order = sorted(range(len(targets)), key=lambda i: targets[i])
    pos = 0
    # record anything sitting exactly at t0
    while pos < len(order) and targets[order[pos]] <= t0 + 1e-15:
        out[order[pos]] = (t0, y.copy())
        pos += 1

    k1 = f(t, y)
    span = t_end - t0
    scale0 = tol + tol * float(np.max(np.abs(y))) if y.size else tol
    f0 = float(np.max(np.abs(k1))) if y.size else 0.0
    h = min(span, 0.1 * scale0 / f0 if f0 > 0 else 0.1 * span, 0.1 * span)
    h = max(h, MIN_STEP)

    ks = [None] * 7
    while t < t_end - 1e-15:
        # propose a step, clipped so snapshot times are hit exactly
        h_try = min(h, t_end - t)
        clip_to = None
        if pos < len(order):
            dist = targets[order[pos]] - t
            if dist <= h_try * (1.0 + 1e-12):
                h_try = dist
                clip_to = targets[order[pos]]
        if h_try < MIN_STEP and clip_to is None:
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g} (h={h:.3g})"
            )

        ks[0] = k1
        for i in range(1, 7):
            yi = y + h_try * _combine(_DP_A_TERMS[i], ks)
            ks[i] = f(t + _DP_C[i] * h_try, yi)
        y5 = yi   # the last stage input is the 5th-order solution (FSAL)
        err = h_try * _combine(_DP_E_TERMS, ks)

        sc = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        r2 = np.abs(err / sc) ** 2
        # np.mean's own sum and division, without its per-call dispatch
        err_norm = math.sqrt(float(np.add.reduce(r2, axis=None)) / r2.size)

        if err_norm <= 1.0:
            stats.steps += 1
            t = clip_to if clip_to is not None else t + h_try
            y = y5
            k1 = ks[6]  # first-same-as-last
            fuzz = 1e-12 * max(1.0, abs(t))
            while pos < len(order) and targets[order[pos]] <= t + fuzz:
                out[order[pos]] = (t, y.copy())
                pos += 1
            factor = 5.0 if err_norm == 0.0 else min(
                5.0, max(0.2, 0.9 * err_norm ** -0.2)
            )
            h = max(h_try * factor, MIN_STEP * 0.5)
        else:
            stats.rejected += 1
            h = h_try * max(0.2, 0.9 * err_norm ** -0.2)
            if h < MIN_STEP:
                raise StepSizeUnderflowError(
                    f"step size underflow at t={t:.6g} "
                    f"(local error {err_norm:.3g} x tol)"
                )
    # anything not consumed sits at t_end up to roundoff
    while pos < len(order):
        out[order[pos]] = (t, y.copy())
        pos += 1
    return out, stats


# ------------------------------------------------------------------
# sector integration
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Snapshots of a SystemState on a monotone time grid."""

    times: np.ndarray
    snapshots: Tuple[SystemState, ...]
    stats: IntegratorStats

    def state_at(self, t: float) -> SystemState:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise KeyError(f"no snapshot at t={t}")
        return self.snapshots[i]


def _interaction_rhs(
    e: np.ndarray,
    h_base: np.ndarray,
    envelope: Callable[[float], float],
) -> Callable[[float, np.ndarray], np.ndarray]:
    """dphi/dt = -i f(t) e^{iEt} H_int e^{-iEt} phi in the interaction picture.

    ``e`` holds the bare energies of the basis; with shape (n, 1) instead
    of (n,) the derivative acts on every column of an (n, k) matrix.
    """
    minus_ie = -1j * e

    def rhs(t, phi):
        ph = np.exp(minus_ie * t)
        return (-1j * envelope(t)) * (ph.conj() * (h_base @ (ph * phi)))

    return rhs


def integrate(
    initial: SystemState,
    config: AtomicConfig,
    schedule: CouplingSchedule,
    t_end: float,
    tol: float = DEFAULT_TOL,
    snapshot_times: Optional[Iterable[float]] = None,
    n_snapshots: int = 200,
) -> Trajectory:
    """Propagate a (multi-sector) state from tau = 0 to ``t_end``.

    Each sector integrates independently in the interaction picture; the
    returned snapshots hold physical (Schrodinger-picture) amplitudes on a
    uniform grid of ``n_snapshots`` intervals merged with any explicitly
    requested ``snapshot_times``.
    """
    if not 0 < t_end < math.inf:
        raise ValidationError(f"need a finite t_end > 0, got {t_end}")
    if not tol > 0:
        raise ValidationError(f"need tol > 0, got {tol}")
    if n_snapshots < 1:
        raise ValidationError(f"need n_snapshots >= 1, got {n_snapshots}")
    if not abs(initial.norm() - 1.0) <= 1e-9:   # NaN fails too
        raise ValidationError(
            f"initial state must be normalized, |norm-1| = "
            f"{abs(initial.norm() - 1.0):.3g}"
        )
    grid = np.linspace(0.0, t_end, n_snapshots + 1)
    if snapshot_times is not None:
        extra = np.asarray(sorted(snapshot_times), dtype=float)
        grid = np.unique(np.concatenate([grid, extra]))
        # collapse floating-point near-duplicates from the merge
        keep = np.concatenate([[True], np.diff(grid) > 1e-12])
        grid = grid[keep]

    stats = IntegratorStats()
    per_sector: Dict[int, list] = {}
    for m, (basis, amps) in initial.sectors.items():
        e = np.array([diagonal_energy(s, config) for s in basis.states])
        h_base = interaction_matrix(config, basis)
        rhs = _interaction_rhs(e, h_base, schedule.envelope)
        samples, st = integrate_ode(rhs, amps, 0.0, t_end, tol, grid)
        n0 = float(np.linalg.norm(amps))
        drift = max(abs(float(np.linalg.norm(y)) - n0) for _, y in samples)
        st.max_norm_drift = max(st.max_norm_drift, drift)
        stats.merge(st)
        # back to physical amplitudes
        per_sector[m] = [
            (basis, np.exp(-1j * e * t) * phi) for t, phi in samples
        ]

    snapshots = tuple(
        SystemState(sectors={m: per_sector[m][i] for m in initial.sectors})
        for i in range(len(grid))
    )
    return Trajectory(times=grid, snapshots=snapshots, stats=stats)


# ------------------------------------------------------------------
# one propagator for every search
# ------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss

    return leggauss(GAUSS_NODES)


def _pulse_area(schedule: CouplingSchedule, t: float) -> float:
    """Area under the envelope on [0, t].

    The bump is analytic everywhere except at the ramp ends
    {0, 1, t_tof - 1, t_tof}, where its derivatives all vanish.
    Gauss-Legendre quadrature on each piece between those breakpoints
    reaches roundoff with GAUSS_NODES nodes, also on a partial ramp.  The
    constant envelope takes the same path and comes out as t.
    """
    inner = {1.0, schedule.t_tof - 1.0, schedule.t_tof}
    cuts = np.array(sorted({0.0, t} | {c for c in inner if 0.0 < c < t}))
    x, w = _gauss_legendre()
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    f = schedule.envelope((mid[:, None] + half[:, None] * x[None, :]).ravel())
    return float(half @ (np.reshape(f, (half.size, x.size)) @ w))


class SectorPropagator:
    """States reached from one initial state, each by an exact engine.

    The engine follows from the configuration, the schedule and the times:

    * **Every sector resonant** (every detuning zero): the interaction-
      picture generator f(t) H_int commutes with itself at all times, so
      with H_int = V diag(lam) V^dag and the pulse area A(t) of f,

          psi(t) = exp(-i E0 t) V exp(-i A(t) lam) V^dag psi(0)

      for any schedule and t.  Each sector is diagonalised once.
    * **Otherwise, the exit state of a bump with t_tof >= 2**: with the
      entry ramp on [0, 1], the plateau f = 1 up to t_tof - 1 and the
      mirrored exit ramp,

          psi(t_tof) = U_exit W exp(-i lam (t_tof - 2)) W^dag U_entry psi(0)

      where diag(E) + H_int = W diag(lam) W^dag.  Neither ramp depends on
      t_tof, and as the Hamiltonian is real symmetric U_exit = U_entry^T.
      Each sector's entry ramp is integrated (DP45 at DEFAULT_TOL, all basis
      states at once) at most once, on the first such request.
    * **Anything else** (detuned partial passes, constant coupling, bumps
      with t_tof < 2, whose ramps overlap): one :func:`integrate` call at
      SEARCH_TOL with the requested times as snapshot times.
    """

    def __init__(self, initial: SystemState, config: AtomicConfig):
        self._initial = initial
        self._config = config
        self._energies = {
            m: np.array([diagonal_energy(s, config) for s in basis.states])
            for m, (basis, _) in initial.sectors.items()
        }
        self._closed = None
        self._flight = None
        if all(np.all(e == e[0]) for e in self._energies.values()):
            self._closed = {}
            for m, (basis, amps) in initial.sectors.items():
                lam, v = np.linalg.eigh(interaction_matrix(config, basis))
                e0 = float(self._energies[m][0])
                self._closed[m] = (basis, e0, lam, v, v.conj().T @ amps)

    def states_at(
        self, schedule: CouplingSchedule, times: Iterable[float]
    ) -> List[SystemState]:
        """Physical amplitudes at each of ``times`` (finite, >= 0)."""
        times = [float(t) for t in times]
        if not times or not all(0.0 <= t < math.inf for t in times):
            raise ValidationError(f"need finite times >= 0, got {times}")
        if self._closed is not None:
            return [self._closed_form(schedule, t) for t in times]
        t_tof = schedule.t_tof
        if schedule.mode == "bump" and t_tof >= 2.0 and set(times) == {t_tof}:
            return [self._exit_state(t_tof) for _ in times]
        traj = integrate(
            self._initial, self._config, schedule, max(times),
            tol=SEARCH_TOL, snapshot_times=times, n_snapshots=1,
        )
        return [traj.state_at(t) for t in times]

    def _closed_form(self, schedule: CouplingSchedule, t: float) -> SystemState:
        area = _pulse_area(schedule, t)
        return SystemState(sectors={
            m: (basis, np.exp(-1j * e0 * t) * (v @ (np.exp(-1j * area * lam) * c0)))
            for m, (basis, e0, lam, v, c0) in self._closed.items()
        })

    def _exit_state(self, t_tof: float) -> SystemState:
        if self._flight is None:
            # on [0, 1] the envelope of the shortest full bump is the entry ramp
            ramp = CouplingSchedule(mode="bump", t_tof=2.0)
            self._flight = {}
            for m, (basis, amps) in self._initial.sectors.items():
                e = self._energies[m]
                h = interaction_matrix(self._config, basis)
                rhs = _interaction_rhs(e[:, None], h, ramp.envelope)
                [(_, phi)], _ = integrate_ode(
                    rhs, np.eye(len(basis)), 0.0, 1.0, DEFAULT_TOL, [1.0]
                )
                u_entry = np.exp(-1j * e)[:, None] * phi
                lam, w = np.linalg.eigh(np.diag(e) + h)
                # U_exit W, and the plateau coefficients W^dag U_entry psi(0)
                self._flight[m] = (
                    basis, lam, u_entry.T @ w, w.conj().T @ (u_entry @ amps)
                )
        return SystemState(sectors={
            m: (basis, u_out @ (np.exp(-1j * (t_tof - 2.0) * lam) * c_in))
            for m, (basis, lam, u_out, c_in) in self._flight.items()
        })
