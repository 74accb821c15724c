"""Sector matrices, the coupling envelope, and time-dependent integration.

Each sector integrates in the frame that rotates at one fixed bare energy
E0 of that sector (the energy of its first basis state): with diagonal
energies ``E_a`` and ``psi_a = exp(-i E0 tau) phi_a`` the coefficients obey

    dphi/dtau = -i (f(tau) H_int + Delta) phi,    Delta = diag(E_a - E0)

Delta is exactly zero on a resonant sector, and no phase factor is
computed per derivative.  Snapshots convert back with exp(-i E0 tau), so
that cross-sector phase relations (which carry the cyclic symmetry of the
field) come out right.  The Dormand-Prince steps follow the error control
alone; a snapshot time inside a step is read off the step's continuous
extension.

Sectors never mix: the total excitation number commutes with the
Hamiltonian.  A multi-sector state therefore propagates as one block-
diagonal system, the sectors' energies stacked and H_int holding one block
per sector and exact zeros elsewhere.  :func:`integrate` runs DP45 over a
whole pass under constant coupling or a bump with t_tof < 2; a bump with
t_tof >= 2 takes one DP45 run per unit ramp, and its plateau and the time
after its exit are exact.

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
    "sector_layout",
]

DEFAULT_TOL = 1e-11
SEARCH_TOL = 1e-9      # integration tolerance of search probes off the exact paths
MIN_STEP = 1e-12
MAX_SNAPSHOTS = 10**6   # snapshot intervals of one integration
_ROW_BLOCK = 2**16      # amplitudes per block of integrate's row arithmetic
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
# the 4th-order continuous extension (Hairer, Norsett & Wanner, Solving ODEs
# I, sec. II.6; Shampine, Math. Comp. 1986): y(t + s h) = y + h b(s) . k
# with b_i(s) = sum_p _DP_P[i, p] s^(p+1); b(1) is the 5th-order weights
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# Each stage input and the error estimate is one coefficient row times the
# (7, N) stage array: row i (i = 1..6) holds _DP_A[i] and meets the first i
# stages only, row 7 holds _DP_E.  Complex, so that no product casts.  The
# last row of _DP_A equals the first six 5th-order weights and _DP_B5[6] is
# 0, so the input of the 7th stage is the 5th-order solution itself.
_DP_ROWS = np.array(
    [np.pad(row, (0, 7 - row.size)) for row in _DP_A] + [_DP_E], dtype=complex
)


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    max_norm_drift: float = 0.0


def integrate_ode(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t_end: float,
    tol: float,
    dense_times: Sequence[float],
) -> Tuple[list, IntegratorStats]:
    """Embedded Dormand-Prince 4(5) driver with dense output.

    Returns one ``(t, y)`` per entry of ``dense_times``, in that order.
    Steps are chosen by the error control alone, never clipped at a
    snapshot time: a time inside a step is read off the 4th-order
    continuous extension of that step, and a time at a step's end (t_end
    included) takes the step's own 5th-order solution.  The local error of
    each step is kept below ``tol`` in a mixed absolute/relative sense;
    rejected attempts are counted.  The state is never renormalized --
    norm drift is a diagnostic, not a knob.  Raises
    :class:`StepSizeUnderflowError` if stiffness forces the step below
    ``MIN_STEP``.
    """
    stats = IntegratorStats()
    y = np.array(y0, dtype=complex)
    shape = y.shape
    y = y.ravel()
    t = t0
    targets = [float(x) for x in dense_times]
    if any(x < t0 - 1e-15 or x > t_end + 1e-15 for x in targets):
        raise ValidationError("snapshot times must lie inside the span")
    out: list = [None] * len(targets)
    order = sorted(range(len(targets)), key=lambda i: targets[i])
    pos = 0
    # record anything sitting exactly at t0
    while pos < len(order) and targets[order[pos]] <= t0 + 1e-15:
        out[order[pos]] = (t0, y.reshape(shape).copy())
        pos += 1

    # the stages of one step, each flat; ``ks[i] = ...`` writes stage i in
    # the shape of y, and stage i's input reads a_rows[i] @ heads[i]
    stages = np.zeros((7, y.size), dtype=complex)
    ks = stages.reshape((7,) + shape)
    heads = [stages[:i] for i in range(7)]
    a_rows = [_DP_ROWS[i, :i] for i in range(7)]
    c = _DP_C.tolist()

    ks[0] = f(t, y.reshape(shape))
    span = t_end - t0
    scale0 = tol + tol * float(np.max(np.abs(y))) if y.size else tol
    f0 = float(np.max(np.abs(stages[0]))) if y.size else 0.0
    h = min(span, 0.1 * scale0 / f0 if f0 > 0 else 0.1 * span, 0.1 * span)
    h = max(h, MIN_STEP)

    while t < t_end - 1e-15:
        last = h >= t_end - t
        h_try = t_end - t if last else h
        if h_try < MIN_STEP and not last:
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g} (h={h:.3g})"
            )

        for i in range(1, 7):
            yi = y + h_try * a_rows[i].dot(heads[i])
            ks[i] = f(t + c[i] * h_try, yi.reshape(shape))
        y5 = yi   # the last stage input is the 5th-order solution (FSAL)
        err = h_try * _DP_ROWS[7].dot(stages)

        sc = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        r2 = np.abs(err / sc) ** 2
        # np.mean's own sum and division, without its per-call dispatch
        err_norm = math.sqrt(float(np.add.reduce(r2, axis=None)) / r2.size)

        if err_norm <= 1.0:
            stats.steps += 1
            t_new = t_end if last else t + h_try
            fuzz = 1e-12 * max(1.0, abs(t_new))
            inside = []
            while pos < len(order) and targets[order[pos]] <= t_new + fuzz:
                k = order[pos]
                if targets[k] < t_new:
                    inside.append(k)
                else:
                    out[k] = (t_new, y5.reshape(shape).copy())
                pos += 1
            if inside:
                s = (np.array([targets[k] for k in inside]) - t) / h_try
                b = (s[:, None] ** np.arange(1, 5)) @ _DP_P.T
                ys = y + h_try * (b @ stages)
                for k, yk in zip(inside, ys):
                    out[k] = (targets[k], yk.reshape(shape))
            t = t_new
            y = y5
            stages[0] = stages[6]  # first-same-as-last
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
        out[order[pos]] = (t, y.reshape(shape).copy())
        pos += 1
    return out, stats


# ------------------------------------------------------------------
# sector integration
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """A state on a monotone time grid, as one (T, N) array.

    Row k of ``amplitudes`` stacks the sectors of the state at ``times[k]``
    in label order; ``sectors``, the ``sector_layout`` of that state, maps
    each label to its basis and its slice of a row.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    sectors: Mapping[int, Tuple[SectorBasis, slice]]
    stats: IntegratorStats

    def state(self, k: int) -> SystemState:
        """The state at ``times[k]``; its sector arrays are views of row k."""
        row = self.amplitudes[k]
        return SystemState(sectors={
            m: (basis, row[sl]) for m, (basis, sl) in self.sectors.items()
        })

    def state_at(self, t: float) -> SystemState:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise KeyError(f"no snapshot at t={t}")
        return self.state(i)


def sector_layout(
    sectors: Mapping[int, Tuple[SectorBasis, np.ndarray]]
) -> Dict[int, Tuple[SectorBasis, slice]]:
    """How the sectors of a state stack into one amplitude row: label ->
    basis and slice of the row, in label order.

    Every stacked array (a trajectory, a propagator's system, a reduction's
    pair list) is laid out by this one rule.
    """
    layout: Dict[int, Tuple[SectorBasis, slice]] = {}
    start = 0
    for m in sorted(sectors):
        basis = sectors[m][0]
        layout[m] = (basis, slice(start, start + len(basis)))
        start += len(basis)
    return layout


def _block_system(
    sectors: Mapping[int, Tuple[SectorBasis, np.ndarray]], config: AtomicConfig
) -> Tuple[Dict[int, Tuple[SectorBasis, slice]], np.ndarray, np.ndarray, np.ndarray]:
    """Stacked layout (``sector_layout``), bare energies, frame energies
    and H_int.

    The frame energy E0 of every basis state is the bare energy of the
    first basis state of its sector; E - E0 is exactly zero on a resonant
    sector.  H_int is block diagonal: one block per sector and exact zeros
    elsewhere, so one integration of the stacked system never mixes them.
    """
    layout = sector_layout(sectors)
    n = sum(len(basis) for basis, _ in sectors.values())
    e = np.zeros(n)
    e0 = np.zeros(n)
    h = np.zeros((n, n), dtype=complex)
    for basis, sl in layout.values():
        e[sl] = [diagonal_energy(s, config) for s in basis.states]
        e0[sl] = e[sl.start]
        h[sl, sl] = interaction_matrix(config, basis)
    return layout, e, e0, h


def _frame_rhs(
    delta: np.ndarray,
    h_base: np.ndarray,
    envelope: Callable[[float], float],
) -> Callable[[float, np.ndarray], np.ndarray]:
    """dphi/dt = -i (f(t) H_int + Delta) phi in the sectors' rotating frames.

    ``delta`` holds E - E0 of every basis state, where the frame of a
    sector rotates at its one energy E0: psi = exp(-i E0 t) phi.  The
    derivative acts on a vector or on every column of an (n, k) matrix.
    """
    minus_ih = -1j * h_base
    minus_idelta = np.diag(-1j * delta)

    def rhs(t, phi):
        return (envelope(t) * minus_ih + minus_idelta).dot(phi)

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

    All sectors propagate together as one block-diagonal system, each in
    the frame rotating at its energy E0; the returned trajectory holds the
    physical (Schrodinger-picture) amplitudes psi = exp(-i E0 t) phi, one
    row per snapshot, on a uniform grid of ``n_snapshots`` intervals
    merged with any explicitly requested ``snapshot_times``.

    A bump with t_tof >= 2 is propagated in pieces (:func:`_bump_pass`):
    one DP45 run over each unit ramp, the plateau between them and the
    time after the exit exactly.  Constant coupling and a bump with
    t_tof < 2, whose ramps overlap, take one DP45 run from 0 to ``t_end``.
    Snapshots inside a DP45 step come from the step's continuous
    extension, so ``tol`` bounds them as it bounds the steps.  A ``tol``
    below machine epsilon is refused: its error estimates would be
    roundoff.  So is a grid of more than MAX_SNAPSHOTS intervals.
    """
    if not 0 < t_end < math.inf:
        raise ValidationError(f"need a finite t_end > 0, got {t_end}")
    if not tol >= np.finfo(float).eps:
        raise ValidationError(
            f"need tol >= {np.finfo(float).eps:.3g} (machine epsilon), got {tol}"
        )
    if not 1 <= n_snapshots <= MAX_SNAPSHOTS:
        raise ValidationError(
            f"need 1 <= n_snapshots <= {MAX_SNAPSHOTS}, got {n_snapshots}"
        )
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

    layout, e, e0, h_base = _block_system(initial.sectors, config)
    y0 = np.concatenate([initial.sectors[m][1] for m in layout])
    rhs = _frame_rhs(e - e0, h_base, schedule.envelope)
    if schedule.mode == "bump" and schedule.t_tof >= 2.0:
        ts, rows, stats = _bump_pass(
            rhs, y0, layout, e - e0, h_base, schedule.t_tof, t_end, tol, grid
        )
    else:
        samples, stats = integrate_ode(rhs, y0, 0.0, t_end, tol, grid)
        ts = np.array([t for t, _ in samples])
        rows = np.array([y for _, y in samples])
    norms0 = {m: np.linalg.norm(initial.sectors[m][1]) for m in layout}
    # the norm drift, then back to physical amplitudes in place, a bounded
    # block of rows at a time: no second (T, N) array
    step = max(1, _ROW_BLOCK // len(y0))
    for first in range(0, len(rows), step):
        block = rows[first:first + step]
        for m, (_, sl) in layout.items():
            norms = np.linalg.norm(block[:, sl], axis=1)
            drift = np.max(np.abs(norms - norms0[m]))
            stats.max_norm_drift = max(stats.max_norm_drift, float(drift))
        phase = np.exp((-1j * e0)[None, :] * ts[first:first + step, None])
        np.multiply(phase, block, out=block)
    return Trajectory(times=grid, amplitudes=rows, sectors=layout, stats=stats)


def _bump_pass(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    layout: Mapping[int, Tuple[SectorBasis, slice]],
    delta: np.ndarray,
    h_base: np.ndarray,
    t_tof: float,
    t_end: float,
    tol: float,
    grid: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, IntegratorStats]:
    """Rotating-frame rows at ``grid`` of a bump pass with t_tof >= 2, and
    the time of each row.

    The envelope is exactly 1 on the plateau [1, t_tof - 1], so there

        phi(t) = W exp(-i lam (t - 1)) W^dag phi(1)

    per sector, with Delta + H_int = W diag(lam) W^dag
    (:func:`_plateau_eigensystems`), and past the exit
    phi(t) = exp(-i Delta (t - t_tof)) phi(t_tof).  Only the entry ramp
    [0, 1] and the exit ramp [t_tof - 1, t_tof] take a DP45 run at
    ``tol``, the second started from the exact plateau state.  No piece
    reaches past ``t_end``.  The exact rows are written in place, a
    bounded block at a time.
    """
    if not np.all((grid >= -1e-15) & (grid <= t_end + 1e-15)):
        raise ValidationError("snapshot times must lie inside the span")
    ts = grid.copy()
    rows = np.empty((len(grid), len(y0)), dtype=complex)
    stats = IntegratorStats()

    def ramp(phi, t0, t1, lo, hi):
        # one DP45 run from phi at t0 over grid[lo:hi]; the state at t1
        samples, run = integrate_ode(
            rhs, phi, t0, t1, tol, np.append(grid[lo:hi], t1)
        )
        stats.steps += run.steps
        stats.rejected += run.rejected
        for k, (t, y) in enumerate(samples[:-1], lo):
            ts[k] = t
            rows[k] = y
        return samples[-1][1]

    entry = int(np.searchsorted(grid, 1.0, side="right"))
    phi = ramp(y0, 0.0, min(1.0, t_end), 0, entry)
    if t_end <= 1.0:
        return ts, rows, stats

    step = max(1, _ROW_BLOCK // len(y0))
    exit_ = max(entry, int(np.searchsorted(grid, t_tof - 1.0, side="left")))
    plateau_end = np.empty_like(phi)
    for m, (lam, w) in _plateau_eigensystems(layout, delta, h_base).items():
        sl = layout[m][1]
        c = w.conj().T @ phi[sl]
        for first in range(entry, exit_, step):
            tau = grid[first:min(first + step, exit_)] - 1.0
            np.matmul(np.exp(-1j * np.outer(tau, lam)) * c, w.T,
                      out=rows[first:first + tau.size, sl])
        plateau_end[sl] = w @ (np.exp(-1j * (t_tof - 2.0) * lam) * c)
    if t_end < t_tof - 1.0:
        return ts, rows, stats

    past = int(np.searchsorted(grid, t_tof, side="right"))
    phi = ramp(plateau_end, t_tof - 1.0, min(t_tof, t_end), exit_, past)
    for first in range(past, len(grid), step):
        dt = grid[first:first + step] - t_tof
        np.multiply(np.exp(-1j * np.outer(dt, delta)), phi,
                    out=rows[first:first + dt.size])
    return ts, rows, stats


def _plateau_eigensystems(
    layout: Mapping[int, Tuple[SectorBasis, slice]],
    e: np.ndarray,
    h_base: np.ndarray,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Label -> (lam, W) with diag(e) + H_int = W diag(lam) W^dag on the
    sector's block: the Hamiltonian of a bump's plateau, where f = 1.

    ``e`` holds bare energies, or their offsets from the frame energies E0
    for the rotating frame, which shift each sector's lam by its E0.
    """
    return {
        m: np.linalg.eigh(np.diag(e[sl]) + h_base[sl, sl])
        for m, (_, sl) in layout.items()
    }


# ------------------------------------------------------------------
# one propagator for every search
# ------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss

    return leggauss(GAUSS_NODES)


def _pulse_area(schedule: CouplingSchedule, t: float) -> float:
    """Area under the envelope on [0, t].

    Each ramp of a bump integrates to exactly 1/2 (s(x) + s(1 - x) = 1),
    so for t_tof >= 2 the area is 0.5 + (t - 1) on the plateau
    [1, t_tof - 1] and t_tof - 1 at or past the exit; these closed forms
    equal :func:`_quadrature_area` bit for bit.  A partial ramp, a bump
    with t_tof < 2 (overlapping ramps) and the constant envelope take the
    quadrature.
    """
    t_tof = schedule.t_tof
    if schedule.mode == "bump" and t_tof >= 2.0:
        if t >= t_tof:
            return t_tof - 1.0
        if 1.0 <= t <= t_tof - 1.0:
            return 0.5 + (t - 1.0)
    return _quadrature_area(schedule, t)


def _quadrature_area(schedule: CouplingSchedule, t: float) -> float:
    """Area under the envelope on [0, t] by Gauss-Legendre quadrature.

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

    * **Every sector resonant** (every detuning zero): the rotating-frame
      generator f(t) H_int commutes with itself at all times, so
      with H_int = V diag(lam) V^dag and the pulse area A(t) of f,

          psi(t) = exp(-i E0 t) V exp(-i A(t) lam) V^dag psi(0)

      for any schedule and t.  Each sector is diagonalised once.  A(t) is
      exact arithmetic on the plateau of a bump with t_tof >= 2 and at or
      past its exit; only a partial ramp, a shorter bump or the constant
      envelope costs a quadrature (:func:`_pulse_area`).
    * **Otherwise, the exit state of a bump with t_tof >= 2**: with the
      entry ramp on [0, 1], the plateau f = 1 up to t_tof - 1 and the
      mirrored exit ramp,

          psi(t_tof) = U_exit W exp(-i lam (t_tof - 2)) W^dag U_entry psi(0)

      where diag(E) + H_int = W diag(lam) W^dag.  Neither ramp depends on
      t_tof, and as the Hamiltonian is real symmetric U_exit = U_entry^T.
      The entry ramps of all sectors are integrated in one DP45 run (at
      DEFAULT_TOL, every basis state of the block-diagonal system at
      once) at most once, on the first such request.  The plateau
      eigensystem is :func:`_plateau_eigensystems`, as in
      :func:`integrate`.
    * **Anything else** (detuned partial passes, constant coupling, bumps
      with t_tof < 2, whose ramps overlap): one :func:`integrate` call at
      SEARCH_TOL with the requested times as snapshot times; on a bump
      with t_tof >= 2 it runs DP45 on the ramps only.
    """

    def __init__(self, initial: SystemState, config: AtomicConfig):
        self._initial = initial
        self._config = config
        self._sectors, self._e, self._e0, self._h = _block_system(
            initial.sectors, config
        )
        self._closed = None
        self._flight = None
        if np.array_equal(self._e, self._e0):
            self._closed = {}
            for m, (basis, sl) in self._sectors.items():
                lam, v = np.linalg.eigh(self._h[sl, sl])
                e0 = float(self._e0[sl.start])
                amps = initial.sectors[m][1]
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
            e, e0, h = self._e, self._e0, self._h
            rhs = _frame_rhs(e - e0, h, ramp.envelope)
            [(_, phi)], _ = integrate_ode(
                rhs, np.eye(len(e)), 0.0, 1.0, DEFAULT_TOL, [1.0]
            )
            u_block = np.exp(-1j * e0)[:, None] * phi
            self._flight = {}
            plateau = _plateau_eigensystems(self._sectors, e, h)
            for m, (basis, sl) in self._sectors.items():
                amps = self._initial.sectors[m][1]
                u_entry = u_block[sl, sl]
                lam, w = plateau[m]
                # U_exit W, and the plateau coefficients W^dag U_entry psi(0)
                self._flight[m] = (
                    basis, lam, u_entry.T @ w, w.conj().T @ (u_entry @ amps)
                )
        return SystemState(sectors={
            m: (basis, u_out @ (np.exp(-1j * (t_tof - 2.0) * lam) * c_in))
            for m, (basis, lam, u_out, c_in) in self._flight.items()
        })
