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
serves them exactly for resonant sectors and for the exit states of full
bump passes, and by one integration otherwise.  Every exact state, there
or in :func:`integrate`, is a row of one kernel (:func:`_eigen_rows`).
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
_ROW_BLOCK = 2**16      # amplitudes per block of row arithmetic
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
# Stage i's input, y + h sum_j a_ij k_j, is row i of _STEP_ROWS times the
# (8, N) array of a step, y as row 0 above the seven stages: a leading 1 for
# y, then row i of _DP_ROWS, whose columns integrate_ode scales by h once per
# attempt.  The error estimate takes _DP_ROWS[7] over the stages alone, h
# folded into its norm as a scalar.
_STEP_ROWS = np.hstack([np.ones((7, 1)), _DP_ROWS[:7]])


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
    each step is kept below ``tol`` in a mixed absolute/relative sense, the
    RMS of err / (1 + max(|y|, |y5|)) over the flattened state; rejected
    attempts are counted.  The state is never renormalized -- norm drift is
    a diagnostic, not a knob.

    A step works on one (8, N) array, N the size of the state: the state y
    as row 0 above the seven stages.  Each stage input, y + h sum_j a_ij k_j,
    is one coefficient row of _STEP_ROWS times that array, the rows scaled
    by h once per attempt; the error estimate is one row of _DP_ROWS times
    the stages, with h and tol folded into its norm as scalars.  An accepted
    step with snapshot times inside it keeps a copy of its array, and the
    kept steps are read off together, one weight row per snapshot
    (:class:`_DenseOutput`): once they and their snapshot values reach
    _ROW_BLOCK amplitudes, and at the end of the run.  Beside the samples it
    returns, the dense output then holds a few _ROW_BLOCKs of amplitudes at
    most, whatever the number of steps and snapshots.

    Refuses (ValidationError) a non-finite ``t0`` or ``t_end``, ``t_end <
    t0``, a ``tol`` below machine epsilon (its error estimates would be
    roundoff) and a snapshot time outside [t0, t_end] (NaN too).  Raises
    :class:`StepSizeUnderflowError` if stiffness forces the step below
    ``MIN_STEP``.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end >= t0):
        raise ValidationError(f"need a finite span t0 <= t_end, got [{t0}, {t_end}]")
    if not tol >= np.finfo(float).eps:
        raise ValidationError(
            f"need tol >= {np.finfo(float).eps:.3g} (machine epsilon), got {tol}"
        )
    times = np.asarray(dense_times, dtype=float).ravel()
    if not np.all((times >= t0 - 1e-15) & (times <= t_end + 1e-15)):   # NaN too
        raise ValidationError("snapshot times must lie inside the span")
    targets = times.tolist()
    order = np.argsort(times, kind="stable").tolist()
    stats = IntegratorStats()
    y = np.array(y0, dtype=complex)
    shape = y.shape
    flat = y.ndim == 1
    y = y.ravel()
    n = y.size
    t = t0
    out: list = [None] * len(targets)
    pos = 0
    # record anything sitting exactly at t0
    while pos < len(order) and targets[order[pos]] <= t0 + 1e-15:
        out[order[pos]] = (t0, y.reshape(shape).copy())
        pos += 1

    # the step's array, y above the stages; ``ks[i + 1] = ...`` writes stage
    # i in the shape of y, and stage i's input reads rows[i] over arr[:i + 1]
    arr = np.zeros((8, n), dtype=complex)
    arr[0] = y
    ks = arr.reshape((8,) + shape)
    rows = _STEP_ROWS.copy()
    rows_h = rows[:, 1:]
    inputs = [(i + 1, rows[i, :i + 1], arr[:i + 1], c)
              for i, c in enumerate(_DP_C.tolist()) if i > 0]
    err_row, stages = _DP_ROWS[7], arr[1:]
    dense = _DenseOutput(times, targets, out, shape)

    ks[1] = f(t, y if flat else y.reshape(shape))
    abs_y = np.abs(y)
    span = t_end - t0
    scale0 = tol + tol * float(np.max(abs_y)) if n else tol
    f0 = float(np.max(np.abs(arr[1]))) if n else 0.0
    h = min(span, 0.1 * scale0 / f0 if f0 > 0 else 0.1 * span, 0.1 * span)
    h = max(h, MIN_STEP)

    while t < t_end - 1e-15:
        last = h >= t_end - t
        h_try = t_end - t if last else h
        if h_try < MIN_STEP and not last:
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g} (h={h:.3g})"
            )

        np.multiply(_DP_ROWS[:7], h_try, out=rows_h)
        for k, row, head, c in inputs:
            yi = row.dot(head)
            ks[k] = f(t + c * h_try, yi if flat else yi.reshape(shape))
        y5 = yi   # the last stage input is the 5th-order solution (FSAL)
        err = err_row.dot(stages)
        abs_y5 = np.abs(y5)
        scale = np.maximum(abs_y, abs_y5)
        scale += 1.0
        err /= scale
        err_norm = h_try * math.sqrt(np.vdot(err, err).real / max(n, 1)) / tol

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
                dense.keep(arr, t, h_try, inside)
            t = t_new
            y, abs_y = y5, abs_y5
            arr[0] = y5
            arr[1] = arr[7]  # first-same-as-last
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
    dense.read_off()
    # anything not consumed sits at t_end up to roundoff
    while pos < len(order):
        out[order[pos]] = (t, y.reshape(shape).copy())
        pos += 1
    return out, stats


class _DenseOutput:
    """Snapshots inside accepted steps, read off a batch of steps at a time.

    A snapshot at t + s h inside a step is y + h b(s) . k, with
    b_i(s) = sum_p _DP_P[i, p] s^(p+1): one weight row [1, h b(s)] times
    the step's (8, N) array, y above the stages.  :meth:`keep` copies the
    array of a step that holds snapshots; once the kept arrays and their
    snapshot values reach _ROW_BLOCK amplitudes, or one step alone does,
    :meth:`read_off` writes ``out[k] = (targets[k], y)`` for all of them.
    """

    def __init__(self, times: np.ndarray, targets: List[float], out: list,
                 shape: Tuple[int, ...]):
        # ``targets`` is ``times`` as a list of floats
        self._times, self._targets, self._out, self._shape = times, targets, out, shape
        self._n = math.prod(shape)
        # kept steps never outnumber the snapshots
        self._cap = max(1, min(_ROW_BLOCK // max(8 * self._n, 1), len(targets)))
        self._arrays = None   # allocated on the first kept step
        self._t: List[float] = []
        self._h: List[float] = []
        self._counts: List[int] = []
        self._snaps: List[int] = []

    def keep(self, arr: np.ndarray, t: float, h: float, inside: List[int]) -> None:
        """Keep a copy of ``arr``, the step from t of length h, for the
        snapshot indices ``inside``; read the batch off once it is full."""
        if self._arrays is None:
            self._arrays = np.empty((self._cap, 8, self._n), dtype=complex)
        self._arrays[len(self._t)] = arr
        self._t.append(t)
        self._h.append(h)
        self._counts.append(len(inside))
        self._snaps.extend(inside)
        held = (8 * len(self._t) + len(self._snaps)) * self._n
        if len(self._t) == self._cap or held >= _ROW_BLOCK:
            self.read_off()

    def read_off(self) -> None:
        """Write the kept snapshots into ``out`` and empty the batch: one
        weighted sum of gathered step arrays per block of at most
        _ROW_BLOCK amplitudes."""
        if not self._snaps:
            return
        steps = np.repeat(np.arange(len(self._t)), self._counts)
        snaps = np.array(self._snaps)
        t_step, h_step = np.array(self._t), np.array(self._h)
        values = np.empty((snaps.size, self._n), dtype=complex)
        block = max(1, _ROW_BLOCK // max(8 * self._n, 1))
        p = _DP_P
        for first in range(0, snaps.size, block):
            j = steps[first:first + block]
            h = h_step[j][:, None]
            s = (self._times[snaps[first:first + block], None] - t_step[j, None]) / h
            terms = self._arrays[j]
            terms[:, 1:] *= (h * ((((p[:, 3] * s + p[:, 2]) * s + p[:, 1]) * s
                                   + p[:, 0]) * s))[:, :, None]
            np.sum(terms, axis=1, out=values[first:first + block])
        for k, y in zip(self._snaps, values.reshape((snaps.size,) + self._shape)):
            self._out[k] = (self._targets[k], y)
        for kept in (self._t, self._h, self._counts, self._snaps):
            kept.clear()


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
    and H_int of the sectors of a normalized state (refused otherwise).

    The frame energy E0 of every basis state is the bare energy of the
    first basis state of its sector; E - E0 is exactly zero on a resonant
    sector.  H_int is block diagonal: one block per sector and exact zeros
    elsewhere, so one integration of the stacked system never mixes them.
    """
    off = abs(SystemState(sectors).norm() - 1.0)
    if not off <= 1e-9:   # NaN fails too
        raise ValidationError(f"need a normalized state, |norm-1| = {off:.3g}")
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
    roundoff.  So are a grid of more than MAX_SNAPSHOTS intervals and a
    snapshot time outside [0, ``t_end``] (NaN too).
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
    grid = np.linspace(0.0, t_end, n_snapshots + 1)
    if snapshot_times is not None:
        extra = np.asarray(sorted(snapshot_times), dtype=float)
        if not np.all((extra >= -1e-15) & (extra <= t_end + 1e-15)):   # NaN too
            raise ValidationError(f"snapshot times {extra} must lie inside the span")
        grid = np.unique(np.concatenate([grid, extra]))
        # collapse floating-point near-duplicates from the merge
        keep = np.concatenate([[True], np.diff(grid) > 1e-12])
        grid = grid[keep]

    layout, e, e0, h_base = _block_system(initial.sectors, config)
    y0 = np.concatenate([initial.sectors[m][1] for m in layout])
    rhs = _frame_rhs(e - e0, h_base, schedule.envelope)
    ts = grid.copy()
    rows = np.empty((len(grid), len(y0)), dtype=complex)
    stats = IntegratorStats()

    def run(phi, t0, t1, lo, hi, end=True):
        # rows lo..hi - 1 by DP45 from phi at t0 to t1, then with end the state at t1
        dense = np.append(grid[lo:hi], [t1] if end else [])
        samples, part = integrate_ode(rhs, phi, t0, t1, tol, dense)
        stats.steps += part.steps
        stats.rejected += part.rejected
        for k, (t, y) in zip(range(lo, hi), samples):
            ts[k], rows[k] = t, y
        return samples[-1][1]

    if schedule.mode == "bump" and schedule.t_tof >= 2.0:
        _bump_pass(run, y0, layout, e - e0, h_base, schedule.t_tof, t_end,
                   grid, rows)
    else:
        run(y0, 0.0, t_end, 0, len(grid), end=False)
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
    run: Callable[..., np.ndarray],
    y0: np.ndarray,
    layout: Mapping[int, Tuple[SectorBasis, slice]],
    delta: np.ndarray,
    h_base: np.ndarray,
    t_tof: float,
    t_end: float,
    grid: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Rotating-frame ``rows`` at ``grid`` of a bump pass with t_tof >= 2.

    The envelope is exactly 1 on the plateau [1, t_tof - 1], so there

        phi(t) = W exp(-i lam (t - 1)) W^dag phi(1)

    per sector (:func:`_eigen_rows`), and past the exit
    phi(t) = exp(-i Delta (t - t_tof)) phi(t_tof).  Only the entry ramp
    [0, 1] and the exit ramp [t_tof - 1, t_tof] take a DP45 run of
    ``run``, the second started from the exact plateau state.  No piece
    reaches past ``t_end``.
    """
    entry = int(np.searchsorted(grid, 1.0, side="right"))
    phi = run(y0, 0.0, min(1.0, t_end), 0, entry)
    if t_end <= 1.0:
        return

    exit_ = max(entry, int(np.searchsorted(grid, t_tof - 1.0, side="left")))
    terms = _kernel_terms(_plateau_eigensystems(layout, delta, h_base), layout, phi)
    _eigen_rows(grid[entry:exit_] - 1.0, *terms, layout, rows[entry:exit_])
    plateau_end = np.empty_like(phi)
    _eigen_rows(np.array([t_tof - 2.0]), *terms, layout, plateau_end[None])
    if t_end < t_tof - 1.0:
        return

    past = int(np.searchsorted(grid, t_tof, side="right"))
    phi = run(plateau_end, t_tof - 1.0, min(t_tof, t_end), exit_, past)
    step = max(1, _ROW_BLOCK // len(y0))
    for first in range(past, len(grid), step):
        dt = grid[first:first + step] - t_tof
        np.multiply(np.exp(-1j * np.outer(dt, delta)), phi,
                    out=rows[first:first + dt.size])


def _plateau_eigensystems(
    layout: Mapping[int, Tuple[SectorBasis, slice]],
    delta: np.ndarray,
    h_base: np.ndarray,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Label -> (lam, W) with diag(delta) + H_int = W diag(lam) W^dag on
    the sector's block: the rotating-frame generator where f = 1, as on
    a bump's plateau.  ``delta`` holds E - E0 of every basis state.
    """
    return {
        m: np.linalg.eigh(np.diag(delta[sl]) + h_base[sl, sl])
        for m, (_, sl) in layout.items()
    }


def _kernel_terms(
    eig: Mapping[int, Tuple[np.ndarray, np.ndarray]],
    layout: Mapping[int, Tuple[SectorBasis, slice]],
    phi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """The stacked lam and c and the per-sector R = W^T of :func:`_eigen_rows`
    for the rotating-frame state ``phi``: c = W^dag phi per sector."""
    lam = np.concatenate([eig[m][0] for m in layout])
    c = [eig[m][1].conj().T @ phi[sl] for m, (_, sl) in layout.items()]
    return lam, np.concatenate(c), {m: w.T for m, (_, w) in eig.items()}


def _eigen_rows(tau, lam, c, rs, layout, out) -> None:
    """The one exact kernel: row k of ``out`` is (exp(-i lam tau[k]) * c) R,
    R = ``rs[m]`` on each sector m's slice of ``layout`` (:func:`_kernel_terms`),
    with at most _ROW_BLOCK phases held at a time."""
    step = max(1, _ROW_BLOCK // lam.size)
    for first in range(0, len(tau), step):
        t = tau[first:first + step]
        v = np.exp(-1j * (t[:, None] * lam)) * c
        for m, (_, sl) in layout.items():
            np.matmul(v[:, sl], rs[m], out=out[first:first + t.size, sl])


def _kernel_weights(tau, lam, c, r) -> np.ndarray:
    """The weight sum |a_j|^2 of each kernel row a = (exp(-i lam tau[k]) * c) r,
    ``r`` stacked (N, columns), with at most _ROW_BLOCK phases held at a time."""
    out = np.empty(len(tau))
    step = max(1, _ROW_BLOCK // lam.size)
    for first in range(0, len(tau), step):
        t = tau[first:first + step]
        a = (np.exp(-1j * (t[:, None] * lam)) * c) @ r
        out[first:first + t.size] = np.sum(np.abs(a) ** 2, axis=1)
    return out


def _check_kernel_weight(c, rs) -> None:
    """Refuse kernel terms whose rows can have a total weight off 1 by more
    than 1e-6.  A row (exp(-i lam tau) * c) R has the weight |c|^2 up to
    ||R R^dag - I|| |c|^2 per sector, at every tau."""
    if not (np.isfinite(c).all() and all(np.isfinite(r).all() for r in rs.values())):
        raise ValidationError("exit states are not finite")
    off = max(
        np.linalg.norm(r @ r.conj().T - np.eye(len(r)), 2) for r in rs.values()
    )
    c2 = float(np.vdot(c, c).real)
    if not abs(c2 - 1.0) + off * c2 <= 1e-6:
        raise ValidationError(
            f"exit states may carry a total weight off 1 by "
            f"{abs(c2 - 1.0) + off * c2:.3g}"
        )


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
    """States reached from one initial state, exact where the algebra allows.

    Each engine works in the sectors' rotating frames and converts to
    physical amplitudes once; each sector is diagonalised once
    (:func:`_plateau_eigensystems`), and every exact state is a row of the
    kernel :func:`_eigen_rows`, (exp(-i lam tau) * c) R:

    * **Every sector resonant** (Delta = 0, :attr:`resonant`): f(t) H_int
      commutes with itself at all times, so
      phi(t) = W exp(-i A(t) lam) W^dag phi(0) for any schedule and t,
      A(t) the pulse area of f (:func:`_pulse_area`): tau = A(t),
      c = W^dag phi(0), R = W^T.
    * **Otherwise, the exit state of a bump with t_tof >= 2**: entry ramp,
      plateau f = 1 and the mirrored exit ramp U_entry^T (f H_int + Delta
      is real symmetric and f(t_tof - t) = f(t)): tau = t_tof - 2,
      c = W^dag U_entry phi(0), R = W^T U_entry.  The entry ramps of all
      sectors take one DP45 run at DEFAULT_TOL, on the first such request.
    * **Anything else**: one :func:`integrate` call at SEARCH_TOL, for all
      the times of a detuned :meth:`states_at` (none when every time is 0)
      and for each detuned exit state with t_tof < 2, whose ramps overlap.

    :meth:`exit_weight` scores exit states on a few stacked basis states
    only: an exact exit state is then those columns of a kernel row, and
    no state is built.  The initial state is checked as :func:`integrate`
    checks it.
    """

    def __init__(self, initial: SystemState, config: AtomicConfig):
        self._initial, self._config = initial, config
        self._sectors, e, self._e0, self._h = _block_system(initial.sectors, config)
        self._delta = e - self._e0
        self._eig = _plateau_eigensystems(self._sectors, self._delta, self._h)
        self._phi0 = np.concatenate([initial.sectors[m][1] for m in self._sectors])
        self._closed = None
        if not self._delta.any():
            self._closed = _kernel_terms(self._eig, self._sectors, self._phi0)
        self._flight = None

    @property
    def resonant(self) -> bool:
        """Every sector resonant: every state is in closed form."""
        return self._closed is not None

    def states_at(
        self, schedule: CouplingSchedule, times: Iterable[float]
    ) -> List[SystemState]:
        """Physical amplitudes at each of ``times`` (finite, >= 0)."""
        times = [float(t) for t in times]
        if not times or not all(0.0 <= t < math.inf for t in times):
            raise ValidationError(f"need finite times >= 0, got {times}")
        if self._closed is not None:
            return self._at_areas([_pulse_area(schedule, t) for t in times], times)
        if max(times) == 0.0:
            rows = np.tile(self._phi0, (len(times), 1))
            traj = Trajectory(np.array(times), rows, self._sectors, IntegratorStats())
            return [traj.state(k) for k in range(len(times))]
        traj = self._integrated(schedule, times)
        return [traj.state_at(t) for t in times]

    def _at_areas(
        self, areas: Sequence[float], times: Sequence[float]
    ) -> List[SystemState]:
        """The closed-form states at ``times`` (every sector resonant), whose
        pulse areas the caller has taken: ``areas``."""
        return self._exact(self._closed, areas, times)

    def exit_states(self, t_tofs: Iterable[float]) -> List[SystemState]:
        """Physical amplitudes at the exit of a bump pass of each of
        ``t_tofs`` (finite, > 0)."""
        t_tofs = _flight_times(t_tofs)
        bumps = [CouplingSchedule(mode="bump", t_tof=t) for t in t_tofs]
        if self._closed is not None:
            areas = [_pulse_area(b, t) for b, t in zip(bumps, t_tofs)]
            return self._exact(self._closed, areas, t_tofs)
        full = [t for t in t_tofs if t >= 2.0]
        tau = [t - 2.0 for t in full]
        exits = iter(self._exact(self._flight_terms(), tau, full) if full else ())
        # the shorter flights, whose ramps overlap, in order among the full ones
        return [
            next(exits) if t >= 2.0 else self.states_at(b, [t])[0]
            for b, t in zip(bumps, t_tofs)
        ]

    def exit_weight(
        self, columns: Sequence[int]
    ) -> Callable[[Iterable[float]], np.ndarray]:
        """The weight sum |a_j|^2 over the stacked basis states ``columns``
        at the exit of a bump pass, as a function of the times of flight
        (finite, > 0): one value per time.

        An exact exit state (every one on a resonant configuration, t_tof
        >= 2 otherwise) is read on those columns of the kernel only,
        (exp(-i lam tau) * c) R[:, columns], from terms restricted once
        here; the physical phase drops out of |a|^2.  A shorter detuned
        flight takes its own integration, as in :meth:`exit_states`.
        What :func:`~cnlight.observables.photon_weights` refuses is refused
        here too, with ValidationError: a non-finite exit state, or one
        whose total weight is off 1 by more than 1e-6.  An integrated state
        is checked as it is; the rows of a kernel are checked once, from
        the weight the kernel preserves (|c|^2, up to the distance of each
        R R^dag from the identity).
        """
        columns = np.asarray(columns, dtype=int)

        def restricted(terms):
            lam, c, rs = terms
            _check_kernel_weight(c, rs)
            r = np.zeros((lam.size, columns.size), dtype=complex)
            for m, (_, sl) in self._sectors.items():
                inside = (columns >= sl.start) & (columns < sl.stop)
                r[sl, inside] = rs[m][:, columns[inside] - sl.start]
            return lam, c, r

        closed = restricted(self._closed) if self._closed is not None else None
        flight = None

        def weight(t_tofs: Iterable[float]) -> np.ndarray:
            nonlocal flight
            t_tofs = _flight_times(t_tofs)
            if closed is not None:
                tau = [_pulse_area(CouplingSchedule(mode="bump", t_tof=t), t)
                       for t in t_tofs]
                return _kernel_weights(np.array(tau), *closed)
            out = np.empty(len(t_tofs))
            full = [k for k, t in enumerate(t_tofs) if t >= 2.0]
            if full:
                if flight is None:
                    flight = restricted(self._flight_terms())
                tau = np.array([t_tofs[k] - 2.0 for k in full])
                out[full] = _kernel_weights(tau, *flight)
            for k, t in enumerate(t_tofs):
                if t < 2.0:
                    b = CouplingSchedule(mode="bump", t_tof=t)
                    w = np.abs(self._integrated(b, [t]).amplitudes[-1]) ** 2
                    total = float(w.sum())
                    if not abs(total - 1.0) <= 1e-6:   # NaN and inf fail too
                        raise ValidationError(
                            f"exit state at t_tof = {t} has weight {total}, not 1"
                        )
                    out[k] = w[columns].sum()
            return out

        return weight

    def _flight_terms(self):
        """Kernel terms of the exit states of full bumps, built on first use."""
        if self._flight is None:
            # on [0, 1] the envelope of the shortest full bump is the entry ramp
            rhs = _frame_rhs(self._delta, self._h, functools.partial(bump, 2.0))
            [(_, u)], _ = integrate_ode(
                rhs, np.eye(self._delta.size), 0.0, 1.0, DEFAULT_TOL, [1.0]
            )
            lam, c, rs = _kernel_terms(self._eig, self._sectors, u @ self._phi0)
            self._flight = lam, c, {
                m: rs[m] @ u[sl, sl] for m, (_, sl) in self._sectors.items()
            }
        return self._flight

    def _integrated(self, schedule: CouplingSchedule, times: List[float]) -> Trajectory:
        """One integration at SEARCH_TOL with ``times`` as snapshot times."""
        return integrate(
            self._initial, self._config, schedule, max(times),
            tol=SEARCH_TOL, snapshot_times=times, n_snapshots=1,
        )

    def _exact(self, terms, tau, times) -> List[SystemState]:
        """The states at ``times``: physical rows of the kernel at ``tau``."""
        tau, times = np.array(tau), np.array(times)
        rows = np.empty((tau.size, self._e0.size), dtype=complex)
        _eigen_rows(tau, *terms, self._sectors, rows)
        rows = np.exp((-1j * self._e0)[None, :] * times[:, None]) * rows
        traj = Trajectory(times, rows, self._sectors, IntegratorStats())
        return [traj.state(k) for k in range(times.size)]


def _flight_times(t_tofs: Iterable[float]) -> List[float]:
    """``t_tofs`` as floats, refused unless finite and > 0."""
    t_tofs = [float(t) for t in t_tofs]
    if not t_tofs or not all(0.0 < t < math.inf for t in t_tofs):
        raise ValidationError(f"need finite times of flight > 0, got {t_tofs}")
    return t_tofs
