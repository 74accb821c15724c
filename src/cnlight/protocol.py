"""Multi-pass cavity protocol: grow cyclic cat states one atom at a time.

A first ladder-configuration atom turns a Fock state |nu0> into a
two-component superposition (nu0-2, nu0).  Each later atom, sent through
with a tuned time of flight, swallows two more photons from the lower
component while returning the upper one intact, stretching the photon gap
and with it the cyclic order of the field.

Exit bookkeeping: while the atom is inside, the honest reduced field is
generally mixed (the surviving components ride on different atomic
levels).  The pass reports carry those honest probabilities and the
honest entropy trace; the *resulting field* handed to the next pass is
the read-off superposition built from the two target components, which is
the standard idealization of the atom being discarded after its exit.
theta and xi of that superposition are read off the exit amplitudes, not
imposed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .analytic_core import switching_time
from .dynamics import (
    CouplingSchedule,
    SectorPropagator,
    SystemState,
    Trajectory,
    _pulse_area,
    ground_product_state,
    integrate,
    product_state,
    sector_layout,
)
from .errors import (
    MinimumNotFoundError,
    NonPureFieldError,
    TargetUnreachableError,
    ValidationError,
)
# build_sector_basis has no use here; perfbench/spans.py traces this binding
from .hilbert import AtomicConfig, Kind, build_sector_basis  # noqa: F401
from .observables import (
    FieldDensityMatrix,
    SymmetryReport,
    detect_cyclic_symmetry,
    linear_entropies,
    linear_entropy,
    photon_probabilities,
    pure_field,
    reduce_field,
    reduce_fields,
)

__all__ = [
    "PassSpec",
    "ProtocolSpec",
    "PassageReport",
    "TofSearchResult",
    "CatReference",
    "REFERENCE_CATS",
    "reference_config",
    "first_passage",
    "subsequent_passage",
    "find_tof_for_cat",
    "run_protocol",
]

EXIT_THRESHOLD = 1e-3        # max acceptable P(nu0-1) at the first exit
SEARCH_HALF_WIDTH = 0.75     # exit-time window around the predicted instant
GRID_STEP = 0.01
GOLDEN_TOL = 1e-6
PURITY_TOL = 1e-6
DEFAULT_LEAKAGE_TARGET = 0.02
SCAN_STEP = 0.05
MAX_SCAN_POINTS = 10**6      # time-of-flight candidates of one search


class TofSearchResult(NamedTuple):
    t_tof: float
    leakage: float


class CatReference(NamedTuple):
    m1: int
    m2: int
    t_tof: float


# bundled operating points for the two-Fock cat preparation
# (initial components, time of flight), all for the reference couplings
REFERENCE_CATS = (
    CatReference(1, 3, 5.749),
    CatReference(3, 5, 4.510),
    CatReference(1, 5, 2.685),
)


def reference_config() -> AtomicConfig:
    """Resonant ladder configuration with mu12 = 1, mu23 = sqrt(2)."""
    return AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0))


@dataclass(frozen=True)
class PassSpec:
    schedule: CouplingSchedule
    exit_policy: str = "fixed"   # "fixed" | "search"
    na: int = 1

    def __post_init__(self):
        if self.exit_policy not in ("fixed", "search"):
            raise ValidationError(f"unknown exit policy {self.exit_policy!r}")
        if self.na < 1:
            raise ValidationError("need at least one atom per pass")


@dataclass(frozen=True)
class ProtocolSpec:
    config: AtomicConfig
    nu0: int
    passes: Tuple[PassSpec, ...] = ()
    theta: Optional[float] = None   # override the read-off superposition
    xi: Optional[float] = None      # parameters of the first exit, if set


@dataclass(frozen=True)
class PassageReport:
    """What one atom did to the cavity field."""

    exit_time: float
    probabilities: np.ndarray          # honest P(nu) at exit
    times: np.ndarray                  # entropy-trace time grid
    entropies: np.ndarray              # honest S_L(t) while the atom is inside
    field: FieldDensityMatrix          # read-off field handed to the next pass
    symmetry: SymmetryReport
    min_probability: Optional[float] = None   # first pass: achieved P(nu0-1)
    leakage: Optional[float] = None           # later passes: off-target weight
    theta: Optional[float] = None             # read-off cat parameters
    xi: Optional[float] = None


# ------------------------------------------------------------------
# helpers
# ------------------------------------------------------------------

def _golden_min(f, a: float, b: float, tol: float) -> Tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _scan_and_refine(
    f: Callable[[float], float],
    grid: np.ndarray,
    tol: float,
    scan: Optional[Callable[[np.ndarray], Sequence[float]]] = None,
) -> Tuple[float, float]:
    """Minimum of f over a grid, refined by golden section.

    ``scan`` evaluates f on the whole grid at once (default: point by
    point).  The refinement brackets the best grid point by its
    neighbours; golden section assumes one minimum there, so the best
    grid point is kept when the refined one came out worse.
    """
    values = scan(grid) if scan is not None else [f(float(t)) for t in grid]
    k = int(np.argmin(values))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, len(grid) - 1)])
    x_best, f_best = _golden_min(f, a, b, tol)
    if values[k] < f_best:
        x_best, f_best = float(grid[k]), float(values[k])
    return x_best, f_best


def _pure_amplitudes(field: FieldDensityMatrix) -> np.ndarray:
    """Fock amplitudes of a pure field state, global phase fixed."""
    s_l = linear_entropy(field)
    if s_l > PURITY_TOL:
        raise NonPureFieldError(
            f"protocol needs a pure cavity field, got S_L = {s_l:.3g}"
        )
    w, v = np.linalg.eigh(field.rho)
    c = v[:, -1]
    for x in c:
        if abs(x) > 1e-12:
            c = c * np.exp(-1j * np.angle(x))
            break
    return c


def _read_off(components: Dict[int, complex]) -> Tuple[
    FieldDensityMatrix, Optional[float], Optional[float]
]:
    """Read-off field plus (theta, xi) when it has exactly two components."""
    field = pure_field(components)
    theta = xi = None
    nonzero = sorted(nu for nu, a in components.items() if abs(a) > 1e-12)
    if len(nonzero) == 2:
        lo, hi = nonzero
        c_lo, c_hi = components[lo], components[hi]
        theta = math.atan2(abs(c_hi), abs(c_lo))
        xi = float(np.angle(c_hi) - np.angle(c_lo))
    return field, theta, xi


def _state_from_field(
    field: FieldDensityMatrix, config: AtomicConfig, na: int
) -> SystemState:
    """Pure field ⊗ all atoms ground, one sector per Fock component."""
    c = _pure_amplitudes(field)
    # amplitudes up to 1e-12 are eigh noise, not components
    state = product_state(
        config, {nu: c[nu] for nu in range(c.size) if abs(c[nu]) > 1e-12}, na
    )
    if not state.sectors:
        raise ValidationError("field state has no Fock support")
    return state


def _read_off_indices(sectors: Mapping[int, tuple]) -> Dict[int, int]:
    """Sector label -> basis index of its read-off component, for sectors
    mapping each label to its basis first: the lowest of several sectors
    drains to its fewest photons, every other one keeps its photons (atoms
    in ground)."""
    ms = sorted(sectors)
    indices = {}
    for m in ms:
        basis = sectors[m][0]
        if m == ms[0] and len(ms) > 1:
            indices[m] = int(np.argmin([s.nu for s in basis.states]))
        else:
            indices[m] = basis.index(basis.na, basis.na)
    return indices


def _exit_components(state: SystemState) -> Dict[int, complex]:
    """Read-off photon amplitudes of an exit state."""
    return {
        state.sectors[m][0].states[i].nu: complex(state.sectors[m][1][i])
        for m, i in _read_off_indices(state.sectors).items()
    }


def _read_off_columns(sectors: Mapping[int, tuple]) -> List[int]:
    """Stacked basis states (``sector_layout`` order) that carry a read-off
    photon number: the weight on them is 1 minus the leakage."""
    layout = sector_layout(sectors)
    nus = {
        layout[m][0].states[i].nu for m, i in _read_off_indices(layout).items()
    }
    return [
        sl.start + k
        for basis, sl in layout.values()
        for k, s in enumerate(basis.states)
        if s.nu in nus
    ]


def _leakage(probs: np.ndarray, components: Dict[int, complex]) -> float:
    """Photon-number weight off the read-off components."""
    return float(1.0 - sum(probs[nu] for nu in set(components)))


def _passage_report(
    traj: Trajectory,
    components: Dict[int, complex],
    min_probability: Optional[float] = None,
) -> PassageReport:
    """Report of an integrated pass whose exit state reads off ``components``.

    The first pass carries the minimum its exit-time search reached; a
    later pass has none and carries its leakage instead.
    """
    probs = photon_probabilities(reduce_field(traj.state(-1)))
    field, theta, xi = _read_off(components)
    return PassageReport(
        exit_time=float(traj.times[-1]),
        probabilities=probs,
        times=traj.times,
        entropies=linear_entropies(reduce_fields(traj)),
        field=field,
        symmetry=detect_cyclic_symmetry(field),
        min_probability=min_probability,
        leakage=(
            _leakage(probs, components) if min_probability is None else None
        ),
        theta=theta,
        xi=xi,
    )


# ------------------------------------------------------------------
# passes
# ------------------------------------------------------------------

def first_passage(
    nu0: int,
    config: AtomicConfig,
    schedule: CouplingSchedule,
    components: Optional[Dict[int, complex]] = None,
) -> PassageReport:
    """Send one ground-state ladder atom through |nu0>.

    The exit time is placed at the first zero of P(nu0 - 1), in a window
    of half-width SEARCH_HALF_WIDTH around the predicted instant: the
    switching time t_s, delayed by the ramp area 1/2 for the bump envelope.
    On a resonant configuration P(nu0 - 1) is proportional to
    sin^2(E A(t)), A(t) the pulse area, so it vanishes where A = t_s.
    When that is the window's centre (the centre on the bump's plateau,
    or constant coupling) and the window is not clipped at its low end,
    the exit is the centre, and one :meth:`SectorPropagator.states_at`
    call gives the P(nu0 - 1) reported there.  Otherwise a coarse 0.01
    grid over the window is followed by golden-section refinement, each
    evaluated by :meth:`SectorPropagator.states_at` (in closed form on a
    resonant configuration, otherwise by one integration for the whole
    grid and one per refinement probe); only grid points whose pulse area
    lies in (t_s/2, 3 t_s/2) compete, so the scan takes neither the time
    before the pulse has acted nor the second zero at 2 t_s.  The reported
    pass always goes through :func:`integrate` (under a bump with
    t_tof >= 2: DP45 on the entry ramp, the plateau exact).
    ``components`` ({nu0 - 2: c, nu0: c'}), when given, replace the
    read-off of the exit amplitudes: the report hands on and certifies
    that field instead.  Raises MinimumNotFoundError when the minimum
    never drops below EXIT_THRESHOLD.
    """
    if config.kind is not Kind.XI:
        raise ValidationError("the first passage needs a ladder configuration")
    if nu0 < 2:
        raise ValidationError(f"need nu0 >= 2, got {nu0}")
    if nu0 == 2:
        warnings.warn(
            "nu0 = 2 empties the cavity's lower component", stacklevel=2
        )

    t_s = switching_time(config, nu0)
    center = t_s + 0.5 if schedule.mode == "bump" else t_s
    lo = max(center - SEARCH_HALF_WIDTH, GRID_STEP)
    hi = center + SEARCH_HALF_WIDTH
    if schedule.mode == "bump":
        hi = min(hi, schedule.t_tof)
    if hi <= lo:
        raise ValidationError("empty exit-time search window")

    initial = ground_product_state(config, nu0, na=1)
    basis = initial.sectors[nu0][0]
    idx_mid = basis.index(1, 0)          # the nu0 - 1 component

    propagator = SectorPropagator(initial, config)

    def p_mid(times: Sequence[float]) -> List[float]:
        return [
            float(abs(state.sectors[nu0][1][idx_mid]) ** 2)
            for state in propagator.states_at(schedule, times)
        ]

    # on resonance P(nu0 - 1) ~ sin^2(E A(t)) vanishes where A(t) = t_s: at
    # the centre when it lies on the bump's plateau or the coupling is
    # constant, the grid point that the scan of an unclipped window lands on
    zero_at_center = propagator.resonant and (
        schedule.mode == "constant" or 1.0 <= center <= schedule.t_tof - 1.0
    )
    if zero_at_center and center - SEARCH_HALF_WIDTH >= GRID_STEP:
        t_exit = center
        (p_min,) = p_mid([center])
    else:
        grid = np.arange(lo, hi + GRID_STEP / 2, GRID_STEP)
        areas = np.array([_pulse_area(schedule, t) for t in grid])
        first_zero = (areas > 0.5 * t_s) & (areas < 1.5 * t_s)
        if not first_zero.any():
            raise MinimumNotFoundError(
                f"no time in [{lo:.3f}, {hi:.3f}] has a pulse area near "
                f"t_s = {t_s:.4g}"
            )
        t_exit, p_min = _scan_and_refine(
            lambda t: p_mid([t])[0], grid, GOLDEN_TOL,
            lambda times: np.where(first_zero, p_mid(times), np.inf),
        )
    if p_min > EXIT_THRESHOLD:
        raise MinimumNotFoundError(
            f"P({nu0 - 1}) only reaches {p_min:.3g} in [{lo:.3f}, {hi:.3f}]"
        )

    final = integrate(initial, config, schedule, t_exit)
    if components is None:
        amps = final.amplitudes[-1, final.sectors[nu0][1]]
        components = {
            nu0 - 2: complex(amps[basis.index(0, 0)]),
            nu0: complex(amps[basis.index(1, 1)]),
        }
    return _passage_report(final, components, min_probability=p_min)


def subsequent_passage(
    field: FieldDensityMatrix,
    config: AtomicConfig,
    t_tof: float,
    na: int = 1,
) -> PassageReport:
    """Send a fresh ground-state atom (or na of them) through a pure field.

    The field-atom product evolves under the bump envelope for the full
    time of flight.  Raises NonPureFieldError for mixed inputs.
    """
    if t_tof <= 0:
        raise ValidationError(f"need t_tof > 0, got {t_tof}")
    state = _state_from_field(field, config, na)
    schedule = CouplingSchedule(mode="bump", t_tof=t_tof)
    traj = integrate(state, config, schedule, t_tof)
    return _passage_report(traj, _exit_components(traj.state(-1)))


# ------------------------------------------------------------------
# time-of-flight search
# ------------------------------------------------------------------

def find_tof_for_cat(
    field: FieldDensityMatrix,
    config: AtomicConfig,
    target: float = DEFAULT_LEAKAGE_TARGET,
    window: Optional[Tuple[float, float]] = None,
    na: int = 1,
) -> TofSearchResult:
    """Tune the time of flight so one pass leaves a clean two-Fock cat.

    Scans the window (default [1, 20]) on a 0.05 grid for the time of
    flight minimizing the population outside the two target photon
    numbers (drained lower component, preserved upper), then refines by
    golden section.  Those photon numbers, and the stacked basis states
    that carry them, depend only on the sectors of the field-atom state,
    so they are fixed once per search; the objective is 1 minus the
    weight on those basis states at the exit
    (:meth:`SectorPropagator.exit_weight`).  The scan is one call, and so
    is each probe: for every candidate of a resonant configuration and
    every detuned one with t_tof >= 2, those columns of one exact kernel
    call, with no exit state built; one integration from t = 0 per shorter
    detuned candidate, whose ramps overlap.  Raises
    TargetUnreachableError (with the best point attached) if the achieved
    leakage stays above ``target``, and ValidationError for a window of
    more than MAX_SCAN_POINTS candidates or for an exit state that is not
    finite or not of unit weight (to 1e-6).
    """
    state = _state_from_field(field, config, na)
    if len(state.sectors) != 2:
        raise ValidationError(
            f"need a two-component field, got support {sorted(state.sectors)}"
        )
    w0, w1 = window if window is not None else (1.0, 20.0)
    if not 0 < w0 < w1:
        raise ValidationError(f"bad search window ({w0}, {w1})")
    if not (w1 - w0) / SCAN_STEP <= MAX_SCAN_POINTS:   # inf too
        raise ValidationError(
            f"search window ({w0}, {w1}) holds more than {MAX_SCAN_POINTS} "
            f"candidates {SCAN_STEP} apart"
        )

    candidates = np.arange(w0, w1 + SCAN_STEP / 2, SCAN_STEP)
    # the last step may land up to SCAN_STEP / 2 past the window: drop it
    # unless it is past by roundoff only
    candidates = candidates[candidates <= w1 + 1e-9 * SCAN_STEP]
    weight = SectorPropagator(state, config).exit_weight(
        _read_off_columns(state.sectors)
    )

    def leakages(t_tofs: Sequence[float]) -> np.ndarray:
        return 1.0 - weight(t_tofs)

    t_best, leak_best = _scan_and_refine(
        lambda t: float(leakages([t])[0]), candidates, 1e-5, leakages
    )
    if leak_best > target:
        raise TargetUnreachableError(
            f"best leakage {leak_best:.4g} at t_tof = {t_best:.4f} "
            f"misses the target {target}",
            best_value=t_best,
            best_objective=leak_best,
        )
    return TofSearchResult(t_tof=t_best, leakage=leak_best)


# ------------------------------------------------------------------
# protocol driver
# ------------------------------------------------------------------

def _initial_report(nu0: int) -> PassageReport:
    fdm = pure_field({nu0: 1.0})
    return PassageReport(
        exit_time=0.0,
        probabilities=photon_probabilities(fdm),
        times=np.array([0.0]),
        entropies=np.array([0.0]),
        field=fdm,
        symmetry=detect_cyclic_symmetry(fdm),
    )


def run_protocol(spec: ProtocolSpec) -> List[PassageReport]:
    """Chain passes; each read-off exit field feeds the next atom."""
    if spec.nu0 < 0:
        raise ValidationError("photon numbers are non-negative")
    if spec.xi is not None and spec.theta is None:
        raise ValidationError("xi overrides the read-off cat only with theta")
    if spec.passes and spec.passes[0].na != 1:
        raise ValidationError(
            f"the first pass sends one atom, got na = {spec.passes[0].na}"
        )
    if not spec.passes:
        if spec.theta is not None:
            raise ValidationError("theta and xi override a first pass; none given")
        return [_initial_report(spec.nu0)]

    reports: List[PassageReport] = []
    field: Optional[FieldDensityMatrix] = None
    for i, ps in enumerate(spec.passes):
        if i == 0:
            forced = None
            if spec.theta is not None:
                xi = spec.xi if spec.xi is not None else 0.0
                forced = {
                    spec.nu0 - 2: complex(math.cos(spec.theta)),
                    spec.nu0: math.sin(spec.theta) * np.exp(1j * xi),
                }
            rep = first_passage(spec.nu0, spec.config, ps.schedule, forced)
        else:
            if ps.exit_policy == "search":
                ref = ps.schedule.t_tof
                window = (
                    (0.85 * ref, 1.15 * ref) if ref > 0 else None
                )
                found = find_tof_for_cat(
                    field, spec.config, window=window, na=ps.na
                )
                t_tof = found.t_tof
            else:
                t_tof = ps.schedule.t_tof
            rep = subsequent_passage(field, spec.config, t_tof, na=ps.na)
        field = rep.field
        reports.append(rep)
    return reports
