"""The three benchmark workloads: seeded inputs, one op each, and its checks.

Every op gets its own generated inputs, so no result can be reused from an
earlier op: no two ops share a configuration, a search window or a time of
flight.  A run holds only a handful of ops, so the inputs are spread
evenly rather than drawn independently; otherwise the median op time of a
run would jump with the seed.  The categorical inputs (which photon
numbers, how many atoms, which connectivity) cycle through every
combination in a fixed order.  The continuous ones follow a Weyl sequence
u = frac(offset + i * alpha) per input dimension, with the offsets drawn
from the seed, so any few consecutive ops cover each range evenly.

On husimi_frames the work of an op grows with its time of flight, and a
run holds about ten ops, so where the few draws of a run fall would still
move its median by several per cent.  Its ops therefore come in pairs
that share their class and mirror every draw (u and 1 - u): a run of
whole pairs has times of flight symmetric about the middle of their
range, whatever the seed.  The search workloads are not paired; their
classes decide most of the work.

The op functions look cnlight up through its modules at call time
(``protocol.run_protocol``, ``cli.run_command``) so that the wrappers the
traced run installs on those bindings see the calls.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from cnlight import cli, protocol
from cnlight.dynamics import CouplingSchedule
from cnlight.hilbert import AtomicConfig, Kind
from cnlight.observables import FieldDensityMatrix

LEAKAGE_TARGET = 0.02          # the protocol's own default target
SEARCH_LEAKAGE_TOL = 1e-6      # search objective vs. the final pass
NORM_TOL = 1e-8
Q_FLOOR = -1e-12
WINDOW = (0.85, 1.15)          # search window around its centre
# the centre is the bundled reference times a draw from this range, so that
# every op searches its own grid of times of flight
CENTRE_JITTER = (0.98, 1.02)
ANIMATE_DT = math.pi / 32      # cnlight animate's default --dt
GRID_POINTS = 121
ANIMATE_GRID = f"-4:4:{GRID_POINTS}"

# the second pass leaves (0, 3) from nu0 = 3 and (1, 5) from nu0 = 5; the
# cyclic order is the photon gap
EXPECTED_ORDER = {3: 3, 5: 4}
_REF_T_TOF = {(c.m1, c.m2): c.t_tof for c in protocol.REFERENCE_CATS}
_PAIRS = {"xi": ("12", "23"), "v": ("12", "13"), "lambda": ("13", "23")}


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


@dataclass
class OpResult:
    """What a checked op reports besides its time."""

    leakage: float = math.nan     # search workloads only
    norm_err: float = math.nan
    bytes_written: int = 0        # husimi_frames only


@dataclass(frozen=True)
class Workload:
    name: str
    classes: Tuple                      # categorical inputs, cycled in order
    draw: Callable                      # (Draws, cls) -> op inputs
    run: Callable                       # (inputs, tmp_root) -> raw output
    check: Callable                     # (inputs, raw output) -> OpResult
    expected_spans: Tuple[str, ...]     # spans the traced run must see
    paired: bool = False                # ops 2j, 2j+1: one class, mirrored draws


class Draws:
    """Evenly spread uniforms for term ``i`` of one Weyl sequence per call
    site, each u replaced by 1 - u when ``mirrored``."""

    ALPHAS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))

    def __init__(self, offsets, i: int, mirrored: bool = False):
        self.offsets = offsets
        self.i = i
        self.mirrored = mirrored
        self.dim = 0

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.offsets[self.dim] + self.i * self.ALPHAS[self.dim]) % 1.0
        if self.mirrored:
            u = -u % 1.0
        self.dim += 1
        return lo + (hi - lo) * float(u)

    def signed(self, lo: float, hi: float) -> float:
        """Magnitude in [lo, hi) with either sign, from one dimension."""
        u = self.uniform()
        sign = -1.0 if u < 0.5 else 1.0
        return sign * (lo + (hi - lo) * ((2.0 * u) % 1.0))

    def choice(self, options):
        return options[int(self.uniform() * len(options))]


def _two_fock(m1: int, m2: int) -> FieldDensityMatrix:
    vec = np.zeros(m2 + 1, dtype=complex)
    vec[m1] = vec[m2] = 1.0 / math.sqrt(2.0)
    return FieldDensityMatrix(rho=np.outer(vec, vec.conj()))


def _centre(d, ref: float) -> float:
    return ref * d.uniform(*CENTRE_JITTER)


def _in_window(t: float, centre: float) -> bool:
    return WINDOW[0] * centre <= t <= WINDOW[1] * centre


def _norm_err(probabilities) -> float:
    return abs(float(np.sum(probabilities)) - 1.0)


# ------------------------------------------------------------------
# resonant_protocol: two-pass run_protocol on the reference config
# ------------------------------------------------------------------

def _draw_resonant(d, nu0):
    return {
        "nu0": nu0,
        "t_tof_first": d.uniform(4.0, 10.0),
        "theta": d.uniform(math.pi / 4, 1.1),
        "xi": d.uniform(0.0, 2.0 * math.pi),
        # run_protocol searches 0.85-1.15 times the second pass's t_tof
        "centre": _centre(d, _REF_T_TOF[(nu0 - 2, nu0)]),
    }


def _run_resonant(inp, tmp_root):
    first = protocol.PassSpec(
        schedule=CouplingSchedule(mode="bump", t_tof=inp["t_tof_first"])
    )
    second = protocol.PassSpec(
        schedule=CouplingSchedule(mode="bump", t_tof=inp["centre"]),
        exit_policy="search",
    )
    spec = protocol.ProtocolSpec(
        config=protocol.reference_config(),
        nu0=inp["nu0"],
        passes=(first, second),
        theta=inp["theta"],
        xi=inp["xi"],
    )
    return protocol.run_protocol(spec)


def _check_resonant(inp, reports) -> OpResult:
    last = reports[-1]
    if not last.leakage <= LEAKAGE_TARGET:
        raise CheckFailed(f"final leakage {last.leakage:.3g} > {LEAKAGE_TARGET}")
    want = EXPECTED_ORDER[inp["nu0"]]
    if last.symmetry.order != want:
        raise CheckFailed(f"symmetry order {last.symmetry.order} != {want}")
    if not _in_window(last.exit_time, inp["centre"]):
        raise CheckFailed(f"t_tof {last.exit_time:.4f} outside the window")
    return OpResult(
        leakage=float(last.leakage),
        norm_err=max(_norm_err(r.probabilities) for r in reports),
    )


# ------------------------------------------------------------------
# detuned_search: find_tof_for_cat then subsequent_passage, detuned ladder
# ------------------------------------------------------------------

def _draw_detuned(d, cls):
    (m1, m2), na = cls
    return {
        "m1": m1, "m2": m2, "na": na,
        "delta12": d.signed(0.05, 0.2),
        "delta23": d.signed(0.05, 0.2),
        "centre": _centre(d, _REF_T_TOF[(m1, m2)]),
    }


def _run_detuned(inp, tmp_root):
    config = AtomicConfig(
        kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0),
        delta12=inp["delta12"], delta23=inp["delta23"],
    )
    field = _two_fock(inp["m1"], inp["m2"])
    window = (WINDOW[0] * inp["centre"], WINDOW[1] * inp["centre"])
    # detuned configurations miss the 0.02 target, so any leakage is accepted
    found = protocol.find_tof_for_cat(
        field, config, target=1.0, window=window, na=inp["na"]
    )
    report = protocol.subsequent_passage(field, config, found.t_tof, na=inp["na"])
    return found, report


def _check_detuned(inp, out) -> OpResult:
    found, report = out
    gap = abs(found.leakage - report.leakage)
    if not gap <= SEARCH_LEAKAGE_TOL:
        raise CheckFailed(f"search and final leakage differ by {gap:.3g}")
    if not _in_window(found.t_tof, inp["centre"]):
        raise CheckFailed(f"t_tof {found.t_tof:.4f} outside the window")
    err = _norm_err(report.probabilities)
    if not err <= NORM_TOL:
        raise CheckFailed(f"|sum P - 1| = {err:.3g}")
    return OpResult(leakage=float(report.leakage), norm_err=err)


# ------------------------------------------------------------------
# husimi_frames: in-process `cnlight animate` into a scratch directory
# ------------------------------------------------------------------

_FOCK_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 7)]


def _draw_husimi(d, cls):
    kind, detuned, na = cls
    t_tof = d.uniform(3.0, 6.0)
    nu1, nu2 = d.choice(_FOCK_PAIRS)
    argv = ["animate", "--config", kind]
    for pair in _PAIRS[kind]:
        argv += [f"--mu{pair}", repr(d.uniform(0.5, 1.5))]
    if detuned:
        for pair in _PAIRS[kind]:
            argv += [f"--delta{pair}", repr(d.signed(0.05, 0.2))]
    argv += [
        "--na", str(na), "--nu1", str(nu1), "--nu2", str(nu2),
        "--mode", "bump", "--t-tof", repr(t_tof), f"--grid={ANIMATE_GRID}",
    ]
    return {"argv": argv, "t_tof": t_tof}


def _run_husimi(inp, tmp_root):
    out_dir = Path(tempfile.mkdtemp(prefix="frames-", dir=tmp_root))
    code = cli.run_command(inp["argv"] + ["--out", str(out_dir)])
    return code, out_dir


def _frame_values(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    if lines[0] != "q,p,value":
        raise CheckFailed(f"{path.name}: unexpected header {lines[0]!r}")
    return np.array([line.rsplit(",", 1)[1] for line in lines[1:]], dtype=float)


def _check_husimi(inp, out) -> OpResult:
    code, out_dir = out
    try:
        if code != 0:
            raise CheckFailed(f"animate exited with code {code}")
        n_frames = max(int(round(inp["t_tof"] / ANIMATE_DT)), 1) + 1
        names = [f"husimi_{k:05d}.csv" for k in range(n_frames)]
        on_disk = sorted(p.name for p in out_dir.glob("husimi_*.csv"))
        if on_disk != names:
            raise CheckFailed(f"{len(on_disk)} frames on disk, expected {n_frames}")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if manifest["outputs"] != names:
            raise CheckFailed("manifest does not list every frame")
        n_points = GRID_POINTS ** 2
        for name in names:
            q = _frame_values(out_dir / name)
            if q.size != n_points:
                raise CheckFailed(f"{name}: {q.size} points, expected {n_points}")
            if not np.all(np.isfinite(q)) or float(q.min()) < Q_FLOOR:
                raise CheckFailed(f"{name}: Q not finite or below {Q_FLOOR}")
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        return OpResult(bytes_written=written)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# ------------------------------------------------------------------
# registry
# ------------------------------------------------------------------

_SEARCH_SPANS = (
    "protocol.find_tof_for_cat", "protocol.subsequent_passage",
    "dynamics.integrate", "dynamics.integrate_ode", "dynamics.rhs",
    "dynamics.bump", "dynamics.interaction_matrix",
    "observables.reduce_field", "observables.detect_cyclic_symmetry",
    "observables.husimi_values", "hilbert.build_sector_basis",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="resonant_protocol",
            classes=(3, 5),
            draw=_draw_resonant,
            run=_run_resonant,
            check=_check_resonant,
            expected_spans=_SEARCH_SPANS + (
                "protocol.run_protocol", "protocol.first_passage",
                "analytic_core.switching_time",
            ),
        ),
        Workload(
            name="detuned_search",
            # cat alternates and na cycles, so any three ops cover na = 1..3
            classes=tuple(
                (((1, 3), (3, 5))[i % 2], 1 + i % 3) for i in range(6)
            ),
            draw=_draw_detuned,
            run=_run_detuned,
            check=_check_detuned,
            expected_spans=_SEARCH_SPANS,
        ),
        Workload(
            name="husimi_frames",
            # i -> (i mod 3, i mod 4) is one-to-one on 0..11, so every
            # combination comes once and any four pairs vary all three inputs
            classes=tuple(
                (("xi", "v", "lambda")[i % 3], i % 2 == 1, 1 + i % 4 // 2)
                for i in range(12)
            ),
            draw=_draw_husimi,
            run=_run_husimi,
            check=_check_husimi,
            expected_spans=(
                "cli.run_command", "dynamics.make_superposition",
                "dynamics.integrate", "dynamics.integrate_ode", "dynamics.rhs",
                "dynamics.bump", "dynamics.interaction_matrix",
                "observables.reduce_field", "observables.husimi",
                "observables.husimi_values", "hilbert.build_sector_basis",
            ),
            paired=True,
        ),
    )
}


def inputs(workload: Workload, seed: int) -> Iterator[dict]:
    """Endless stream of op inputs.  Op i has class i modulo the class
    count, or, when the workload is paired, class i // 2 modulo it."""
    offsets = np.random.default_rng(seed).random(len(Draws.ALPHAS))
    k = len(workload.classes)
    for i in itertools.count():
        j, mirrored = (i // 2, i % 2 == 1) if workload.paired else (i, False)
        yield workload.draw(Draws(offsets, j, mirrored), workload.classes[j % k])
