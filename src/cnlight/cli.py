"""Command-line interface: deterministic CSV/JSON export of everything.

Exit codes: 0 success, 2 bad input (validation), 3 numerical failure.
Data files carry no timestamps; a manifest JSON sits next to every output
set so a run can be replayed byte-for-byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, g17
from .analytic_core import (
    dressed_linear_entropy,
    dressed_states,
    propagator,
    step_spectrum,
)
from .dynamics import (
    MAX_SNAPSHOTS,
    CouplingSchedule,
    Trajectory,
    ground_product_state,
    integrate,
    make_superposition,
)
from .errors import NumericalError, ValidationError
from .hilbert import AtomicConfig, Kind, build_sector_basis
from .observables import (
    DEFAULT_GRID,
    FieldDensityMatrix,
    detect_cyclic_symmetry,
    husimi,
    linear_entropy,
    photon_probabilities,
    pure_field,
    reduce_field,
)
from .protocol import (
    REFERENCE_CATS,
    PassSpec,
    ProtocolSpec,
    find_tof_for_cat,
    reference_config,
    run_protocol,
    subsequent_passage,
)

GridSpec = Tuple[Tuple[float, float, int], Tuple[float, float, int]]

# a grid's points, Q values and CSV rows are all held in memory at once
MAX_GRID_POINTS = 10**6


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_atomic(path: Path, data: bytes) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


@dataclasses.dataclass
class RunManifest:
    command: str
    parameters: Dict[str, object]
    version: str
    grid: Optional[Dict[str, object]]
    outputs: List[str]
    duration_seconds: float

    def write(self, path: Path) -> None:
        text = json.dumps(dataclasses.asdict(self), indent=2) + "\n"
        _write_atomic(path, text.encode("utf-8"))


def _manifest_params(args: argparse.Namespace) -> Dict[str, object]:
    skip = {"func", "out"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }


def _emit(
    args: argparse.Namespace,
    text: str,
    grid: Optional[GridSpec],
    started: float,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Send a single data file to --out (with manifest) or stdout.

    ``extra`` entries join the command-line parameters in the manifest.
    """
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    _write_atomic(out, text.encode("utf-8"))
    grid_dict = None
    if grid is not None:
        (qmin, qmax, n_q), (pmin, pmax, n_p) = grid
        grid_dict = {
            "q": [qmin, qmax, n_q],
            "p": [pmin, pmax, n_p],
        }
    RunManifest(
        command=args.command,
        parameters=dict(_manifest_params(args), **(extra or {})),
        version=__version__,
        grid=grid_dict,
        outputs=[out.name],
        duration_seconds=time.perf_counter() - started,
    ).write(out.with_name(out.stem + ".manifest.json"))


# ------------------------------------------------------------------
# shared argument groups
# ------------------------------------------------------------------

_KINDS = {"xi": Kind.XI, "v": Kind.V, "lambda": Kind.LAMBDA}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", choices=sorted(_KINDS), default="xi",
                   help="level connectivity (default xi)")
    p.add_argument("--mu12", type=float, default=0.0)
    p.add_argument("--mu13", type=float, default=0.0)
    p.add_argument("--mu23", type=float, default=0.0)
    p.add_argument("--delta12", type=float, default=0.0)
    p.add_argument("--delta13", type=float, default=0.0)
    p.add_argument("--delta23", type=float, default=0.0)


def _config_from(args: argparse.Namespace) -> AtomicConfig:
    return AtomicConfig(
        kind=_KINDS[args.config],
        mu12=args.mu12, mu13=args.mu13, mu23=args.mu23,
        delta12=args.delta12, delta13=args.delta13, delta23=args.delta23,
    )


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu0", type=int, default=None,
                   help="single Fock component")
    p.add_argument("--nu1", type=int, default=None)
    p.add_argument("--nu2", type=int, default=None)
    p.add_argument("--theta", type=float, default=None,
                   help="mixing angle of --nu1 and --nu2 (default pi/4)")
    p.add_argument("--xi-phase", type=float, default=None, dest="xi_phase",
                   help="relative phase of the upper Fock component (default 0)")


# None in the parser, so that a given value can be told from the default
_IMPLIED_DEFAULTS = (("na", 1), ("theta", math.pi / 4), ("xi_phase", 0.0))


def _resolve_defaults(args: argparse.Namespace) -> None:
    """Refuse state and flight flags the command would ignore, then fill in
    the defaults of the ones not given (before any manifest reads them)."""
    angles = (getattr(args, "theta", None), getattr(args, "xi_phase", None))
    if angles != (None, None) and args.nu1 is None and args.nu2 is None:
        raise ValidationError("--theta and --xi-phase need --nu1 and --nu2")
    if args.command == "symmetry" and args.na is not None and not _evolves(args):
        raise ValidationError(
            "--na needs a flight flag (--t-end, --t-tof or --mode bump): "
            "a bare field has no atoms"
        )
    for name, default in _IMPLIED_DEFAULTS:
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, default)


def _photon_numbers(args: argparse.Namespace) -> Tuple[int, ...]:
    """The checked Fock components of the state flags: (nu1, nu2) or (nu0,)."""
    if args.nu1 is None and args.nu2 is None:
        nu0 = args.nu0 if args.nu0 is not None else 0
        if nu0 < 0:
            raise ValidationError("photon numbers are non-negative")
        return (nu0,)
    if args.nu0 is not None:
        raise ValidationError("give either --nu0 or --nu1 and --nu2")
    if args.nu1 is None or args.nu2 is None:
        raise ValidationError("need both --nu1 and --nu2")
    if min(args.nu1, args.nu2) < 0 or args.nu1 == args.nu2:
        raise ValidationError(
            "need two distinct non-negative photon numbers --nu1, --nu2"
        )
    if not (math.isfinite(args.theta) and math.isfinite(args.xi_phase)):
        raise ValidationError("need a finite --theta and --xi-phase")
    return args.nu1, args.nu2


def _field_from(args: argparse.Namespace) -> FieldDensityMatrix:
    """Pure field state described by the state flags (no dynamics)."""
    photons = _photon_numbers(args)
    if len(photons) == 1:
        return pure_field({photons[0]: 1.0})
    nu1, nu2 = photons
    return pure_field({
        nu1: math.cos(args.theta),
        nu2: math.sin(args.theta) * np.exp(1j * args.xi_phase),
    })


def _add_flight_flags(p: argparse.ArgumentParser, t_end_help: str) -> None:
    """Atoms and schedule of an evolution (a bare field has no atoms)."""
    p.add_argument("--na", type=int, default=None, help="atom number (default 1)")
    p.add_argument("--mode", choices=["constant", "bump"], default="constant")
    p.add_argument("--t-tof", type=float, default=None, dest="t_tof")
    p.add_argument("--t-end", type=float, default=None, dest="t_end",
                   help=t_end_help)


def _parse_grid(text: str) -> GridSpec:
    def axis(part: str) -> Tuple[float, float, int]:
        bits = part.split(":")
        if len(bits) != 3:
            raise ValidationError(f"bad grid axis {part!r}, want min:max:n")
        try:
            lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError:
            raise ValidationError(f"bad grid axis {part!r}, want min:max:n") from None
        if n < 2 or not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"bad grid axis {part!r}")
        return lo, hi, n

    parts = text.split(",")
    if len(parts) == 1:
        q_axis = p_axis = axis(parts[0])
    elif len(parts) == 2:
        q_axis, p_axis = axis(parts[0]), axis(parts[1])
    else:
        raise ValidationError(f"bad grid spec {text!r}")
    if q_axis[2] * p_axis[2] > MAX_GRID_POINTS:
        raise ValidationError(
            f"bad grid spec {text!r}: more than {MAX_GRID_POINTS} points"
        )
    return q_axis, p_axis


def _grid_template(grid: GridSpec) -> np.ndarray:
    """CSV rows of ``grid`` with the value fields still empty, p-major.

    Row 0 holds the header, row j the ``q,p,`` of point j - 1, then
    ``g17.WIDTH`` bytes for its value; NUL bytes pad every row to one
    width.  The q and p columns are the same in every frame on one grid,
    so they are formatted once here, by ``_fmt``.
    """
    (qmin, qmax, n_q), (pmin, pmax, n_p) = grid
    qs = [_fmt(q) for q in np.linspace(qmin, qmax, n_q)]
    prefixes = [
        f"{q},{p},"
        for p in map(_fmt, np.linspace(pmin, pmax, n_p))
        for q in qs
    ]
    width = -(-max(map(len, prefixes)) // 8) * 8  # keeps the values word-aligned
    rows = np.zeros((len(prefixes) + 1, width + g17.WIDTH), np.uint8)
    rows[0, :10] = np.frombuffer(b"q,p,value\n", np.uint8)
    rows[1:, :width] = (
        np.array(prefixes, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    )
    return rows


def _grid_bytes(values: np.ndarray, template: np.ndarray) -> bytearray:
    """The CSV of a ``_grid_template`` filled with values[i_p, i_q]: the
    bytes of one ``%.17g`` per value, written for the whole frame at once
    by ``g17.fill``."""
    buf = bytearray(template)
    words = np.frombuffer(buf, "<u8").reshape(len(template), -1)
    g17.fill(np.ravel(values), words[1:, -g17.WIDTH // 8:])
    return buf.translate(None, b"\0")


def _grid_csv(values: np.ndarray, template: np.ndarray) -> str:
    """``_grid_bytes`` as text."""
    return _grid_bytes(values, template).decode("ascii")


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def _cmd_basis(args) -> int:
    started = time.perf_counter()
    config = _config_from(args)
    basis = build_sector_basis(config, args.na, args.m)
    lines = ["index,nu,na,q,r,n1,n2,n3"]
    for i, s in enumerate(basis.states):
        n1, n2, n3 = s.populations
        lines.append(f"{i},{s.nu},{s.na},{s.q},{s.r},{n1},{n2},{n3}")
    _emit(args, "\n".join(lines) + "\n", None, started)
    return 0


def _cmd_spectrum(args) -> int:
    started = time.perf_counter()
    spec = step_spectrum(_config_from(args), args.m)
    lines = ["branch,energy"]
    for name, e in (("plus", spec.e_plus), ("zero", spec.e_zero),
                    ("minus", spec.e_minus)):
        lines.append(f"{name},{_fmt(e)}")
    _emit(args, "\n".join(lines) + "\n", None, started)
    return 0


def _cmd_dressed(args) -> int:
    started = time.perf_counter()
    config = _config_from(args)
    states = dressed_states(config, args.m)
    lines = ["branch,energy,entropy,c1_re,c1_im,c2_re,c2_im,c3_re,c3_im"]
    for d in states:
        s = dressed_linear_entropy(config, d.branch, args.m)
        amps = ",".join(
            f"{_fmt(a.real)},{_fmt(a.imag)}" for a in d.amps
        )
        lines.append(f"{d.branch.value},{_fmt(d.energy)},{_fmt(s)},{amps}")
    _emit(args, "\n".join(lines) + "\n", None, started)
    return 0


def _cmd_propagate(args) -> int:
    started = time.perf_counter()
    u = propagator(_config_from(args), args.m, args.tau).u
    lines = ["row,col,re,im"]
    for i in range(3):
        for j in range(3):
            lines.append(f"{i},{j},{_fmt(u[i, j].real)},{_fmt(u[i, j].imag)}")
    _emit(args, "\n".join(lines) + "\n", None, started)
    return 0


def _schedule_from(args) -> CouplingSchedule:
    if args.mode == "bump":
        if args.t_tof is None:
            raise ValidationError("bump mode needs --t-tof")
        return CouplingSchedule(mode="bump", t_tof=args.t_tof)
    return CouplingSchedule(mode="constant")


def _evolves(args) -> bool:
    """Whether a flight flag asks ``symmetry`` to evolve before certifying."""
    return args.t_end is not None or args.t_tof is not None or args.mode == "bump"


def _t_end_from(args) -> float:
    """--t-end, or the bump's --t-tof when --t-end is not given."""
    t_end = args.t_end if args.t_end is not None else args.t_tof
    if t_end is None or not 0 < t_end < math.inf:
        raise ValidationError("need a finite --t-end > 0 (or a bump --t-tof)")
    return t_end


def _trajectory(args, t_end: float, **kw) -> Trajectory:
    """The state flags' initial state integrated under the flight flags."""
    config = _config_from(args)
    photons = _photon_numbers(args)
    if len(photons) == 2:
        initial = make_superposition(
            *photons, args.theta, args.xi_phase, args.na, config
        )
    else:
        initial = ground_product_state(config, photons[0], na=args.na)
    return integrate(initial, config, _schedule_from(args), t_end, **kw)


def _cmd_evolve(args) -> int:
    started = time.perf_counter()
    traj = _trajectory(args, _t_end_from(args),
                       tol=args.tol, n_snapshots=args.snapshots)
    nu_max = traj.snapshots[0].nu_max
    header = "time," + ",".join(f"p{n}" for n in range(nu_max + 1)) + ",entropy"
    lines = [header]
    for t, snap in zip(traj.times, traj.snapshots):
        rho = reduce_field(snap)
        probs = photon_probabilities(rho)
        row = [_fmt(t)] + [_fmt(p) for p in probs]
        row.append(_fmt(linear_entropy(rho)))
        lines.append(",".join(row))
    _emit(args, "\n".join(lines) + "\n", None, started)
    return 0


def _cmd_husimi(args) -> int:
    started = time.perf_counter()
    grid = _parse_grid(args.grid)
    field = _field_from(args)
    hg = husimi(field, grid)
    _emit(args, _grid_csv(hg.values, _grid_template(grid)), grid, started)
    return 0


def _cmd_symmetry(args) -> int:
    started = time.perf_counter()
    if _evolves(args):
        traj = _trajectory(args, _t_end_from(args))
        field = reduce_field(traj.snapshots[-1])
    else:
        field = _field_from(args)
    rep = detect_cyclic_symmetry(field, tol=args.tol)
    payload = {
        "order": rep.order,
        "support_differences": list(rep.support_differences),
        "max_residual": rep.max_residual,
        "tol": rep.tol,
    }
    _emit(args, json.dumps(payload, indent=2) + "\n", None, started)
    return 0


def _cmd_protocol(args) -> int:
    started = time.perf_counter()
    if not math.isfinite(args.t_tof_ref):
        raise ValidationError(f"need a finite --t-tof-ref, got {args.t_tof_ref}")
    config = _config_from(args)
    if config.mu12 == config.mu13 == config.mu23 == 0:
        # with no couplings at all, a xi run means the bundled reference;
        # the reference is a xi atom, so any other kind is refused
        if config.kind is not Kind.XI:
            raise ValidationError(
                f"{config.kind.value}-configuration needs a nonzero coupling"
            )
        config = reference_config()
        print(
            "note: no couplings given, using the reference configuration "
            f"(xi, mu12 = {config.mu12}, mu23 = {config.mu23})",
            file=sys.stderr,
        )
    first = PassSpec(
        schedule=CouplingSchedule(mode="bump", t_tof=args.t_tof_first)
    )
    # t_tof_ref <= 0 means "no reference window": carry the sentinel through
    # a constant schedule, whose t_tof stays 0
    ref_schedule = (
        CouplingSchedule(mode="bump", t_tof=args.t_tof_ref)
        if args.t_tof_ref > 0
        else CouplingSchedule(mode="constant")
    )
    later = PassSpec(schedule=ref_schedule, exit_policy="search")
    if args.passes < 0:
        raise ValidationError("pass count must be non-negative")
    passes = () if args.passes == 0 else (
        (first,) + (later,) * (args.passes - 1)
    )
    spec = ProtocolSpec(
        config=config,
        nu0=args.nu0,
        passes=passes,
        theta=args.force_theta,
        xi=args.force_xi,
    )
    reports = run_protocol(spec)
    payload = []
    for rep in reports:
        payload.append({
            "exit_time": rep.exit_time,
            "probabilities": [float(p) for p in rep.probabilities],
            "min_probability": rep.min_probability,
            "leakage": rep.leakage,
            "theta": rep.theta,
            "xi": rep.xi,
            "order": rep.symmetry.order,
            "max_residual": rep.symmetry.max_residual,
            "final_entropy": float(rep.entropies[-1]),
        })
    used = dict(dataclasses.asdict(config), kind=config.kind.value)
    _emit(args, json.dumps(payload, indent=2) + "\n", None, started,
          extra={"config_used": used})
    return 0


def _parse_rows(text: str) -> set:
    """Row numbers 1..len(REFERENCE_CATS) from a comma-separated list."""
    try:
        rows = {int(r) for r in text.split(",")}
    except ValueError:
        raise ValidationError(f"bad --rows {text!r}, want e.g. 1,3") from None
    if not rows <= set(range(1, len(REFERENCE_CATS) + 1)):
        raise ValidationError(
            f"bad --rows {text!r}: rows run from 1 to {len(REFERENCE_CATS)}"
        )
    return rows


def _cmd_table1(args) -> int:
    started = time.perf_counter()
    config = reference_config()
    wanted = _parse_rows(args.rows) if args.rows is not None else {1, 2, 3}
    lines = ["m1,m2,delta_nu,t_tof,leakage,p0,p1,p2,p3,p4,p5"]
    for idx, ref in enumerate(REFERENCE_CATS, start=1):
        if idx not in wanted:
            continue
        vec = np.zeros(ref.m2 + 1, dtype=complex)
        vec[ref.m1] = vec[ref.m2] = 1.0 / math.sqrt(2.0)
        field = FieldDensityMatrix(rho=np.outer(vec, vec.conj()))
        window = (0.85 * ref.t_tof, 1.15 * ref.t_tof)
        found = find_tof_for_cat(field, config, window=window)
        rep = subsequent_passage(field, config, found.t_tof)
        nu_lo, nu_hi = np.flatnonzero(np.diag(rep.field.rho))
        cells = [str(ref.m1), str(ref.m2), str(nu_hi - nu_lo),
                 _fmt(found.t_tof), _fmt(rep.leakage)]
        for nu in range(6):
            if nu < rep.probabilities.size:
                cells.append(_fmt(rep.probabilities[nu]))
            else:
                cells.append("")
        lines.append(",".join(cells))
    _emit(args, "\n".join(lines) + "\n", None, started)
    return 0


def export_frames(
    trajectory: Trajectory,
    grid: GridSpec,
    stride: int,
    out_dir: Path,
    command: str = "animate",
    parameters: Optional[Dict[str, object]] = None,
    started: Optional[float] = None,
) -> List[Path]:
    """Write husimi_%05d.csv frames plus manifest.json into out_dir."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    if len(trajectory.snapshots) == 0:
        raise ValidationError("empty trajectory")
    t0 = started if started is not None else time.perf_counter()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create {out_dir}: {exc}") from exc

    template = _grid_template(grid)
    paths: List[Path] = []
    frame_times: List[float] = []
    for k, i in enumerate(range(0, len(trajectory.snapshots), stride)):
        rho = reduce_field(trajectory.snapshots[i])
        hg = husimi(rho, grid)
        path = out_dir / f"husimi_{k:05d}.csv"
        _write_atomic(path, _grid_bytes(hg.values, template))
        paths.append(path)
        frame_times.append(float(trajectory.times[i]))

    (qmin, qmax, n_q), (pmin, pmax, n_p) = grid
    RunManifest(
        command=command,
        parameters=dict(parameters or {}, frame_times=frame_times),
        version=__version__,
        grid={"q": [qmin, qmax, n_q], "p": [pmin, pmax, n_p]},
        outputs=[p.name for p in paths],
        duration_seconds=time.perf_counter() - t0,
    ).write(out_dir / "manifest.json")
    return paths


def _cmd_animate(args) -> int:
    started = time.perf_counter()
    t_end = _t_end_from(args)
    if not args.dt > 0:
        raise ValidationError(f"need --dt > 0, got {args.dt}")
    if args.stride < 1:
        raise ValidationError("stride must be >= 1")
    if not t_end / args.dt <= MAX_SNAPSHOTS:
        raise ValidationError(
            f"--dt {args.dt} makes more than {MAX_SNAPSHOTS} frames"
        )
    grid = _parse_grid(args.grid)
    n_frames = max(int(round(t_end / args.dt)), 1)
    traj = _trajectory(args, n_frames * args.dt,
                       tol=args.tol, n_snapshots=n_frames)
    export_frames(
        traj, grid, args.stride, Path(args.out),
        command="animate", parameters=_manifest_params(args), started=started,
    )
    return 0


# ------------------------------------------------------------------
# parser
# ------------------------------------------------------------------

TOL_HELP = (
    "local error tolerance of the DP45 integrator; it bounds the steps and "
    "the snapshots read off inside them (default: %(default)s)"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnlight",
        description="cyclic light states from 3-level atoms in a cavity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--out", default=None, help="output file or directory")
        return p

    p = add("basis", _cmd_basis, "enumerate a fixed-excitation sector basis")
    _add_config_flags(p)
    p.add_argument("--na", type=int, default=1)
    p.add_argument("--m", type=int, required=True)

    for name, fn, help_text in (
        ("spectrum", _cmd_spectrum, "sector eigenvalues E_plus/E_0/E_minus"),
        ("dressed", _cmd_dressed, "dressed states with entropies"),
    ):
        p = add(name, fn, help_text)
        _add_config_flags(p)
        p.add_argument("--m", type=int, required=True)

    p = add("propagate", _cmd_propagate, "closed-form sector propagator")
    _add_config_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)

    p = add("evolve", _cmd_evolve, "integrate the Schrodinger equation")
    _add_config_flags(p)
    _add_state_flags(p)
    _add_flight_flags(p, "end time (default: the bump's --t-tof)")
    p.add_argument("--tol", type=float, default=1e-11, help=TOL_HELP)
    p.add_argument("--snapshots", type=int, default=200)

    p = add("husimi", _cmd_husimi, "Husimi Q grid of a pure field state")
    _add_state_flags(p)
    p.add_argument("--grid", default="-6:6:241")

    p = add("symmetry", _cmd_symmetry, "cyclic-order certificate")
    _add_config_flags(p)
    _add_state_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_flight_flags(
        p, "evolve before certifying (default: the bump's --t-tof; "
        "no flight flag: certify the bare field)"
    )

    p = add("protocol", _cmd_protocol, "multi-pass cat generation")
    _add_config_flags(p)
    p.add_argument("--nu0", type=int, default=3)
    p.add_argument("--passes", type=int, default=2)
    p.add_argument("--t-tof-first", type=float, default=4.0,
                   dest="t_tof_first")
    p.add_argument("--t-tof-ref", type=float, default=0.0, dest="t_tof_ref",
                   help="center of the search window (0: scan [1, 20])")
    p.add_argument("--force-theta", type=float, default=None,
                   dest="force_theta")
    p.add_argument("--force-xi", type=float, default=None, dest="force_xi")

    p = add("table1", _cmd_table1, "re-derive the bundled cat operating points")
    p.add_argument("--rows", default=None, help="subset, e.g. 1,3")

    p = add("animate", _cmd_animate, "Husimi frames along a trajectory")
    _add_config_flags(p)
    _add_state_flags(p)
    _add_flight_flags(p, "end time (default: the bump's --t-tof)")
    p.add_argument("--dt", type=float, default=math.pi / 32)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-11, help=TOL_HELP)
    p.add_argument("--grid", default="-6:6:241")
    p.set_defaults(out="frames")
    return parser


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _resolve_defaults(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
