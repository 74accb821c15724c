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
import re
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__, g17
from .analytic_core import (
    dressed_linear_entropy,
    dressed_states,
    propagator,
    step_spectrum,
)
from .dynamics import (
    DEFAULT_TOL,
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
    FieldDensityMatrix,
    check_overlaps,
    detect_cyclic_symmetry,
    husimi,
    linear_entropies,
    pure_field,
    reduce_field,
    reduce_field_blocks,
)
# unused here; perfbench/spans.py traces these bindings
from .observables import linear_entropy, photon_probabilities  # noqa: F401
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
# the field's density matrix is dense, (nu_max + 1)^2 entries, and a sector
# basis of na atoms, (na + 1)(na + 2) / 2 states, is enumerated pair by pair
MAX_PHOTONS = 100
MAX_ATOMS = 20
# Q values per husimi call of animate: 1 MB of float64, 8 frames of a 121^2
# grid; a frame of more points is a block of its own.  The same count bounds
# the block's reduced fields, (nu_max + 1)^2 complex entries a frame.
FRAME_BLOCK_VALUES = 2**17


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the bytes of ``chunks`` to ``path`` through ``path.tmp`` and one
    rename.  A failure, of the file system or of the code that makes the
    chunks, leaves neither file; the file system's is a ValidationError."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as f:
                f.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_manifest(
    path: Path,
    args: argparse.Namespace,
    grid: Optional[GridSpec],
    outputs: List[str],
    started: float,
    **extra: object,
) -> None:
    """Write the JSON that replays a run: its command, its parameters (the
    parsed flags, then ``extra``), version, grid, outputs and duration."""
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
    }
    manifest = {
        "command": args.command,
        "parameters": dict(flags, **extra),
        "version": __version__,
        "grid": None if grid is None else {"q": list(grid[0]), "p": list(grid[1])},
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - started,
    }
    _write_atomic(path, [(json.dumps(manifest, indent=2) + "\n").encode("utf-8")])


def _emit(
    args: argparse.Namespace,
    data: Union[str, Iterable[bytes]],
    grid: Optional[GridSpec],
    started: float,
    **extra: object,
) -> None:
    """Send a single data file to --out (with manifest) or stdout: ``data``
    is its text, or its bytes in chunks, each written once it is made.

    ``extra`` entries join the command-line parameters in the manifest.
    """
    chunks = [data.encode("utf-8")] if isinstance(data, str) else data
    if args.out is None:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        return
    out = Path(args.out)
    _write_atomic(out, chunks)
    _write_manifest(out.with_name(out.stem + ".manifest.json"), args, grid,
                    [out.name], started, **extra)


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
    """Refuse state and flight flags the command would ignore or that ask for
    more photons or atoms than can be held, then fill in the defaults of the
    ones not given (before any manifest reads them)."""
    caps = (("nu0", MAX_PHOTONS), ("nu1", MAX_PHOTONS), ("nu2", MAX_PHOTONS),
            ("na", MAX_ATOMS))
    for name, cap in caps:
        value = getattr(args, name, None)
        if value is not None and value > cap:
            raise ValidationError(f"--{name} {value} is above its cap of {cap}")
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


def _check_overlaps(grid: GridSpec, args: argparse.Namespace) -> None:
    """Refuse a grid whose coherent-overlap table, at the largest photon
    number of the state flags, is over the library's cap (``check_overlaps``),
    before any integration or row template is built."""
    check_overlaps(grid[0][2] * grid[1][2], max(_photon_numbers(args)) + 1)


def _grid_template(grid: GridSpec) -> bytearray:
    """CSV rows of ``grid`` with the value fields still empty, p-major.

    Row 0 holds the header, row j the ``q,p,`` of point j - 1, then
    ``g17.WIDTH`` bytes for its value; NUL bytes pad every row to one
    width.  The q and p columns are the same in every frame on one grid,
    so they are formatted once here, by ``_fmt``; each frame refills the
    value fields of this one buffer (``_grid_bytes``).
    """
    (qmin, qmax, n_q), (pmin, pmax, n_p) = grid
    qs = [_fmt(q) for q in np.linspace(qmin, qmax, n_q)]
    prefixes = [
        f"{q},{p},"
        for p in map(_fmt, np.linspace(pmin, pmax, n_p))
        for q in qs
    ]
    width = -(-max(map(len, prefixes)) // 8) * 8  # keeps the values word-aligned
    buf = bytearray((len(prefixes) + 1) * (width + g17.WIDTH))
    rows = np.frombuffer(buf, np.uint8).reshape(len(prefixes) + 1, -1)
    rows[0, :10] = np.frombuffer(b"q,p,value\n", np.uint8)
    rows[1:, :width] = (
        np.array(prefixes, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    )
    return buf


def _grid_bytes(values: np.ndarray, rows: bytearray) -> bytearray:
    """The CSV of ``_grid_template`` rows filled with values[i_p, i_q]: the
    bytes of one ``%.17g`` per value, written for the whole frame at once
    by ``g17.fill``.

    The value fields are overwritten in place: ``g17.fill`` writes every
    byte of each of them, so nothing of an earlier frame is left."""
    words = np.frombuffer(rows, "<u8").reshape(np.size(values) + 1, -1)
    g17.fill(np.ravel(values), words[1:, -g17.WIDTH // 8:])
    return rows.translate(None, b"\0")


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
    _emit(args, _evolve_csv(traj), None, started)
    return 0


def _evolve_csv(traj: Trajectory) -> Iterator[bytes]:
    """The CSV of ``traj``'s photon-number distribution and linear entropy
    over time, one chunk per ``reduce_field_blocks`` block, so only one
    block's text is held at a time.  The header rides with the first block:
    a CSV of one block is one write, whole before a reader such as
    ``head`` can close the pipe, even on unbuffered stdout."""
    nu_max = max(traj.sectors)
    lines = ["time," + ",".join(f"p{n}" for n in range(nu_max + 1)) + ",entropy\n"]
    for first, rhos in reduce_field_blocks(traj):
        probs = rhos.diagonal(axis1=1, axis2=2).real
        times = traj.times[first:first + len(rhos)]
        lines += (",".join(map(_fmt, [t, *p, s_l])) + "\n"
                  for t, p, s_l in zip(times, probs, linear_entropies(rhos)))
        yield "".join(lines).encode("ascii")
        lines = []


def _cmd_husimi(args) -> int:
    started = time.perf_counter()
    grid = _parse_grid(args.grid)
    _check_overlaps(grid, args)
    field = _field_from(args)
    hg = husimi(field, grid)
    _emit(args, [_grid_bytes(hg.values, _grid_template(grid))], grid, started)
    return 0


def _cmd_symmetry(args) -> int:
    started = time.perf_counter()
    if _evolves(args):
        traj = _trajectory(args, _t_end_from(args))
        field = reduce_field(traj.state(-1))
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
          config_used=used)
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
        field = pure_field({ref.m1: 1.0, ref.m2: 1.0})
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


# the names animate gives its frames, husimi_%05d.csv
_FRAME_NAME = re.compile(r"husimi_\d{5,}\.csv")


def _cmd_animate(args) -> int:
    """Write husimi_%05d.csv frames plus manifest.json into --out, and
    remove every other file there named like a frame."""
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
    _check_overlaps(grid, args)
    n_frames = max(int(round(t_end / args.dt)), 1)
    traj = _trajectory(args, n_frames * args.dt,
                       tol=args.tol, n_snapshots=n_frames)
    out_dir = Path(args.out)
    rows = _grid_template(grid)
    frames = range(0, len(traj.times), args.stride)
    # one husimi call, one set of points and one overlap table per block
    per_frame = max(grid[0][2] * grid[1][2], (max(traj.sectors) + 1) ** 2)
    per_block = max(1, FRAME_BLOCK_VALUES // per_frame)
    names: List[str] = []
    frame_times: List[float] = []
    for first in range(0, len(frames), per_block):
        block = frames[first:first + per_block]
        hg = husimi([reduce_field(traj.state(i)) for i in block], grid)
        for i, values in zip(block, hg.values):
            names.append(f"husimi_{len(names):05d}.csv")
            _write_atomic(out_dir / names[-1], [_grid_bytes(values, rows)])
            frame_times.append(float(traj.times[i]))
    _write_manifest(out_dir / "manifest.json", args, grid, names, started,
                    frame_times=frame_times)
    # frames of an earlier, longer run into the same directory
    listed = set(names)
    for path in out_dir.glob("husimi_*.csv"):
        if (_FRAME_NAME.fullmatch(path.name) and path.name not in listed
                and path.is_file()):
            try:
                path.unlink()
            except OSError as exc:
                raise ValidationError(f"cannot remove {path}: {exc}") from exc
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=TOL_HELP)
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=TOL_HELP)
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
