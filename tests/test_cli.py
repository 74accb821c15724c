"""End-to-end command-line checks driving run_command directly."""

import dataclasses
import io
import json
import math
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cnlight
from cnlight import cli, g17, observables
from cnlight.cli import _grid_bytes, _grid_template, _parse_grid, run_command
from cnlight.dynamics import CONSTANT_SCHEDULE, integrate, make_superposition
from cnlight.errors import ValidationError
from cnlight.hilbert import AtomicConfig, Kind
from cnlight.observables import FieldDensityMatrix, husimi, reduce_field

SQRT2 = repr(math.sqrt(2.0))
XI_REF = ["--config", "xi", "--mu12", "1", "--mu23", SQRT2]
REF_CONFIG = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0))


def reference_csv(values, grid):
    """Husimi CSV one point at a time: q,p,value rows, p-major."""
    (qmin, qmax, n_q), (pmin, pmax, n_p) = grid
    lines = ["q,p,value"]
    for i, p in enumerate(np.linspace(pmin, pmax, n_p)):
        for j, q in enumerate(np.linspace(qmin, qmax, n_q)):
            lines.append(f"{q:.17g},{p:.17g},{values[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def run_csv(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_command_exits_2(capsys):
    assert run_command(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run_command(["basis", "--m", "3", "--what"]) == 2


def test_bump_without_t_tof_exits_2(capsys):
    code = run_command(
        ["evolve", *XI_REF, "--nu0", "3", "--mode", "bump", "--t-end", "2"]
    )
    assert code == 2
    assert "t-tof" in capsys.readouterr().err


def test_bad_grid_exits_2(capsys):
    for grid in ("oops", "-6:6:2.5", "a:6:20", "6:-6:20", "-6:nan:20", "-6:6:1"):
        assert run_command(["husimi", "--nu0", "0", f"--grid={grid}"]) == 2, grid
        assert "bad grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", *XI_REF, "--nu0", "3", "--mode", "bump", "--t-tof", "2",
         "--literal-envelope"],
        ["evolve", *XI_REF, "--nu0", "3", "--t-end", "1", "--tol", "-1"],
        ["evolve", *XI_REF, "--nu0", "3", "--t-end", "1", "--tol", "0"],
        ["evolve", *XI_REF, "--nu0", "3", "--t-end", "1", "--snapshots", "-1"],
        ["evolve", *XI_REF, "--nu0", "3", "--t-end", "1", "--snapshots", "0"],
        ["evolve", *XI_REF, "--nu0", "3", "--t-end", "inf", "--snapshots", "2"],
        ["evolve", *XI_REF, "--nu0", "3", "--mode", "bump", "--t-tof", "nan"],
        ["symmetry", "--nu1", "2", "--nu2", "7", "--tol", "-1"],
        ["symmetry", "--nu1", "2", "--nu2", "-1"],
        ["husimi", "--nu1", "3", "--nu2", "3", "--grid=-2:2:5"],
        ["table1", "--rows", "x"],
        ["table1", "--rows", "4"],
        ["table1", "--rows", "0,1"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.4", "--dt", "0"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.4", "--dt", "-0.1"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.4", "--dt", "inf"],
        ["husimi", "--nu1", "0", "--nu2", "2", "--theta", "nan", "--grid=-1:1:3"],
        ["symmetry", "--nu1", "0", "--nu2", "3", "--xi-phase", "nan"],
        ["protocol", "--nu0", "3", "--passes", "2", "--t-tof-ref", "nan"],
        ["propagate", *XI_REF, "--m", "3", "--tau", "nan"],
        ["propagate", *XI_REF, "--m", "3", "--tau", "inf"],
        ["evolve", "--mu12", "1", "--mu23", "1", "--nu1", "0", "--nu2", "2",
         "--theta", "nan", "--t-end", "0.1", "--snapshots", "1"],
        ["spectrum", "--mu12", "inf", "--mu23", "1", "--m", "3"],
        ["evolve", "--mu12", "nan", "--mu23", "1", "--nu0", "3",
         "--t-end", "0.1", "--snapshots", "1"],
        ["evolve", *XI_REF, "--delta12", "nan", "--nu0", "3",
         "--t-end", "0.1", "--snapshots", "1"],
        ["evolve", "--mu12", "1", "--mu23", "1", "--nu1", "2",
         "--t-end", "0.1", "--snapshots", "1"],
        ["symmetry", *XI_REF, "--nu2", "2", "--t-end", "0.1"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "nan"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "inf"],
        ["husimi", "--nu0", "3", "--nu1", "1", "--nu2", "2"],
        ["symmetry", "--nu0", "3", "--nu1", "1", "--nu2", "2"],
        ["evolve", *XI_REF, "--nu0", "3", "--nu1", "1", "--nu2", "2",
         "--t-end", "0.1", "--snapshots", "1"],
        ["animate", *XI_REF, "--nu0", "2", "--nu1", "1", "--nu2", "3",
         "--t-end", "0.4", "--grid=-1:1:3"],
        ["table1", "--rows", ""],
        ["protocol", "--nu0", "3", "--passes", "1", "--force-xi", "2.0"],
        ["husimi", "--nu0", "3", "--na", "5"],
        ["symmetry", *XI_REF, "--nu1", "1", "--nu2", "4", "--mode", "bump"],
        ["protocol", "--passes", "0", "--nu0", "4", "--force-theta", "1.0"],
        ["symmetry", "--nu1", "2", "--nu2", "7", "--na", "3"],
        ["husimi", "--nu0", "3", "--theta", "nan", "--grid=-1:1:2"],
        ["animate", *XI_REF, "--nu0", "2", "--xi-phase", "0.5", "--t-end", "0.4",
         "--grid=-1:1:3"],
        ["evolve", "--mu12", "1", "--mu23", "1", "--nu0", "3", "--t-end", "1",
         "--tol", "1e-300"],
        # grids numpy refuses to size (or that overflow an int) before any
        # allocation
        ["protocol", "--nu0", "3", "--passes", "2", "--t-tof-first", "8",
         "--t-tof-ref", "1e300"],
        ["animate", "--nu1", "1", "--nu2", "5", "--mode", "bump", "--t-tof", "4",
         "--dt", "1e-300", "--grid=-4:4:5"],
        ["evolve", "--nu0", "3", "--t-end", "1",
         "--snapshots", "1000000000000000000000000000000"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "4", "--dt", "5e-324",
         "--grid=-1:1:3"],
        ["husimi", "--nu0", "1", "--grid=-1:1:100000"],
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.4",
         "--grid=-1:1:1000,-1:1:1001"],
        # photon and atom numbers past the caps, refused before the
        # (nu_max + 1)^2 density matrix or the sector basis is built
        ["husimi", "--nu0", "100000", "--grid=-1:1:2"],
        ["symmetry", "--nu1", "0", "--nu2", "100000"],
        ["evolve", *XI_REF, "--nu0", "101", "--t-end", "0.1",
         "--snapshots", "1"],
        ["animate", *XI_REF, "--nu1", "101", "--nu2", "0", "--t-end", "0.2",
         "--grid=-1:1:3"],
        ["protocol", "--nu0", "101", "--passes", "1"],
        ["basis", "--na", "21", "--m", "3"],
        ["evolve", *XI_REF, "--na", "21", "--nu0", "3", "--t-end", "0.1",
         "--snapshots", "1"],
        ["symmetry", *XI_REF, "--na", "21", "--nu1", "1", "--nu2", "4",
         "--t-end", "0.1"],
        ["husimi", "--nu0", "100", "--grid=-1:1:1000"],
    ],
    ids=[
        "literal-envelope", "tol<0", "tol=0", "snapshots<0", "snapshots=0",
        "t-end=inf", "t-tof=nan", "symmetry-tol<0", "nu2<0", "nu1=nu2",
        "rows=x", "rows=4",
        "rows=0", "dt=0", "dt<0", "dt=inf",
        "theta=nan", "xi-phase=nan", "t-tof-ref=nan", "tau=nan", "tau=inf",
        "evolve-theta=nan", "mu12=inf", "mu12=nan", "delta12=nan",
        "evolve-nu1-alone", "symmetry-nu2-alone", "animate-t-end=nan",
        "animate-t-end=inf", "husimi-nu0-with-nu1-nu2",
        "symmetry-nu0-with-nu1-nu2", "evolve-nu0-with-nu1-nu2",
        "animate-nu0-with-nu1-nu2", "rows=empty", "force-xi-alone",
        "husimi-na", "symmetry-bump-without-t-tof", "force-theta-without-pass",
        "symmetry-na-without-flight", "husimi-theta-with-nu0",
        "animate-xi-phase-with-nu0", "tol=1e-300", "t-tof-ref=1e300",
        "dt=1e-300", "snapshots=1e30", "dt=5e-324", "grid=1e5^2",
        "grid=1000x1001", "husimi-nu0=1e5", "symmetry-nu2=1e5",
        "evolve-nu0=101", "animate-nu1=101", "protocol-nu0=101",
        "basis-na=21", "evolve-na=21", "symmetry-na=21",
        "husimi-overlaps-above-cap",
    ],
)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    assert run_command([*argv, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_grid_of_max_points_parses():
    assert _parse_grid("-1:1:1000")[1][2] == 1000
    assert cli.MAX_GRID_POINTS == 1000 * 1000
    with pytest.raises(ValidationError):
        _parse_grid("-1:1:1001,-1:1:1000")


def test_photon_and_atom_caps_admit_their_bound(capsys):
    assert (cli.MAX_PHOTONS, cli.MAX_ATOMS) == (100, 20)
    assert run_command(["husimi", "--nu0", "100", "--grid=-1:1:2"]) == 0
    assert run_command(["basis", "--na", "20", "--m", "3"]) == 0


def test_failed_exit_search_exits_3(capsys):
    code = run_command(
        ["protocol", *XI_REF, "--nu0", "3", "--passes", "1",
         "--t-tof-first", "1.2"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_version_flag(capsys):
    assert run_command(["--version"]) == 0


# ---------------------------------------------------------------------------
# tabular commands


def test_basis_csv_golden(capsys):
    header, rows = run_csv(capsys, ["basis", "--config", "xi", "--m", "3"])
    assert header == ["index", "nu", "na", "q", "r", "n1", "n2", "n3"]
    assert rows == [
        ["0", "1", "1", "0", "0", "0", "0", "1"],
        ["1", "2", "1", "1", "0", "0", "1", "0"],
        ["2", "3", "1", "1", "1", "1", "0", "0"],
    ]


def test_spectrum_values(capsys):
    header, rows = run_csv(capsys, ["spectrum", *XI_REF, "--m", "3"])
    assert header == ["branch", "energy"]
    values = {name: float(e) for name, e in rows}
    assert values["plus"] == pytest.approx(3.0 + math.sqrt(7.0), abs=1e-12)
    assert values["zero"] == 3.0
    assert values["minus"] == pytest.approx(3.0 - math.sqrt(7.0), abs=1e-12)


def test_dressed_zero_branch_entropy(capsys):
    header, rows = run_csv(
        capsys,
        ["dressed", "--config", "xi", "--mu12", "1", "--mu23", "1", "--m", "2"],
    )
    assert header[:3] == ["branch", "energy", "entropy"]
    by_branch = {r[0]: r for r in rows}
    assert float(by_branch["zero"][2]) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert float(by_branch["plus"][2]) == pytest.approx(11.0 / 18.0, abs=1e-12)


def test_propagate_prints_unitary_matrix(capsys):
    header, rows = run_csv(
        capsys, ["propagate", *XI_REF, "--m", "3", "--tau", "1.3"]
    )
    assert header == ["row", "col", "re", "im"]
    u = np.zeros((3, 3), dtype=complex)
    for i, j, re, im in rows:
        u[int(i), int(j)] = float(re) + 1j * float(im)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12


def test_evolve_csv_shape(capsys):
    header, rows = run_csv(
        capsys,
        ["evolve", *XI_REF, "--nu0", "3", "--t-end", "1", "--snapshots", "4"],
    )
    assert header == ["time", "p0", "p1", "p2", "p3", "entropy"]
    assert len(rows) == 5
    first = [float(x) for x in rows[0]]
    assert first[0] == 0.0 and first[4] == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        probs = [float(x) for x in row[1:5]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_evolve_reduces_in_bounded_blocks(capsys):
    # at the photon cap one rho is 101^2 entries: the whole stack of 2001
    # snapshots would take 326 MB, its blocks take 16 MB each
    tracemalloc.start()
    try:
        code = run_command(["evolve", *XI_REF, "--nu0", "100", "--t-end", "0.01",
                            "--snapshots", "2000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 120e6
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2001
    assert rows[-1].startswith("0.01,")


def test_evolve_streams_its_csv_a_block_at_a_time(tmp_path, monkeypatch):
    # the rows of a short trajectory repeated: nu_max = 60 makes blocks of
    # 281 rows, so both runs reach their peak of two blocks at once, and
    # the 3000 more rows of the second make 0.7 MB more CSV
    short = integrate(make_superposition(0, 60, math.pi / 4, 0.0, 1, REF_CONFIG),
                      REF_CONFIG, CONSTANT_SCHEDULE, 1.0, n_snapshots=7)
    out = tmp_path / "evolve.csv"
    peaks, sizes = [], []
    for rows in (1000, 4000):
        traj = dataclasses.replace(
            short, times=np.linspace(0.0, 1.0, rows),
            amplitudes=np.resize(short.amplitudes, (rows, short.amplitudes.shape[1])),
        )
        monkeypatch.setattr(cli, "_trajectory", lambda *args, **kw: traj)
        tracemalloc.start()
        try:
            code = run_command(["evolve", *XI_REF, "--nu1", "0", "--nu2", "60",
                                "--t-end", "1", "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        sizes.append(out.stat().st_size)
    # the whole text held at once would add more than the CSV's own growth
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4, (peaks, sizes)


def test_evolve_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch, capsys):
    real = cli.reduce_field_blocks

    def failing(traj):
        blocks = real(traj)
        yield next(blocks)
        raise ValidationError("bad rho in row 1")

    monkeypatch.setattr(cli, "reduce_field_blocks", failing)
    out = tmp_path / "evolve.csv"
    argv = ["evolve", *XI_REF, "--nu0", "2", "--t-end", "0.2", "--out", str(out)]
    assert run_command(argv) == 2
    assert "bad rho in row 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evolve_writes_a_one_block_csv_in_one_piece(monkeypatch):
    # on unbuffered stdout (python -u) each chunk is a write of its own, and
    # `evolve | head -1` could close the pipe between header and rows
    writes = []

    class Raw(io.RawIOBase):
        def writable(self):
            return True

        def write(self, b):
            writes.append(bytes(b))
            return len(b)

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Raw(), encoding="ascii"))
    argv = ["evolve", *XI_REF, "--nu0", "2", "--t-end", "0.2", "--snapshots", "2"]
    assert run_command(argv) == 0
    assert len(writes) == 1
    assert writes[0].decode("ascii").splitlines()[0] == "time,p0,p1,p2,entropy"
    assert len(writes[0].splitlines()) == 4


def test_table1_single_row(capsys):
    header, rows = run_csv(capsys, ["table1", "--rows", "1"])
    assert header == [
        "m1", "m2", "delta_nu", "t_tof", "leakage",
        "p0", "p1", "p2", "p3", "p4", "p5",
    ]
    assert len(rows) == 1
    row = rows[0]
    assert row[:3] == ["1", "3", "3"]
    assert abs(float(row[3]) - 5.749) / 5.749 < 0.15
    assert float(row[4]) < 0.03
    assert float(row[5]) == pytest.approx(0.4993, abs=0.02)
    assert float(row[8]) == pytest.approx(0.5000, abs=0.02)
    assert row[9] == "" and row[10] == ""  # no p4/p5 above the top component


# ---------------------------------------------------------------------------
# JSON commands


def test_symmetry_pure_cat(capsys):
    assert run_command(["symmetry", "--nu1", "2", "--nu2", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 5
    assert payload["support_differences"] == [5]
    assert payload["max_residual"] < 1e-10


@pytest.mark.parametrize("flight", [
    ["--mode", "bump", "--t-tof", "3"],
    ["--t-tof", "3"],
])
def test_symmetry_flight_flags_evolve_as_t_end_does(flight, capsys):
    state = ["symmetry", *XI_REF, "--nu1", "1", "--nu2", "4"]
    outputs = []
    for extra in (flight, flight + ["--t-end", "3"], []):
        assert run_command(state + extra) == 0
        outputs.append(capsys.readouterr().out)
    with_flags, with_t_end, bare = outputs
    assert with_flags == with_t_end
    assert with_flags != bare   # the coupled pass moves the field


def test_protocol_zero_passes(capsys):
    assert run_command(["protocol", *XI_REF, "--nu0", "3", "--passes", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["exit_time"] == 0.0
    assert payload[0]["order"] == 0
    assert payload[0]["probabilities"] == [0.0, 0.0, 0.0, 1.0]


def test_protocol_negative_passes_exits_2(capsys):
    assert run_command(["protocol", "--passes", "-1"]) == 2


# ---------------------------------------------------------------------------
# file outputs and manifests

MANIFEST_KEYS = [
    "command", "parameters", "version", "grid", "outputs", "duration_seconds",
]


def test_husimi_writes_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "vac.csv"
    argv = ["husimi", "--nu0", "0", "--grid=-3:3:61", "--out", str(out)]
    assert run_command(argv) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "q,p,value"
    values = np.loadtxt(out, delimiter=",", skiprows=1, encoding="utf-8")
    assert np.max(values[:, 2]) == pytest.approx(1.0 / math.pi, abs=1e-12)

    manifest = json.loads((tmp_path / "vac.manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == "husimi"
    assert manifest["parameters"] == {
        "command": "husimi", "grid": "-3:3:61", "nu0": 0, "nu1": None,
        "nu2": None, "theta": math.pi / 4, "xi_phase": 0.0,
    }
    assert manifest["version"] == cnlight.__version__
    assert manifest["outputs"] == ["vac.csv"]
    assert manifest["grid"] == {"q": [-3.0, 3.0, 61], "p": [-3.0, 3.0, 61]}
    vacuum = FieldDensityMatrix(rho=np.ones((1, 1)))
    grid = _parse_grid("-3:3:61")
    assert out.read_text(encoding="utf-8") == reference_csv(
        husimi(vacuum, grid).values, grid
    )

    # replays are byte-identical
    first = out.read_bytes()
    assert run_command(argv) == 0
    assert out.read_bytes() == first


def test_protocol_without_couplings_says_it_uses_the_reference(tmp_path, capsys):
    out = tmp_path / "proto.json"
    argv = ["protocol", "--nu0", "3", "--passes", "0", "--out", str(out)]
    assert run_command(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "reference configuration" in err[0]
    manifest = json.loads(
        (tmp_path / "proto.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["parameters"]["mu12"] == 0.0
    used = manifest["parameters"]["config_used"]
    assert used["kind"] == "xi"
    assert used["mu12"] == 1.0
    assert used["mu23"] == math.sqrt(2.0)


def test_protocol_records_the_given_configuration(tmp_path, capsys):
    out = tmp_path / "proto.json"
    argv = ["protocol", "--config", "xi", "--mu12", "0.5", "--mu23", "0.7",
            "--delta12", "0.1", "--nu0", "3", "--passes", "0", "--out", str(out)]
    assert run_command(argv) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads(
        (tmp_path / "proto.manifest.json").read_text(encoding="utf-8")
    )
    used = manifest["parameters"]["config_used"]
    assert (used["mu12"], used["mu23"], used["delta12"]) == (0.5, 0.7, 0.1)


def test_protocol_runs_a_lambda_atom_as_given(tmp_path, capsys):
    # mu12 = mu23 = 0 is a valid lambda atom once mu13 is set
    out = tmp_path / "proto.json"
    argv = ["protocol", "--config", "lambda", "--mu13", "1", "--nu0", "3",
            "--passes", "0", "--out", str(out)]
    assert run_command(argv) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads(
        (tmp_path / "proto.manifest.json").read_text(encoding="utf-8")
    )
    used = manifest["parameters"]["config_used"]
    assert (used["kind"], used["mu12"], used["mu13"], used["mu23"]) == (
        "lambda", 0.0, 1.0, 0.0)
    # and its passes are refused for the lambda atom, not run on a xi one
    argv[argv.index("--passes") + 1] = "1"
    assert run_command(argv) == 2
    assert "ladder" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["lambda", "v"])
def test_protocol_without_couplings_refuses_other_kinds(kind, capsys):
    argv = ["protocol", "--config", kind, "--nu0", "3", "--passes", "0"]
    assert run_command(argv) == 2
    assert "nonzero coupling" in capsys.readouterr().err


def test_grid_csv_matches_reference():
    grid = _parse_grid("-1:1:3,-2:2:4")
    values = np.array([
        0.0, -0.0, 5e-324, 1.0 / 3.0, 1e300, -1.0 / 7.0,
        0.1, 1e-17, 2.5, -3.0, 6.02e23, math.pi,
    ]).reshape(4, 3)
    text = _grid_bytes(values, _grid_template(grid)).decode("ascii")
    assert text == reference_csv(values, grid)
    assert text.splitlines()[1:3] == ["-1,-2,0", "0,-2,-0"]


LONG_TEXT = [1.0 / 3.0, -1.0 / 7.0, 1e-300, math.nan]
SHORT_TEXT = [0.0, -0.0, 0.5, 1e-5]


@pytest.mark.parametrize(
    "first, second", [(LONG_TEXT, SHORT_TEXT), (SHORT_TEXT, LONG_TEXT)],
    ids=["long-then-short", "short-then-long"],
)
def test_refilled_grid_rows_keep_nothing_of_the_frame_before(first, second):
    grid = _parse_grid("-1:1:2")
    rows = _grid_template(grid)
    for values in (first, second):
        values = np.array(values).reshape(2, 2)
        text = _grid_bytes(values, rows).decode("ascii")
        assert text == reference_csv(values, grid)


def test_animate_writes_frames(tmp_path, monkeypatch, capsys):
    trajectories = []
    real_integrate = cli.integrate

    def recording_integrate(*args, **kwargs):
        trajectories.append(real_integrate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "integrate", recording_integrate)
    out = tmp_path / "frames"
    code = run_command(
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.4", "--dt", "0.1",
         "--grid=-2:2:21", "--out", str(out)]
    )
    assert code == 0
    frames = sorted(p.name for p in out.glob("husimi_*.csv"))
    assert frames == [f"husimi_{k:05d}.csv" for k in range(5)]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == "animate"
    frame_times = manifest["parameters"].pop("frame_times")
    assert manifest["parameters"] == {
        "command": "animate", "config": "xi", "delta12": 0.0, "delta13": 0.0,
        "delta23": 0.0, "dt": 0.1, "grid": "-2:2:21", "mode": "constant",
        "mu12": 1.0, "mu13": 0.0, "mu23": math.sqrt(2.0), "na": 1, "nu0": 2,
        "nu1": None, "nu2": None, "stride": 1, "t_end": 0.4, "t_tof": None,
        "theta": math.pi / 4, "tol": 1e-11, "xi_phase": 0.0,
    }
    assert manifest["version"] == cnlight.__version__
    assert manifest["grid"] == {"q": [-2.0, 2.0, 21], "p": [-2.0, 2.0, 21]}
    assert manifest["outputs"] == frames
    assert frame_times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    (traj,) = trajectories
    grid = _parse_grid("-2:2:21")
    for name, snapshot in zip(frames, traj.snapshots, strict=True):
        expected = husimi(reduce_field(snapshot), grid).values
        assert (out / name).read_text(encoding="utf-8") == reference_csv(
            expected, grid
        ), name


@pytest.mark.parametrize("per_block", [1, 3, 5, 300])
def test_animate_frames_do_not_depend_on_the_block_size(
    per_block, tmp_path, monkeypatch, capsys
):
    # 5 frames of 21^2 points: blocks of one frame each, of 3 + 2, of all 5
    calls = []
    real_husimi = cli.husimi
    monkeypatch.setattr(cli, "husimi",
                        lambda fields, grid: calls.append(len(fields))
                        or real_husimi(fields, grid))
    monkeypatch.setattr(cli, "FRAME_BLOCK_VALUES", per_block * 21 * 21)
    out = tmp_path / "frames"
    code = run_command(
        ["animate", *XI_REF, "--nu1", "1", "--nu2", "4", "--t-end", "0.4",
         "--dt", "0.1", "--grid=-2:2:21", "--out", str(out)]
    )
    assert code == 0
    assert calls == [min(per_block, 5 - k) for k in range(0, 5, per_block)]
    traj = integrate(make_superposition(1, 4, math.pi / 4, 0.0, 1, REF_CONFIG),
                     REF_CONFIG, CONSTANT_SCHEDULE, 0.4, n_snapshots=4)
    grid = _parse_grid("-2:2:21")
    for k, snapshot in enumerate(traj.snapshots):
        expected = husimi(reduce_field(snapshot), grid).values
        assert (out / f"husimi_{k:05d}.csv").read_text(encoding="utf-8") == (
            reference_csv(expected, grid)
        ), k


def test_animate_blocks_are_bounded_by_their_fields(tmp_path, monkeypatch):
    # a 2 x 2 grid at 100 photons: a block sized by its 4 points alone
    # would hold all 301 rhos of 101^2 entries, 49 MB; sized by the rho
    # entries too it holds 12 of them, 2 MB
    calls = []
    real_husimi = cli.husimi
    monkeypatch.setattr(cli, "husimi",
                        lambda fields, grid: calls.append(len(fields))
                        or real_husimi(fields, grid))
    out = tmp_path / "frames"
    tracemalloc.start()
    try:
        code = run_command(
            ["animate", *XI_REF, "--nu0", "100", "--t-end", "0.01",
             "--dt", repr(0.01 / 300), "--grid=-1:1:2", "--out", str(out)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sum(calls) == 301 and max(calls) == cli.FRAME_BLOCK_VALUES // 101**2
    assert peak < 20e6
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["outputs"]) == 301


@pytest.mark.parametrize("command", ["animate", "husimi"])
def test_an_oversized_overlap_table_is_refused_before_any_work(
    command, tmp_path, monkeypatch, capsys
):
    # 10^6 points at 100 photons would need 1.01e8 overlaps
    calls = []
    for name in ("integrate", "husimi", "_grid_template"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    out = tmp_path / "frames"
    argv = [command, "--nu0", "100", "--grid=-1:1:1000", "--out", str(out)]
    if command == "animate":
        argv += ["--mu12", "1", "--mu23", "1", "--t-end", "0.1", "--dt", "0.1"]
    assert run_command(argv) == 2
    assert "coherent-state overlaps" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    # one photon fewer fits a grid of 2 x 10^5 points
    assert 2 * 10**5 * 100 <= observables.MAX_OVERLAPS < 10**6 * 101


@pytest.mark.parametrize(
    "bad", [["--stride", "0"], ["--grid=-1:1:1"]], ids=["stride=0", "grid-n=1"]
)
def test_animate_checks_cheap_input_before_integrating(
    bad, tmp_path, monkeypatch, capsys
):
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
    out = tmp_path / "frames"
    argv = ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.4", "--dt", "0.1",
            *bad, "--out", str(out)]
    assert run_command(argv) == 2
    assert calls == []
    assert not out.exists()


def test_animate_into_a_regular_file_exits_2(tmp_path, capsys):
    out = tmp_path / "frames"
    out.write_bytes(b"not a directory")
    argv = ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.2", "--dt", "0.1",
            "--grid=-1:1:3", "--out", str(out)]
    assert run_command(argv) == 2
    assert "cannot write" in capsys.readouterr().err
    assert out.read_bytes() == b"not a directory"
    assert list(tmp_path.iterdir()) == [out]


def test_animate_stride_larger_than_trajectory(tmp_path, capsys):
    out = tmp_path / "one"
    code = run_command(
        ["animate", *XI_REF, "--nu0", "2", "--t-end", "0.2", "--dt", "0.1",
         "--stride", "50", "--grid=-2:2:11", "--out", str(out)]
    )
    assert code == 0
    assert [p.name for p in sorted(out.glob("husimi_*.csv"))] == ["husimi_00000.csv"]


def test_a_second_run_into_one_directory_leaves_only_its_own_frames(
    tmp_path, capsys
):
    out = tmp_path / "frames"
    argv = ["animate", *XI_REF, "--nu0", "2", "--dt", "0.1", "--grid=-1:1:3",
            "--out", str(out)]
    assert run_command([*argv, "--t-end", "0.4"]) == 0
    # files that are not named like a frame, or are no files, stay
    kept = ["notes.txt", "husimi_notes.csv", "husimi_0001.csv", "husimi_x.csv"]
    for name in kept:
        (out / name).write_bytes(b"not a frame")
    (out / "husimi_00009.csv").mkdir()
    assert run_command([*argv, "--t-end", "0.2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    frames = [f"husimi_{k:05d}.csv" for k in range(3)]
    assert manifest["outputs"] == frames
    assert sorted(p.name for p in out.iterdir()) == sorted(
        frames + kept + ["husimi_00009.csv", "manifest.json"]
    )
    for name in kept:
        assert (out / name).read_bytes() == b"not a frame"


# ---------------------------------------------------------------------------
# g17: the frame formatter against "%.17g" % x


def g17_lines(values):
    """g17.fill's rows with the NUL bytes dropped, one line per value."""
    values = np.asarray(values, dtype=float)
    rows = np.zeros((values.size, g17.WIDTH // 8), "<u8")
    g17.fill(values, rows)
    text = rows.tobytes().replace(b"\0", b"").decode("ascii")
    assert text.endswith("\n") or values.size == 0
    return text.splitlines()


def percent_g_lines(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


def with_neighbours(xs, count=12):
    """Each x, its ``count`` nearest doubles on each side, and all negated."""
    out = []
    for x in xs:
        below = above = x
        out.append(x)
        for _ in range(count):
            with np.errstate(over="ignore"):  # past the largest double: inf
                below = np.nextafter(below, -np.inf)
                above = np.nextafter(above, np.inf)
            out += [below, above]
    out = np.array(out)
    return np.concatenate([out, -out])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310])
def test_g17_matches_percent_g_on_any_floats(xs):
    assert g17_lines(xs) == percent_g_lines(xs)


def test_g17_matches_percent_g_around_powers_of_ten():
    xs = with_neighbours([float(f"1e{e}") for e in range(-252, 19)])
    assert g17_lines(xs) == percent_g_lines(xs)


def test_g17_rounds_exact_ties_half_even():
    # m / 2^j with m odd and m 5^j of 18 digits has exactly 18 significant
    # digits, the last a 5: its 17-digit rounding is an exact tie
    ties = []
    for j in range(1, 26):
        lo = -(-(10**17) // 5**j) | 1
        hi = min((10**18 - 1) // 5**j, 2**53 - 1)
        step = max(2, (hi - lo) // 16 * 2)
        ties += [m / 2**j for m in range(lo, hi + 1, step)]
    assert len(ties) > 200
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    xs = ties + [-x for x in ties]
    assert g17_lines(xs) == percent_g_lines(xs)


# Doubles x whose y = x 10^(16 - X) lies within 2e-15 of a half-integer,
# so within g17's error bound of a tie: found with x = M 2^E by a 2-d
# lattice reduction on M 5^k mod 2^s near 2^(s - 1), y = M 5^k / 2^s.
NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.57a340eb5d4f1p-760", "0x1.e59412b6ea12fp-757", "0x1.93e838c059d66p-682",
    "0x1.3fdcb89a6efefp-574", "0x1.33606895be59bp-391", "0x1.70f4d8d6e3f4cp-304",
    "0x1.646a14d9d2fe1p-209", "0x1.161e325726299p-87", "0x1.8a90a09f98650p-71",
    "0x1.6243a5d6b8d79p-54", "0x1.3835f729c372bp-37", "0x1.b6d3d524dee6bp-24",
)]


def test_g17_matches_percent_g_next_to_ties():
    for x in NEAR_TIES:
        fraction = Fraction(x) * 10 ** (16 - math.floor(math.log10(x))) % 1
        assert 0 < abs(fraction - Fraction(1, 2)) < 2e-15, x
    xs = NEAR_TIES + [-x for x in NEAR_TIES]
    assert g17_lines(xs) == percent_g_lines(xs)


def test_g17_matches_percent_g_where_it_rounds_up_to_a_power_of_ten():
    ups = []
    for e in range(-250, 17):
        x = float(f"1e{e}")
        while Fraction(x) >= Fraction(10) ** e:
            x = float(np.nextafter(x, 0.0))
        # x is the double below 10^e: does its 17-digit rounding reach 10^e?
        if Fraction(10) ** e - Fraction(x) < Fraction(10) ** (e - 17) / 2:
            ups.append(x)
    assert len(ups) > 5
    assert all(line.startswith("1e") for line in percent_g_lines(ups))
    xs = with_neighbours(ups, count=2)
    assert g17_lines(xs) == percent_g_lines(xs)


def test_g17_matches_percent_g_at_and_past_the_ends_of_its_range():
    info = sys.float_info
    ends = [info.min, info.max, 5e-324, info.min * (1 - 2**-52), 1e-250,
            1e-251, 9.999999999999999e16, 1e17, 1.0000000000000002e17, 1e300]
    xs = with_neighbours(ends)
    assert g17_lines(xs) == percent_g_lines(xs)


def test_g17_fast_path_takes_nearly_every_value_with_the_digits_of_percent_e():
    rng = np.random.default_rng(17)
    v = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-250, 17, 20_000)
    exponent, digits, fast = g17._digits(v)
    # what falls back here are exact ties: above 1e14 a double has at most
    # six bits after the binary point, so many y = x 10^(16 - X) end in .5
    assert fast.mean() > 0.99
    for x, k, n in zip(*(u[fast].tolist() for u in (v, exponent, digits))):
        mantissa, power = ("%.16e" % abs(x)).split("e")
        assert (n, k + g17._X_MIN) == (int(mantissa.replace(".", "")), int(power))


def test_g17_lays_out_every_exponent_kept_digit_count_and_sign():
    # x is the double of a decimal string of `kept` digits, the last not 0,
    # at exponent X, whose "%.17g" gives back exactly that decimal: its
    # trailing zeros are 17 - kept, so every row of the mask table meets
    # every X, the point of X = 0 and of X >= 1 included
    rng = random.Random(18)
    found = {}
    for exponent in range(g17._X_MIN, g17._X_MAX + 1):
        for kept in range(1, 18):
            low = 10 ** (kept - 1)
            # every decimal of one or two digits, 100 drawn of more
            draws = (range(low, 10 * low) if kept <= 2 else
                     (rng.randrange(low, 10 * low) for _ in range(100)))
            for digits in draws:
                text = f"{digits}e{exponent - kept + 1}"
                x = float(text)
                if (digits % 10 and Decimal("%.17g" % x) == Decimal(text)
                        and g17._digits(np.array([x]))[2][0]):
                    found[exponent, kept] = x
                    break
    # d 10^X is the 17-digit rounding of a double at only 173 of the 267 X,
    # and no two-digit decimal at X = -30 is; no value can ask for the rest
    assert [sum(kept == k for _, kept in found) for k in (1, 2)] == [173, 266]
    assert all((exponent, kept) in found
               for exponent in range(g17._X_MIN, g17._X_MAX + 1)
               for kept in range(3, 18))
    xs = list(found.values())
    xs += [-x for x in xs]
    assert g17_lines(xs) == percent_g_lines(xs)
