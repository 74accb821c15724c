"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke test runs one untraced and one traced op of every workload, so
every correctness check and every expected span runs; it takes about a
minute.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import compare
import hostclock
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # workloads imports cnlight from the checkout
import workloads  # noqa: E402


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    t = run.tail([float(i) for i in range(20)])
    assert t == {"value": 9.0, "percentile": 50.0, "n": 20, "n_beyond": 10}


def _suite(values, metric="op_s.p50", failed_frac=0.0):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [
        {
            "result": {"metrics": {
                m["name"]: {"value": v if m["name"] == metric else 1.0,
                            "unit": m["unit"]}
                for m in spec["end_to_end"]
            }},
            "record": {"op_s": [v], "failed_frac": failed_frac},
        }
        for v in values
    ]
    w = spec["workloads"][0]["name"]
    return {"label": "t", "spec": spec, "runs": {w: runs}, "traced": {}}


def test_compare_marks_wide_spread_unresolved():
    out = io.StringIO()
    compare.compare(_suite([1.0, 1.0, 1.0, 1.0]), _suite([0.5, 1.0, 2.0, 4.0]), out)
    row = next(line for line in out.getvalue().splitlines() if "op_s.p50" in line)
    assert row.endswith("unresolved")


def test_compare_never_calls_noise_a_gain():
    out = io.StringIO()
    compare.compare(_suite([1.0, 1.05, 1.1]), _suite([1.02, 0.97, 1.08]), out)
    row = next(line for line in out.getvalue().splitlines() if "op_s.p50" in line)
    assert row.endswith("within bound")


def test_compare_flags_a_regression_beyond_the_bound():
    out = io.StringIO()
    compare.compare(_suite([1.0, 1.0, 1.0]), _suite([2.0, 2.0, 2.0]), out)
    row = next(line for line in out.getvalue().splitlines() if "op_s.p50" in line)
    assert "| 2.0000 | worse by more than" in row


def test_compare_reports_more_failed_ops():
    out = io.StringIO()
    compare.compare(_suite([1.0] * 3), _suite([1.0] * 3, failed_frac=0.5), out)
    row = next(line for line in out.getvalue().splitlines() if "failed_frac" in line)
    assert row.endswith("more ops failed")


def test_normalised_time_leaves_out_the_reference_loops():
    with hostclock.Normalised() as clock:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 3
    assert 0.0 < clock.paused < clock.wall
    assert clock.seconds == clock.wall - clock.paused
    assert clock.normalised_s == clock.seconds * clock.speed


def test_every_op_searches_its_own_window():
    for name in ("resonant_protocol", "detuned_search"):
        stream = workloads.inputs(workloads.WORKLOADS[name], seed=3)
        centres = [next(stream)["centre"] for _ in range(12)]
        assert len(set(centres)) == len(centres)
        refs = workloads._REF_T_TOF.values()
        lo, hi = workloads.CENTRE_JITTER
        assert all(any(lo * r <= c <= hi * r for r in refs) for c in centres)


def test_husimi_pairs_share_their_class_and_mirror_their_draws():
    stream = workloads.inputs(workloads.WORKLOADS["husimi_frames"], seed=5)
    for _ in range(4):
        first, second = next(stream), next(stream)
        assert abs(first["t_tof"] + second["t_tof"] - 9.0) < 1e-12
        for flag in ("--config", "--na"):
            k1, k2 = first["argv"].index(flag), second["argv"].index(flag)
            assert first["argv"][k1 + 1] == second["argv"][k2 + 1]
        assert ("--delta12" in first["argv"]) == ("--delta12" in second["argv"])


def test_layer_times_are_scaled_by_the_op_host_speed():
    import spans
    from cnlight import protocol

    tracer = spans.Tracer()
    tracer.install(0)
    try:
        protocol.build_sector_basis(protocol.reference_config(), 1, 3)
    finally:
        tracer.uninstall(2.0)
    (_, _, _, name, start, end), = tracer.spans
    assert name == "hilbert.build_sector_basis"
    assert tracer.total_s[name] == 2.0 * (end - start)
    assert tracer.span_table()["rows"][0][3] == name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "husimi_frames",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_smoke_every_check_and_span():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count(": ok (") == 3, proc.stderr
