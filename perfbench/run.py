"""cnlight benchmark: one workload, one process, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; cnlight is imported from ``src/`` there.
The load is a closed loop with one client: the next op starts when the
previous one has finished and been checked.  Op times are host-normalised
(see hostclock.py); the run makes ops until one more op of the last op's
length would take it past ``--seconds`` of them (by default
``run_seconds`` of BENCHMARK.json), and always an even number, so that
the input class that alternates from op to op (``nu0`` on
resonant_protocol, the cat on detuned_search, resonant or detuned on
husimi_frames) comes equally often.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` makes the same ops with every layer boundary wrapped
(spans.py) and reports the per-layer metrics of BENCHMARK.json, per op.
The tracing overhead is the traced time of an op over its untraced time
in the run with the same seed; suite.py reports it.

Standard output ends with two JSON lines: the full record of the run
(host, every op time, quality and, when traced, every span), then the
result ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs one untraced and one traced op of every workload and
fails unless every check passes and every expected span fires.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from hostclock import REFERENCE_ITERATIONS, REFERENCE_S, TICK_S, Normalised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 15
SETUP_INPUTS = 64          # inputs generated per set-up sample
MAX_FAILURE_MESSAGES = 10
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cnlight; print(time.perf_counter() - t)"
)


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "n": n,
        "n_beyond": 10,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=30,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--", "src"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return head + ("-dirty" if dirty else "")


def host_info(cnlight_threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
        "commit": _git_commit(),
        # removed from the environment before any op; recorded as found
        "CNLIGHT_THREADS": cnlight_threads,
        "normalisation": {
            "reference_s": REFERENCE_S,
            "reference_iterations": REFERENCE_ITERATIONS,
            "tick_s": TICK_S,
        },
    }


def measure_setup(workload, seed):
    """Seconds of fresh-interpreter `import cnlight` plus input generation."""
    from workloads import inputs

    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        t0 = time.perf_counter()
        stream = inputs(workload, seed)
        for _ in range(SETUP_INPUTS):
            next(stream)
        samples.append(float(probe.stdout) + time.perf_counter() - t0)
    return samples


def run_workload(workload, seed, tmp_root, seconds=0.0, n_ops=None, tracer=None):
    """Closed loop over ``workload``: exactly ``n_ops`` ops, or until time.

    The time budget counts host-normalised op seconds, so the number of ops
    depends on the program's speed and not on the host's.
    """
    from workloads import inputs

    stream = inputs(workload, seed)
    ops = []
    spent = 0.0
    while True:
        inp = next(stream)
        op = {"ok": False, "seconds": None}
        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if tracer is not None:
                    tracer.install(len(ops))
                clock = Normalised()
                try:
                    with clock:
                        out = workload.run(inp, tmp_root)
                finally:
                    if tracer is not None:
                        tracer.uninstall(clock.speed)
                op.update(seconds=clock.normalised_s, wall_s=clock.seconds,
                          speed=clock.speed)
                op["result"] = workload.check(inp, out)
                op["ok"] = True
            except Exception as exc:  # any failure is counted, not fatal
                op["error"] = f"{type(exc).__name__}: {exc}"
        op["warnings"] = len(caught)
        ops.append(op)
        last = op["seconds"] or time.perf_counter() - started
        spent += last
        if n_ops is not None:
            if len(ops) == n_ops:
                return ops
        elif spent + last > seconds and len(ops) % 2 == 0:
            return ops


def summarize(workload, seed, ops, tracer, setup, host):
    """Record of one run plus the final result line."""
    done = [o for o in ops if o["ok"]]
    failed = [o for o in ops if not o["ok"]]
    times = [o["seconds"] for o in done]
    walls = [o["wall_s"] for o in done]
    speeds = [o["speed"] for o in done]
    leak = [o["result"].leakage for o in done if not math.isnan(o["result"].leakage)]
    norm = [o["result"].norm_err for o in done if not math.isnan(o["result"].norm_err)]
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(tracer is not None),
        "host": host,
        "attempted": len(ops),
        "failed": len(failed),
        "failed_frac": len(failed) / len(ops),
        "failures": [o["error"] for o in failed[:MAX_FAILURE_MESSAGES]],
        "warnings": sum(o["warnings"] for o in ops),
        "op_s": times,
        "op_wall_s": walls,
        "host_speed": speeds,
        "op_s.p50": statistics.median(times) if times else None,
        "op_wall_s.p50": statistics.median(walls) if walls else None,
        "op_s.tail": tail(times),
        "ops_per_s": len(times) / sum(times) if times else None,
        # set-up runs before the ops: normalised with the run's median speed
        "setup_s": (
            statistics.median(setup) * statistics.median(speeds)
            if setup and speeds else None
        ),
        "setup_wall_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality.leakage": statistics.fmean(leak) if leak else None,
        "quality.norm_err": max(norm) if norm else None,
    }
    spec = json.loads(SPEC.read_text())
    if tracer is not None:
        layer = tracer.per_layer(
            len(done), sum(o["result"].bytes_written for o in done)
        )
        record.update({
            "spans_missing": [
                s for s in workload.expected_spans if not tracer.fired(s)
            ],
            "bindings_missing": tracer.missing_bindings,
            "per_layer": layer,
            "spans": tracer.span_table(),
        })
        wanted, values = spec["per_layer"], layer
    else:
        wanted, values = spec["end_to_end"], record
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    correct = not failed and all(m["value"] is not None for m in metrics.values())
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return record, result


def _smoke(seed, tmp_root, host) -> int:
    from spans import Tracer
    from workloads import WORKLOADS

    bad = 0
    no_setup = []
    for w in WORKLOADS.values():
        plain, _ = summarize(
            w, seed, run_workload(w, seed, tmp_root, n_ops=1), None, no_setup, host
        )
        tracer = Tracer()
        ops = run_workload(w, seed, tmp_root, n_ops=1, tracer=tracer)
        traced, result = summarize(w, seed, ops, tracer, no_setup, host)
        problems = plain["failures"] + traced["failures"]
        problems += [f"span never fired: {s}" for s in traced["spans_missing"]]
        problems += [f"binding missing: {b}" for b in traced["bindings_missing"]]
        problems += [
            f"metric {k} is {m['value']}" for k, m in result["metrics"].items()
            if m["value"] is None or not math.isfinite(m["value"])
        ]
        status = "ok" if not problems else "FAIL"
        print(f"[smoke] {w.name}: {status} ({len(tracer.spans)} spans)",
              file=sys.stderr)
        for p in problems:
            print(f"[smoke]   {p}", file=sys.stderr)
        bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "cnlight" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no cnlight sources under {SRC} or no {SPEC.name}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    sys.path.insert(0, str(SRC))
    cnlight_threads = os.environ.pop("CNLIGHT_THREADS", None)
    import cnlight
    if Path(cnlight.__file__).resolve().parent != SRC / "cnlight":
        print(f"error: imported cnlight from {cnlight.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    host = host_info(cnlight_threads)
    tmp_root = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        if args.smoke:
            return _smoke(args.seed, tmp_root, host)
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        if args.trace:
            tracer = Tracer()
            setup = []
        else:
            tracer = None
            setup = measure_setup(workload, args.seed)
        ops = run_workload(workload, args.seed, tmp_root, seconds=args.seconds,
                           tracer=tracer)
        record, result = summarize(workload, args.seed, ops, tracer, setup, host)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    for msg in record["failures"]:
        print(f"failed op: {msg}", file=sys.stderr)
    if record.get("spans_missing"):
        print(f"warning: spans never fired: {record['spans_missing']}",
              file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
