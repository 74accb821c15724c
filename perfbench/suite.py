"""Run the benchmark several times per workload and write one result file.

    python3 perfbench/suite.py --runs 10 --seed 1 --out results.json \\
        [--workloads a,b] [--trace-runs 2] [--seconds S]

Each run is a separate ``run.py`` process with its own seed (seed, seed+1,
...), workloads interleaved so that a slow spell of the host spreads over
all of them.  The file holds every run's record and result; compare two
such files with compare.py.  A traced run's record includes its spans.
The table printed at the end gives, for every end-to-end metric, the
median, the quartiles and the spread (interquartile range over median)
against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import pooled_tail, spread, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"record": json.loads(record_line), "result": json.loads(result_line)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--label", default=None, help="name of this result set")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")

    suite = {
        "label": args.label,
        "spec": spec,
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runs": {w: [] for w in chosen},
        "traced": {w: [] for w in chosen},
    }
    for key, trace, count in (("runs", 0, args.runs), ("traced", 1, args.trace_runs)):
        for i in range(count):
            for w in chosen:
                run = run_once(w, args.seed + i, args.seconds, trace)
                suite[key][w].append(run)
                res = run["result"]
                print(f"{key} {w} seed={args.seed + i} correct={res['correct']} "
                      f"ops={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)
                # compact: a traced run's record holds thousands of span rows
                Path(args.out).write_text(
                    json.dumps(suite, separators=(",", ":")) + "\n"
                )

    report(suite)
    return 0


def report(suite) -> None:
    """Spread of every end-to-end metric against its bound, per workload."""
    spec = suite["spec"]
    first = next((runs[0] for runs in suite["runs"].values() if runs), None)
    if first is not None:
        print(f"host: {json.dumps(first['record']['host'])}")
    print("workload | metric | median [q1, q3] | spread | bound")
    for w, runs in suite["runs"].items():
        if not runs:
            continue
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            median, q1, q3 = summary(values)
            s = spread(values)
            flag = "ok" if s < m["bound"] / 3 else ("wide" if s < m["bound"] else "OVER")
            print(f"{w} | {m['name']} | {median:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"| {s:.4f} | {m['bound']} {flag}")
        pooled = pooled_tail(runs)
        if pooled is not None:
            print(f"{w} | op_s.tail, pooled over runs | {pooled['value']:.6g} "
                  f"at p{pooled['percentile']:.1f} of {pooled['n']} ops, 10 beyond")
        over = trace_overhead(runs, suite["traced"][w])
        if over:
            median, q1, q3 = summary(over)
            print(f"{w} | trace overhead, traced/untraced time of the same op - 1 "
                  f"| {median:+.4f} [{q1:+.4f}, {q3:+.4f}] over {len(over)} ops")


def trace_overhead(runs, traced):
    """Traced over untraced time of each op that both runs of a seed made, - 1."""
    plain = {r["record"]["seed"]: r["record"]["op_s"] for r in runs}
    return [
        t / u - 1.0
        for r in traced
        for t, u in zip(r["record"]["op_s"], plain.get(r["record"]["seed"], []))
    ]


if __name__ == "__main__":
    sys.exit(main())
