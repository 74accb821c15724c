"""Compare two suite result files, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Each row gives both medians with their quartiles and the ratio NEW/BASE.
A metric whose run-to-run spread (interquartile range over median) exceeds
its bound from BENCHMARK.json on either side is marked ``unresolved``:
the two files cannot tell a change of that size from noise.  The one
exception is a metric on which every NEW run beats every BASE run.  Rows
for the end-to-end figures that BENCHMARK.json cannot bound follow: the
failed share, the mean leakage and norm error, the raw wall time and the
op-time tail pooled over all runs.  Per-layer metrics from the traced runs
come last, with medians and ratios only; their times are host-normalised
op by op, as the op times are (spans.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import tail

# end-to-end figures in every run record that have no bound: zero when the
# program is right, undefined on some workloads, or needing more ops
RECORD_ONLY = ("failed_frac", "quality.leakage", "quality.norm_err", "op_wall_s.p50")


def summary(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def metric_values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs]


def record_values(runs, key):
    return [r["record"][key] for r in runs if r["record"].get(key) is not None]


def pooled_tail(runs):
    """op_s.tail over the ops of all runs together."""
    return tail([t for r in runs for t in r["record"]["op_s"]])


def verdict(base, new, metric) -> str:
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    if (max(new) < min(base)) if lower else (min(new) > max(base)):
        return "better in every run"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = summary(base)[0], summary(new)[0]
    worse = n / b - 1.0 if lower else b / n - 1.0
    if worse > bound:
        return f"worse by more than {bound:g}"
    return "within bound"


def _fmt(values) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base: dict, new: dict, out=sys.stdout) -> None:
    spec = base["spec"]
    print(f"base: {base.get('label', '?')}  new: {new.get('label', '?')}", file=out)
    print("workload | metric | base median [q1, q3] | new median [q1, q3] "
          "| new/base | verdict", file=out)
    for w in spec["workloads"]:
        name = w["name"]
        b_runs, n_runs = base["runs"].get(name), new["runs"].get(name)
        if not b_runs or not n_runs:
            continue
        for m in spec["end_to_end"]:
            b, n = metric_values(b_runs, m["name"]), metric_values(n_runs, m["name"])
            ratio = summary(n)[0] / summary(b)[0]
            print(f"{name} | {m['name']} ({m['unit']}) | {_fmt(b)} | {_fmt(n)} "
                  f"| {ratio:.4f} | {verdict(b, n, m)}", file=out)
    print("\nwithout a bound", file=out)
    for w in spec["workloads"]:
        name = w["name"]
        b_runs, n_runs = base["runs"].get(name), new["runs"].get(name)
        if not b_runs or not n_runs:
            continue
        for key in RECORD_ONLY:
            b, n = record_values(b_runs, key), record_values(n_runs, key)
            if not b or not n:
                continue
            bm, nm = summary(b)[0], summary(n)[0]
            ratio = f"{nm / bm:.4f}" if bm else "-"
            note = "more ops failed" if key == "failed_frac" and sum(n) > sum(b) else ""
            print(f"{name} | {key} | {_fmt(b)} | {_fmt(n)} | {ratio} | {note}", file=out)
        bt, nt = pooled_tail(b_runs), pooled_tail(n_runs)
        if bt and nt:
            print(f"{name} | op_s.tail, pooled | {bt['value']:.6g} at p{bt['percentile']:.1f} "
                  f"of {bt['n']} ops | {nt['value']:.6g} at p{nt['percentile']:.1f} "
                  f"of {nt['n']} ops | {nt['value'] / bt['value']:.4f} | 10 beyond", file=out)
    print("\nper layer, traced runs (per op)", file=out)
    for w in spec["workloads"]:
        name = w["name"]
        b_runs, n_runs = base["traced"].get(name), new["traced"].get(name)
        if not b_runs or not n_runs:
            continue
        for m in spec["per_layer"]:
            b, n = metric_values(b_runs, m["name"]), metric_values(n_runs, m["name"])
            bm, nm = summary(b)[0], summary(n)[0]
            ratio = f"{nm / bm:.4f}" if bm else "-"
            print(f"{name} | {m['name']} ({m['unit']}) | {_fmt(b)} | {_fmt(n)} "
                  f"| {ratio} |", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two suite result files")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as fb, open(args.new) as fn:
        compare(json.load(fb), json.load(fn))
    return 0


if __name__ == "__main__":
    sys.exit(main())
