#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs the command in BENCHMARK.json `--runs` times per workload,
interleaving the workloads and giving every run its own seed, then
prints, per workload and end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`), min, max and the spread
(interquartile distance over the median) next to the metric's bound.

Run from the repository root:

    python3 evbench/spread.py --runs 10 --first-seed 1000 > spread.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)} reported a failed check:\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / q2,
        "bound": bound,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            metrics = run_once(bench["command"], w, seed, bench["run_seconds"], False)
            for m in bounds:
                values[w][m].append(metrics[m])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}", file=sys.stderr)
    report = {
        w: {m: summarize(v, bounds[m]) for m, v in metrics.items()}
        for w, metrics in values.items()
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    for w, metrics in report.items():
        for m, s in metrics.items():
            flag = "" if m == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(
                f"{w:16} {m:15} median {s['median']:.6g} spread {s['spread']:.4f}"
                f" bound {s['bound']}{flag}",
                file=sys.stderr,
            )


if __name__ == "__main__":
    main()
