#!/usr/bin/env python3
"""Benchmark regression gate.

Parses the output of the vendored-criterion benchmark harness
(`cargo bench -p ev-bench --bench mpc_derivatives`), whose timing lines
look like

    mpc_derivatives/control_step_h32_banded  time: [204.56 µs 214.05 µs 230.52 µs]

and compares each median against the committed baseline in
``BENCH_mpc.json``. Exits non-zero if any benchmark's median regresses by
more than the threshold (default 20%), printing a per-benchmark table
either way. An arm whose median is more than the threshold *below* its
baseline is printed as a "stale baseline" line without failing the gate:
left in place, such a baseline lets that arm regress unnoticed by the gain
plus the threshold, so it should be refreshed.

Benchmarks present in the run but absent from the baseline are reported
as "new" and do not fail the gate (commit an updated BENCH_mpc.json to
start tracking them). Baseline entries missing from the run DO fail the
gate: a silently dropped benchmark is how a regression hides.

Usage:
    cargo bench -p ev-bench --bench mpc_derivatives | tee bench.out
    python3 scripts/bench_gate.py bench.out [--baseline BENCH_mpc.json]
                                            [--threshold 0.20]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# `time: [<lo> <unit> <median> <unit> <hi> <unit>]`
TIME_LINE = re.compile(
    r"^(?P<id>\S+)\s+time:\s+\["
    r"\s*[\d.]+\s*(?:ns|µs|us|ms|s)"
    r"\s+(?P<median>[\d.]+)\s*(?P<unit>ns|µs|us|ms|s)"
    r"\s+[\d.]+\s*(?:ns|µs|us|ms|s)\s*\]"
)

UNIT_TO_US = {"ns": 1e-3, "µs": 1.0, "us": 1.0, "ms": 1e3, "s": 1e6}


def parse_run(path: str) -> dict[str, float]:
    """Benchmark id -> median in microseconds, from a bench output file."""
    medians: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            m = TIME_LINE.match(line.strip())
            if m:
                medians[m.group("id")] = float(m.group("median")) * UNIT_TO_US[
                    m.group("unit")
                ]
    return medians


def parse_baseline(path: str) -> dict[str, float]:
    """Benchmark id -> median in microseconds, from BENCH_mpc.json."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out: dict[str, float] = {}
    for bench_id, entry in doc.get("benchmarks", {}).items():
        if "median_us" in entry:
            out[bench_id] = float(entry["median_us"])
        elif "median_ms" in entry:
            out[bench_id] = float(entry["median_ms"]) * 1e3
        elif "median_s" in entry:
            out[bench_id] = float(entry["median_s"]) * 1e6
        else:
            raise ValueError(f"{bench_id}: no median_us/median_ms/median_s key")
    return out


def fmt_us(us: float) -> str:
    if us < 1.0:
        return f"{us * 1e3:.2f} ns"
    if us < 1e3:
        return f"{us:.2f} µs"
    if us < 1e6:
        return f"{us / 1e3:.2f} ms"
    return f"{us / 1e6:.3f} s"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("run", help="file holding `cargo bench` stdout")
    ap.add_argument("--baseline", default="BENCH_mpc.json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum allowed fractional median regression (default 0.20)",
    )
    args = ap.parse_args()

    run = parse_run(args.run)
    if not run:
        print(f"error: no benchmark timing lines found in {args.run}")
        return 2
    baseline = parse_baseline(args.baseline)

    failures: list[str] = []
    width = max(len(b) for b in set(run) | set(baseline))
    for bench_id in sorted(set(run) | set(baseline)):
        if bench_id not in run:
            failures.append(bench_id)
            print(f"{bench_id:<{width}}  MISSING from run (baseline "
                  f"{fmt_us(baseline[bench_id])})")
            continue
        if bench_id not in baseline:
            print(f"{bench_id:<{width}}  new: {fmt_us(run[bench_id])} "
                  "(not in baseline, not gated)")
            continue
        ratio = run[bench_id] / baseline[bench_id]
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failures.append(bench_id)
        print(
            f"{bench_id:<{width}}  {fmt_us(run[bench_id]):>10} vs baseline "
            f"{fmt_us(baseline[bench_id]):>10}  ({ratio - 1.0:+.1%})  {status}"
        )
        if ratio < 1.0 - args.threshold:
            print(
                f"{bench_id:<{width}}  stale baseline: the median is "
                f"{1.0 - ratio:.1%} below it; refresh it in {args.baseline}"
            )

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} or went missing: {', '.join(failures)}"
        )
        return 1
    print(f"\nOK: all medians within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
