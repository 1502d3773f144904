#!/usr/bin/env python3
"""Perf-smoke gate: fail CI when search throughput regresses.

Compares a fresh Google-Benchmark JSON run against the committed
baseline under bench_results/ and fails when any tracked benchmark is
more than --tolerance slower (default 20%).

Raw ns/op is meaningless across machines (the committed baseline comes
from the developer container, CI runners differ in clock and core
count), so the gate normalizes both runs by a calibration benchmark —
one whose code this repo's hot-path work does not touch (default:
BM_CostModelCalibrationGemm; every suite's anchor runs the same frozen
copy of the analytical model's linear tile search,
bench::frozenWsTileSearch in bench/bench_util.h). The check is then

    current[b] / current[cal]  <=  (1 + tol) * baseline[b] / baseline[cal]

i.e. "did benchmark b get slower *relative to the same machine's
untouched compute core*". That cancels machine speed while still
catching real hot-path regressions. The calibration bench itself is
implicitly trusted; a regression there shifts every ratio and shows up
as widespread failures.

Usage:
  check_bench_regression.py --baseline bench_results/micro_sched.json \
      --current build/bench_results/micro_sched.json \
      [--benchmarks BM_WindowSearch,...] [--tolerance 0.2] \
      [--calibrate BM_CostModelCalibrationGemm | --no-calibrate]

With --benchmarks unset, every benchmark present in both files (minus
the calibration one) is checked.
"""

import argparse
import json
import sys


def load_times(path):
    """name -> real_time in ns for every benchmark in a GB JSON file.

    When a run used --benchmark_repetitions, each repetition appears
    as its own entry under the same name; the minimum is kept —
    noise on a shared runner only ever inflates a measurement, so the
    fastest repetition is the most faithful one.
    """
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        ns = bench["real_time"] * scale
        name = bench["name"]
        times[name] = min(times.get(name, ns), ns)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--current", required=True,
                        help="freshly measured JSON")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated names to gate "
                             "(default: all common benchmarks)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed slowdown fraction (default 0.2)")
    parser.add_argument("--calibrate", default="BM_CostModelCalibrationGemm",
                        help="machine-speed normalization benchmark")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="compare raw times (same-machine runs only)")
    args = parser.parse_args()

    baseline = load_times(args.baseline)
    current = load_times(args.current)

    cal = 1.0
    if not args.no_calibrate:
        if args.calibrate not in baseline or args.calibrate not in current:
            print(f"FAIL: calibration benchmark {args.calibrate!r} "
                  f"missing from baseline or current run")
            return 1
        cal = current[args.calibrate] / baseline[args.calibrate]
        print(f"calibration ({args.calibrate}): this machine runs "
              f"{cal:.2f}x the baseline machine's time")

    if args.benchmarks:
        names = [n for n in args.benchmarks.split(",") if n]
        missing = [n for n in names if n not in baseline or n not in current]
        if missing:
            print(f"FAIL: benchmarks missing from one side: {missing}")
            return 1
    else:
        names = sorted(set(baseline) & set(current) - {args.calibrate})
        if not names:
            print("FAIL: no common benchmarks between baseline and current")
            return 1

    failures = []
    for name in names:
        allowed = baseline[name] * cal * (1.0 + args.tolerance)
        ratio = current[name] / (baseline[name] * cal)
        verdict = "OK" if current[name] <= allowed else "REGRESSED"
        print(f"{verdict:>9}  {name}: {current[name]:,.0f} ns vs "
              f"normalized baseline {baseline[name] * cal:,.0f} ns "
              f"({ratio:.2f}x)")
        if current[name] > allowed:
            failures.append(name)

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more "
              f"than {args.tolerance:.0%}: {', '.join(failures)}")
        return 1
    print(f"\nOK: no benchmark regressed more than {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
