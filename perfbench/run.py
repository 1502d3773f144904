#!/usr/bin/env python3
"""Builds scarbench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload solve_paper --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root; Chrome traces of
--trace 1 runs go to .bench_out/. The last line of standard output is
the JSON result printed by scarbench; build output goes to standard
error. Exits non-zero, without a result line, if the build fails or
scarbench prints no valid result, and with scarbench's exit status
otherwise.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configures and builds scarbench; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "scarbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, timeout=850).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "scarbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    # scarbench starts set-up probes of its own; on a timeout the whole
    # process group is killed and reaped.
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: scarbench timed out")
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: scarbench printed no result "
                 "(exit code %d)" % proc.returncode)
    if set(result) != RESULT_KEYS or \
            set(result["metrics"]) != declared_metrics(args.trace):
        sys.exit("perfbench: result does not match BENCHMARK.json")
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
