#!/usr/bin/env python3
"""Entry point of the repo benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-250k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the library and the benchmark from source (CMake, Release) under
$CARGO_TARGET_DIR or .bench_build, runs one workload in one process, and
passes its output through.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the metric
names are checked against BENCHMARK.json.  Any failure (no sources to
build, a build error, a crash, a result line with other keys or metric
names) exits non-zero without printing a result.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    return target / "perfbench"


def build(target):
    """Configures once, then builds `target`; returns the binary's path."""
    if not (HERE.parent / "src" / "core" / "plan_service.hpp").is_file():
        fail("the library sources are missing next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / target


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    spec = pathlib.Path.cwd() / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec, encoding="utf-8") as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], timeout=600,
                                check=False).returncode)
    if not args.workload or args.seconds is None:
        fail("--workload and --seconds are required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build("perfbench")
    spans = build_dir() / f"spans-{args.workload}-{args.seed}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 120, check=False)
    except subprocess.TimeoutExpired:
        fail("the run timed out", 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"the run failed (exit {done.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the run did not end with a JSON result", 1)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}", 1)
    names = expected_metrics(args.trace)
    if names is not None and list(result["metrics"]) != names:
        fail("metric names differ from BENCHMARK.json", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
