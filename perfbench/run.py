#!/usr/bin/env python3
"""Run one workload of the fpcomp benchmark and print its result.

    python3 perfbench/run.py --workload checkpoint|service-mix|range-read \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the benchmark binary
(perfbench/CMakeLists.txt: the fpcomp library plus perfbench/src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse
the build. The binary's detail lines pass through; its last line is
turned into the result line, with every metric's unit taken from
BENCHMARK.json:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(a per-layer metric a workload does not exercise reads 0). The exit code
is 0 only when every op was verified; a build or run failure exits
non-zero without a result line. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", "perfbench", "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "fpcbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "fpcbench")


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["checkpoint", "service-mix", "range-read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-check scale: small inputs, short phases")
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one output byte before it is verified")
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "run"),
               "--commit", commit()]
    if args.small:
        command.append("--small")
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"fpcbench printed nothing (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"fpcbench's last line is not JSON (exit {done.returncode})")

    values = raw["values"]
    unknown = sorted(set(values) - set(units))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json {section}: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not args.trace:
        fail(f"end-to-end metrics not measured: {missing}")
    if args.trace:
        print(json.dumps({"detail": "not_exercised", "value": missing}))
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
