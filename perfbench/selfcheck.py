#!/usr/bin/env python3
"""The benchmark's own check, at small scale (about two minutes).

    python3 perfbench/selfcheck.py

Run from the repository root. For each workload it runs perfbench/run.py
with --small and asserts that:
  - the untraced run prints every end-to-end metric of BENCHMARK.json,
    each non-zero, and the traced run every per-layer metric;
  - every per-layer metric is measured by at least one workload;
  - a second seed yields the same metric set;
  - one injected wrong byte is counted as a failed op, lowers ok_frac,
    and makes the command exit non-zero.
Exits 0 when every assertion holds.
"""

import json
import subprocess
import sys

WORKLOADS = ["checkpoint", "service-mix", "range-read"]
SECONDS = "3"


def run(workload, seed, trace, inject=False):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--trace",
               str(trace), "--small"]
    if inject:
        command.append("--inject-fault")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    not_exercised = []
    for line in lines[:-1]:
        detail = json.loads(line)
        if detail.get("detail") == "not_exercised":
            not_exercised = detail["value"]
    return done.returncode, result, not_exercised


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok: {message}")


def main():
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    e2e = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    exercised = set()
    for workload in WORKLOADS:
        code, result, _ = run(workload, 1, 0)
        metrics = result["metrics"]
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload}: clean untraced run verifies every op")
        check(set(metrics) == e2e,
              f"{workload}: every end-to-end metric printed")
        zero = sorted(n for n, m in metrics.items() if m["value"] == 0)
        check(not zero, f"{workload}: no end-to-end metric reads 0 {zero}")

        code, result, missing = run(workload, 1, 1)
        check(code == 0 and set(result["metrics"]) == per_layer,
              f"{workload}: traced run prints every per-layer metric")
        exercised |= per_layer - set(missing)

        code, result, _ = run(workload, 2, 0)
        check(code == 0 and set(result["metrics"]) == e2e,
              f"{workload}: second seed yields the same metric set")

        code, result, _ = run(workload, 1, 0, inject=True)
        check(code != 0 and not result["correct"] and
              result["failed"] >= 1 and
              result["metrics"]["ok_frac"]["value"] < 1.0,
              f"{workload}: an injected wrong byte fails an op and the run")
    never = sorted(per_layer - exercised)
    check(not never, f"every per-layer metric measured somewhere {never}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
