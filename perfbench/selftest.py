#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Runs every workload of BENCHMARK.json at the reduced size (a 6 GB Sort,
a 40-job fleet) for one second, untraced and traced, and checks that each
run exits 0, passes its output checks, and emits exactly the metric names
BENCHMARK.json lists, each with its listed unit and a finite value.
End-to-end metrics must also be non-zero.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Exits 0 when every run passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list, nonzero: bool) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{name}: zero")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            try:
                problems = check(run(workload, trace), expected, nonzero=trace == 0)
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                problems = [str(e)]
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} --trace {trace}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
