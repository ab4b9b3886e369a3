#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, an end-to-end run and a traced run must pass their
output checks and print every metric BENCHMARK.json names, with its unit.
A run of table1_round with a wrong pinned Table-1 value must fail.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--size", "tiny", "--seconds", "2", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}\n{stderr[-2000:]}")
                continue
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                got = metrics.get(name)
                if got is None:
                    problems.append(f"{where}: metric {name} missing")
                elif got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: metric {name} is {got}, unit should be {unit}")
            extra = set(metrics) - set(expected[trace])
            if extra:
                problems.append(f"{where}: metrics BENCHMARK.json does not name: {sorted(extra)}")
            print(f"ok   {where}: {len(metrics)} metrics")

    code, result, _ = run("table1_round", 0, "--expect-table1", "0.5,0.5,0.5")
    if code == 0 or result is None or result["correct"]:
        problems.append(f"a wrong pinned Table-1 value passed: exit {code}, result {result}")
    else:
        print("ok   table1_round with a wrong pinned Table-1 value fails")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
