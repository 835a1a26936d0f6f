#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs one experiment of every workload, with all its rounds, in both modes
(--seconds 1).  Checks that the result line has exactly the keys correct,
attempted, failed and metrics, that every metric BENCHMARK.json names for
the mode is printed with its unit and a finite value, and that the
correctness gate passed.  Then runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/, where it must fail without printing a
result.  Exits non-zero if any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"gate: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{metric['name']}: {got}")
        elif not any(line.startswith(f"{metric['name']} ")
                     and line.endswith(f" {metric['unit']}") for line in lines[:-1]):
            problems.append(f"{metric['name']} not printed with its unit")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    try:
        proc = run(bare, "feddist-desk", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}", flush=True)
            for problem in problems:
                print(f"     {problem}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} fails without the program's sources")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
