#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced.

    python3 perfbench/smoke.py [--seconds 2] [--seed 1]

Runs a few seconds of each workload with ``--trace 0`` and ``--trace 1`` and
prints every metric with its unit: the gated ones of the result line, the
ungated ones of the report line, and the failed fraction. It checks that
each run exits 0 and ends in a result with exactly the metrics that
BENCHMARK.json names, each with the unit named there and a finite value, and
that no op failed. It also checks that a directory holding only the
benchmark, without the package source, makes the benchmark exit nonzero
without a result. Exits 1 on any problem.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int, seconds: float, seed: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: failures {report.get('failures')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    print(f"{where}: {result.get('attempted')} ops, failed_frac {report.get('failed_frac')}")
    ungated = report.get("ungated_metrics", {})
    for name, metric in [*metrics.items(), *ungated.items()]:
        value, unit = metric.get("value"), metric.get("unit")
        print(f"  {name:32s} {value!r:>24} {unit}{'  (ungated)' if name in ungated else ''}")
        if (unit != expected.get(name, unit) or not unit or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{where}: {name} = {value!r} {unit!r}")
    return problems


def check_bare() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse to run."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "spectrum-20k",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print(f"without source: exit {proc.returncode}, {len(proc.stdout.splitlines())} stdout lines")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without source: the benchmark ran or printed a result"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace, args.seconds, args.seed)
    problems += check_bare()
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
