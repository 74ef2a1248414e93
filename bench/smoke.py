"""Smoke test of the benchmark at tiny sizes.

Usage: python3 bench/smoke.py

Runs every workload at ``--size tiny`` with tracing off and on and
checks that the result line carries exactly the metrics that
BENCHMARK.json names, each with its unit, and that every output check
passes. Then corrupts one J value in the output of each workload and
checks that it counts as a failed operation. Exits 0 when all holds.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import run
import workloads


def bench_result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_problems() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, names in wanted.items():
            result = bench_result(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {names}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} value {m['value']!r} is not a number")
    return problems


def _corrupt(path: Path, column: str, factor: float) -> None:
    """Scale ``column`` of the first data row of a CSV file."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
        columns = list(rows[0])
    rows[0][column] = repr(float(rows[0][column]) * factor)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def corruption_problems() -> list[str]:
    # (workload, file the first command writes, column, factor). The
    # exact-n64 factor sits just above the reference tolerance.
    cases = (("report", "star_sweep_n.csv", "j_exact", 2.0),
             ("exact-n64", None, "j_exact", 1.0 + 1e-8),
             ("simulate-grid16", None, "j_hat", 2.0))
    references = checks.load_references("tiny")
    work = run.BENCH_DIR / ".work" / "smoke"
    problems = []
    try:
        for workload, name, column, factor in cases:
            cmds = workloads.commands(workload, 7, "tiny", work / workload / "out")
            res = run.run_worker(work / workload, [list(c.argv) for c in cmds], False,
                                 time.monotonic() + 170)
            if res is None:
                problems.append(f"{workload}: worker failed")
                continue
            cmd = cmds[0]
            before = checks.check_command(cmd, 0, references)
            target = cmd.output / name if name else cmd.output
            _corrupt(target, column, factor)
            after = checks.check_command(cmd, 0, references)
            if before.failed != 0 or after.failed != 1:
                problems.append(f"{workload}: corrupted {column} gave {after.failed} failed "
                                f"operations (clean output: {before.failed}); expected 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    problems = metric_problems() + corruption_problems()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
