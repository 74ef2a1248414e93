"""Record the reference j_exact values of the exact-n64 workload.

Usage: python3 bench/make_reference.py COMMIT

Runs the workload's commands at both sizes through the worker and
writes bench/reference.json with the values as the CLI prints them and
the provenance of the run. Run it only on a commit whose exact solve is
trusted: the benchmark fails any later output that differs from these
values by more than a relative 1e-9.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    work = run.BENCH_DIR / ".work" / "reference"
    values, commands, runtime = {}, {}, None
    try:
        for size in workloads.SIZES:
            cmds = workloads.commands("exact-n64", 0, size, work / size)
            res = run.run_worker(work / size, [list(c.argv) for c in cmds], False,
                                 time.monotonic() + 600)
            if res is None or any(c["exit_code"] != 0 for c in res["commands"]):
                print(f"exact commands failed at size {size}", file=sys.stderr)
                return 1
            runtime = res["provenance"]
            values[size], commands[size] = {}, []
            for cmd in cmds:
                with cmd.output.open(newline="") as fh:
                    values[size][cmd.label] = float(next(csv.DictReader(fh))["j_exact"])
                commands[size].append(" ".join(["ridlnoise", *cmd.argv[:-2]]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "provenance": {
            "commit": sys.argv[1],
            "source_sha256": run.source_sha256(run.ROOT / "src"),
            "method": "shipped dense path: N^2 x N^2 moment operator and LU solve",
            "commands": commands,
            "runtime": runtime,
        },
        "j_exact": values,
    }
    checks.REFERENCE_FILE.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
