"""Correctness checks on the CLI's output files.

An operation is one output row (``report``) or one command (``exact``,
``simulate``). It fails when its command exits nonzero, when its row is
missing, or when any check below fails. No check compares output bytes
across source trees: a different solver may change the last bits.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Command

# Absolute slack on every bound inequality; equal to the package's
# ``TOL.sandwich_slack`` at the seed commit and fixed here so that a
# change to the package cannot loosen the check.
SANDWICH_SLACK = 1e-9
REFERENCE_RTOL = 1e-9  # exact-n64 values against bench/reference.json
MC_SIGMAS = 3.0  # j_hat must lie within [j_lb - 3 se, j_ub + 3 se]

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Outcome:
    """What the checks found in one command's output."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    output_bytes: int = 0
    std_error: float | None = None
    digest: str = ""


def load_references(size: str) -> dict[str, float]:
    """Reference j_exact values of the exact-n64 commands at ``size``."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {label: float(value) for label, value in data["j_exact"][size].items()}


def _num(row: dict, key: str) -> float | None:
    cell = row.get(key)
    if cell is None or cell == "":
        return None
    return float(cell)


def row_problems(row: dict) -> list[str]:
    """Bound and sandwich checks for one output row.

    The chain j_lb <= j_exact <= j_ub and j_res_lb <= j_exact <= j_res_ub
    applies when the exact index was computed on the row's own graph
    (``n_exact == n``); the reduced-N exact value of a sweep-p row is
    compared with nothing.
    """
    where = f"{row.get('family')} n={row.get('n')} p={row.get('p')}"
    try:
        bounds = {k: _num(row, k) for k in ("j_lb", "j_ub", "j_res_lb", "j_res_ub")}
        j_exact, n, n_exact = _num(row, "j_exact"), _num(row, "n"), _num(row, "n_exact")
    except ValueError as exc:
        return [f"{where}: unparsable cell ({exc})"]
    bad = [k for k, v in bounds.items() if v is None or not math.isfinite(v) or v <= 0.0]
    if bad:
        return [f"{where}: missing or nonpositive {', '.join(bad)}"]
    problems = []
    pairs = [("j_lb", "j_ub"), ("j_res_lb", "j_res_ub")]
    if j_exact is not None and n_exact == n:
        if not math.isfinite(j_exact):
            return [f"{where}: j_exact is {j_exact}"]
        bounds["j_exact"] = j_exact
        pairs = [("j_lb", "j_exact"), ("j_exact", "j_ub"),
                 ("j_res_lb", "j_exact"), ("j_exact", "j_res_ub")]
    for lo, hi in pairs:
        if bounds[lo] > bounds[hi] + SANDWICH_SLACK:
            problems.append(f"{where}: {lo}={bounds[lo]!r} > {hi}={bounds[hi]!r}")
    return problems


def simulate_problems(row: dict) -> list[str]:
    """Monte Carlo checks: converged, and j_hat within 3 se of the bounds."""
    if row.get("converged") != "true":
        return [f"simulate: converged={row.get('converged')!r}"]
    try:
        j_hat, se = _num(row, "j_hat"), _num(row, "std_error")
        lo, hi = _num(row, "j_lb"), _num(row, "j_ub")
    except ValueError as exc:
        return [f"simulate: unparsable cell ({exc})"]
    if None in (j_hat, se, lo, hi) or not (se >= 0.0):
        return [f"simulate: j_hat={j_hat} std_error={se} missing or invalid"]
    if not (lo - MC_SIGMAS * se <= j_hat <= hi + MC_SIGMAS * se):
        return [f"simulate: j_hat={j_hat!r} outside [{lo!r} - 3se, {hi!r} + 3se], se={se!r}"]
    return []


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_command(cmd: Command, exit_code: int, references: dict[str, float]) -> Outcome:
    """Check one command's output and count its failed operations."""
    out = Outcome(attempted=sum(cmd.expected_rows.values()) if cmd.kind == "report" else 1)
    files = [cmd.output / name for name in cmd.expected_rows] if cmd.kind == "report" else [cmd.output]
    sha = hashlib.sha256()
    for path in files:
        if path.is_file():
            data = path.read_bytes()
            sha.update(path.name.encode() + b"\0" + data)
    out.digest = sha.hexdigest()
    if cmd.output.is_dir():
        out.output_bytes = sum(p.stat().st_size for p in cmd.output.iterdir() if p.is_file())
    elif cmd.output.is_file():
        out.output_bytes = cmd.output.stat().st_size
    if exit_code != 0:
        out.failed = out.attempted
        out.problems.append(f"{cmd.label}: exit code {exit_code}")
        return out

    failed_rows = 0
    for path in files:
        expected = cmd.expected_rows[path.name]
        try:
            rows = _read_csv(path)
        except (OSError, csv.Error, UnicodeDecodeError) as exc:
            out.problems.append(f"{path.name}: unreadable ({exc})")
            failed_rows += expected
            continue
        out.rows += len(rows)
        if len(rows) != expected:
            out.problems.append(f"{path.name}: {len(rows)} rows, expected {expected}")
        failed_rows += max(0, expected - len(rows))
        for row in rows[:expected]:
            problems = row_problems(row)
            if cmd.kind == "exact" and not problems:
                problems = _reference_problems(cmd.label, row, references)
            if cmd.kind == "simulate":
                problems += simulate_problems(row)
                try:
                    out.std_error = _num(row, "std_error")
                except ValueError:
                    out.std_error = None
            if problems:
                out.problems.extend(problems)
                failed_rows += 1
    out.failed = min(out.attempted, failed_rows)
    return out


def _reference_problems(label: str, row: dict, references: dict[str, float]) -> list[str]:
    ref = references.get(label)
    j = _num(row, "j_exact")
    if ref is None:
        return [f"{label}: no reference value"]
    if j is None or not abs(j - ref) <= REFERENCE_RTOL * abs(ref):
        return [f"{label}: j_exact={j!r} differs from reference {ref!r} by more than rel {REFERENCE_RTOL}"]
    return []
