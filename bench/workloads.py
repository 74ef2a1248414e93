"""The CLI commands each benchmark workload runs, at full and tiny size.

One workload iteration is a list of commands that a single worker
process runs one after another (a closed loop). ``tiny`` sizes keep the
same commands at toy scale for the smoke test.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("report", "exact-n64", "simulate-grid16")
SIZES = ("full", "tiny")

# Lowest node count the CLI builds per family; ``report`` clamps each
# family's N range to it, which fixes how many rows each CSV carries.
FAMILY_MIN_N = {"star": 3, "path": 2, "grid2d": 4, "grid3d": 8, "complete": 2, "erdos-renyi": 2}
SWEEP_P_ROWS_PER_FAMILY = 9  # the report's fixed p grid 0.1:0.9:0.1

# Ensemble size for ``simulate-grid16``: several seconds per command on
# a 2-core box. The horizon is the spectral-gap rule's value at the seed
# commit (738 for 16x16, 47 for 4x4), pinned so the work per run is fixed.
SIM_FULL = {"dims": "16x16", "horizon": 738, "ensemble": 300}
SIM_TINY = {"dims": "4x4", "horizon": 47, "ensemble": 40}

REPORT_TINY_N_RANGE = (3, 10)
EXACT_FULL = (("star", ["--n", "64"]), ("grid2d", ["--dims", "8x8"]), ("complete", ["--n", "64"]))
EXACT_TINY = (("star", ["--n", "9"]), ("grid2d", ["--dims", "3x3"]), ("complete", ["--n", "9"]))
EXACT_P = ("0.3", "0.9")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and where its output lands.

    ``output`` is a file for ``exact``/``simulate`` and a directory for
    ``report``. ``expected_rows`` maps each output CSV name to its row
    count; ``label`` keys the reference values of ``exact`` commands.
    """

    kind: str
    label: str
    argv: tuple[str, ...]
    output: Path
    expected_rows: dict[str, int]


def _report_rows(lo: int, hi: int) -> dict[str, int]:
    rows = {f"{fam}_sweep_n.csv": hi - max(lo, n_min) + 1 for fam, n_min in FAMILY_MIN_N.items()}
    rows["sweep_p.csv"] = SWEEP_P_ROWS_PER_FAMILY * len(FAMILY_MIN_N)
    return rows


def commands(workload: str, seed: int, size: str, out_dir: Path) -> list[Command]:
    """The commands of one iteration of ``workload``, writing under ``out_dir``."""
    tiny = size == "tiny"
    if workload == "report":
        out = out_dir / "report"
        argv = ["report", "--output", str(out), "--seed", str(seed)]
        lo, hi = REPORT_TINY_N_RANGE if tiny else (3, 100)
        if tiny:
            argv += ["--n-range", f"{lo}:{hi}", "--sweep-p-n", str(hi)]
        return [Command("report", "report", tuple(argv), out, _report_rows(lo, hi))]
    if workload == "exact-n64":
        cmds = []
        for family, size_args in EXACT_TINY if tiny else EXACT_FULL:
            for p in EXACT_P:
                label = f"{family}-p{p}"
                out = out_dir / f"exact-{label}.csv"
                argv = ["exact", "--graph", family, *size_args, "--k", "0.8", "--p", p,
                        "--output", str(out)]
                cmds.append(Command("exact", label, tuple(argv), out, {out.name: 1}))
        return cmds
    if workload == "simulate-grid16":
        sim = SIM_TINY if tiny else SIM_FULL
        out = out_dir / "simulate.csv"
        argv = ["simulate", "--graph", "grid2d", "--dims", sim["dims"], "--k", "0.8",
                "--p", "0.9", "--horizon", str(sim["horizon"]),
                "--ensemble", str(sim["ensemble"]), "--seed", str(seed), "--output", str(out)]
        return [Command("simulate", "simulate", tuple(argv), out, {out.name: 1})]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
