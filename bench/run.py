"""Benchmark of the ridlnoise CLI.

Usage:
    python3 bench/run.py --workload {report,exact-n64,simulate-grid16}
                         --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Runs from the root of a source tree holding ``src/ridlnoise``. Each
iteration starts one worker process (bench/worker.py) that imports the
CLI and runs the workload's commands one at a time (a closed loop with
one client); iterations repeat until ``--seconds`` have passed. Every
output is checked (bench/checks.py) and a command whose output bytes
differ from an earlier run with the same seed on the same source tree
counts as failed.

With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` iterations alternate untraced and traced, the per-layer
metrics come from the spans (bench/spans.py) and the tracing overhead is
the difference of the two medians. Standard
output ends with a provenance line and then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
STATE_FILE = BENCH_DIR / ".state" / "digests.json"
DEADLINE_S = 165.0  # a run must end within 180 s
MIN_ITERATIONS = 2
SETUP_ONLY_WORKERS = 3  # extra import-only set-ups per untraced run
MC_TARGET_SE = 0.01  # mc_time_to_se_s: seconds to a standard error of 0.01 on J
DETERMINISTIC_KINDS = ("report", "simulate")  # bit-for-bit per seed (ROADMAP contract)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio",
              "mc_time_to_se_s": "s"}

# per-layer metric -> (unit, span group of spans.LAYERS it is measured
# from). A metric whose group's functions the package no longer defines
# reads 0 and is listed as absent.
PER_LAYER = {
    "graphs.build_s": ("s", "graphs.build"),
    "graphs.build_calls": ("count", "graphs.build"),
    "graphs.er_accept_ratio": ("ratio", "graphs.build"),
    "graphs.spectrum_s": ("s", "graphs.spectrum"),
    "graphs.spectrum_calls": ("count", "graphs.spectrum"),
    "linalg.sym_eigen_s": ("s", "linalg.sym_eigen"),
    "linalg.sym_eigen_calls": ("count", "linalg.sym_eigen"),
    "ridl.operator_s": ("s", "ridl.operator"),
    "ridl.lkronl_s": ("s", "ridl.lkronl"),
    "ridl.operator_bytes": ("bytes", "ridl.operator"),
    "linalg.solve_s": ("s", "linalg.solve"),
    "linalg.solve_calls": ("count", "linalg.solve"),
    "linalg.solve_flops": ("flop", "linalg.solve"),
    "noise_index.report_s": ("s", "noise_index.report"),
    "noise_index.exact_s": ("s", "noise_index.exact"),
    "noise_index.bounds_s": ("s", "noise_index.bounds"),
    "simulator.estimate_s": ("s", "simulator.estimate"),
    "simulator.rep_steps": ("count", "simulator.estimate"),
    "simulator.ns_per_rep_step": ("ns", "simulator.estimate"),
    "simulator.useful_frac": ("ratio", "simulator.estimate"),
    "simulator.step_flops": ("flop", "simulator.estimate"),
    "simulator.rng_floor_s": ("s", "simulator.estimate"),
    "cli.total_s": ("s", None),
    "cli.self_s": ("s", None),
    "cli.render_s": ("s", "cli.render"),
    "cli.rows": ("count", None),
    "cli.output_bytes": ("bytes", None),
    "trace.overhead_s": ("s", None),
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the same commands at toy scale (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def source_sha256(src: Path) -> str:
    """Digest of the package sources, naming the program under test."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _worker_env() -> dict[str, str]:
    # RIDLNOISE_* variables would change the CLI's defaults
    return {k: v for k, v in os.environ.items() if not k.startswith("RIDLNOISE_")}


def run_worker(job_dir: Path, commands: list[list[str]], trace: bool, deadline: float) -> dict | None:
    """Run one worker process; its result, or None if it failed."""
    job_dir.mkdir(parents=True, exist_ok=True)
    result_path = job_dir / "result.json"
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps({"root": str(ROOT), "commands": commands, "trace": trace,
                                    "result": str(result_path)}))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(job_path)], cwd=ROOT,
                              env=_worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker timed out in {job_dir.name}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited {proc.returncode} in {job_dir.name}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    if proc.stderr.strip():
        print(proc.stderr[-2000:], file=sys.stderr)
    return json.loads(result_path.read_text())


class Run:
    """Iterations of one workload and what their checks found."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.references = checks.load_references(args.size)
        self.source = source_sha256(ROOT / "src")
        self.state = self._load_state()
        self.iterations: list[dict] = []
        self.setup_samples: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.runtime: dict = {}

    @staticmethod
    def _load_state() -> dict:
        try:
            return json.loads(STATE_FILE.read_text())
        except (OSError, ValueError):
            return {}

    def save_state(self) -> None:
        STATE_FILE.parent.mkdir(parents=True, exist_ok=True)
        tmp = STATE_FILE.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.state, indent=0, sort_keys=True))
        os.replace(tmp, STATE_FILE)

    def setup_only(self, count: int) -> None:
        for i in range(count):
            res = run_worker(self.work / f"setup{i}", [], False, self.deadline)
            if res is not None:
                self.setup_samples.append(res["import_s"])
                self.runtime = self.runtime or res["provenance"]

    def _deterministic(self, seed: int, cmd: workloads.Command, outcome: checks.Outcome) -> bool:
        """Same bytes as earlier runs of this command with this seed."""
        key = f"{self.source}:{self.args.size}:{self.args.workload}:{seed}:{cmd.label}"
        return self.state.setdefault(key, outcome.digest) == outcome.digest

    def iteration(self, traced: bool) -> dict:
        index = len(self.iterations)
        seed = iteration_seed(self.args.seed, index)
        it_dir = self.work / f"it{index}"
        cmds = workloads.commands(self.args.workload, seed, self.args.size, it_dir / "out")
        res = run_worker(it_dir, [list(c.argv) for c in cmds], traced, self.deadline)
        outcomes = []
        for k, cmd in enumerate(cmds):
            code = res["commands"][k]["exit_code"] if res is not None else -1
            outcome = checks.check_command(cmd, code, self.references)
            if code == 0 and cmd.kind in DETERMINISTIC_KINDS and not self._deterministic(seed, cmd, outcome):
                outcome.failed = outcome.attempted
                outcome.problems.append(
                    f"{cmd.label}: output bytes differ from an earlier run with seed {seed}")
            outcomes.append(outcome)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems.extend(outcome.problems)
        it = {"traced": traced, "ok": res is not None, "seed": seed, "commands": [c.argv for c in cmds]}
        if res is not None:
            self.runtime = self.runtime or res["provenance"]
            if not traced:
                self.setup_samples.append(res["import_s"])
            se = [o.std_error for o in outcomes if o.std_error is not None]
            it.update(wall_s=sum(c["wall_s"] for c in res["commands"]),
                      maxrss_kb=res["maxrss_kb"], std_error=max(se, default=0.0))
            if traced:
                it["layers"] = layer_metrics(res, outcomes)
                it["absent"] = res["absent"]
        shutil.rmtree(it_dir, ignore_errors=True)
        self.iterations.append(it)
        return it

    def measure(self) -> None:
        trace = bool(self.args.trace)
        if not trace:
            self.setup_only(SETUP_ONLY_WORKERS)
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            self.iteration(traced=trace and len(self.iterations) % 2 == 1)
            now = time.monotonic()
            took = now - t0
            # stop at the iteration boundary nearest to --seconds
            done = len(self.iterations) >= MIN_ITERATIONS and now + took / 2 >= start + self.args.seconds
            if done or now + 1.5 * took > self.deadline:
                return


def iteration_seed(seed: int, index: int) -> int:
    """Workload seed of iteration ``index``.

    The first two iterations share the run's seed, so the second checks
    that the output bytes repeat (and, traced, that tracing changes
    nothing). Later iterations get distinct seeds derived from it, so
    the Monte Carlo error in ``mc_time_to_se_s`` is pooled over several
    independent ensembles instead of one.
    """
    return seed if index < 2 else seed * 1000 + index - 1


def layer_metrics(res: dict, outcomes: list[checks.Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    summary = spans.summarize(res["spans"])
    groups = summary["groups"]

    def infos(name: str) -> list[dict]:
        return summary["info"].get(name, [])

    draws = infos("graphs.draw_erdos_renyi")
    attempts = sum(i["attempts"] for i in draws)
    sims = infos("simulator.estimate_noise_index")
    pilot = res["pilot"]
    total_reps = sum(s["ensemble"] + min(pilot, s["ensemble"]) for s in sims)
    rep_steps = sum((s["ensemble"] + min(pilot, s["ensemble"])) * s["horizon"] for s in sims)
    estimate_s = groups["simulator.estimate"]["self_s"]
    return {
        "graphs.build_s": groups["graphs.build"]["self_s"],
        "graphs.build_calls": groups["graphs.build"]["calls"],
        "graphs.er_accept_ratio": len(draws) / attempts if attempts else 0.0,
        "graphs.spectrum_s": groups["graphs.spectrum"]["self_s"],
        "graphs.spectrum_calls": groups["graphs.spectrum"]["calls"],
        "linalg.sym_eigen_s": groups["linalg.sym_eigen"]["self_s"],
        "linalg.sym_eigen_calls": groups["linalg.sym_eigen"]["calls"],
        "ridl.operator_s": groups["ridl.operator"]["self_s"],
        "ridl.lkronl_s": groups["ridl.lkronl"]["self_s"],
        "ridl.operator_bytes": sum(i["bytes"] for i in infos("ridl.k_operator_moments")),
        "linalg.solve_s": groups["linalg.solve"]["self_s"],
        "linalg.solve_calls": groups["linalg.solve"]["calls"],
        "linalg.solve_flops": sum(i["flops"] for i in infos("linalg.solve")),
        "noise_index.report_s": groups["noise_index.report"]["self_s"],
        "noise_index.exact_s": groups["noise_index.exact"]["self_s"],
        "noise_index.bounds_s": groups["noise_index.bounds"]["self_s"],
        "simulator.estimate_s": estimate_s,
        "simulator.rep_steps": rep_steps,
        "simulator.ns_per_rep_step": estimate_s / rep_steps * 1e9 if rep_steps else 0.0,
        "simulator.useful_frac": sum(s["ensemble"] for s in sims) / total_reps if total_reps else 0.0,
        "simulator.step_flops": sum(4.0 * s["n"] ** 2 * s["horizon"]
                                    * (s["ensemble"] + min(pilot, s["ensemble"])) for s in sims),
        "simulator.rng_floor_s": res["rng_floor_s"],
        "cli.total_s": summary["cli_total_s"],
        "cli.self_s": summary["cli_self_s"],
        "cli.render_s": groups["cli.render"]["self_s"],
        "cli.rows": sum(o.rows for o in outcomes),
        "cli.output_bytes": sum(o.output_bytes for o in outcomes),
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def results(run: Run) -> tuple[dict, dict]:
    """The result line's metrics and the provenance record."""
    timed = [it for it in run.iterations if it["ok"] and not it["traced"]]
    traced = [it for it in run.iterations if it["ok"] and it["traced"]]
    walls = [it["wall_s"] for it in timed]
    provenance = {
        "workload": run.args.workload, "seed": run.args.seed, "size": run.args.size,
        "trace": run.args.trace, "seconds": run.args.seconds,
        "benchmark_command": ["python3", "bench/run.py", *sys.argv[1:]],
        "commit": _git_commit(), "source_sha256": run.source,
        "commands": [" ".join(["ridlnoise", *argv]) for argv in run.iterations[0]["commands"]],
        "iterations": len(run.iterations), "wall_s_samples": walls,
        "setup_s_samples": run.setup_samples, "runtime": run.runtime,
        "tracing_overhead_s": None, "absent_metrics": [], "problems": run.problems[:20],
    }
    if not run.args.trace:
        ok_rate = (run.attempted - run.failed) / run.attempted
        # one squared standard error per distinct seed
        se2 = {it["seed"]: it["std_error"] ** 2 for it in timed}
        pooled_se2 = statistics.fmean(se2.values())
        metrics = {
            "wall_s": _median(walls),
            "setup_s": _median(run.setup_samples),
            "peak_rss_mb": _median([it["maxrss_kb"] * 1024 / 1e6 for it in timed]),
            "ok_rate": ok_rate,
            "mc_time_to_se_s": _median(walls) * max(1.0, pooled_se2 / MC_TARGET_SE**2),
        }
        units = END_TO_END
    else:
        metrics = {name: _median([it["layers"][name] for it in traced])
                   for name in PER_LAYER if name != "trace.overhead_s"}
        overhead = _median([it["wall_s"] for it in traced]) - _median(walls)
        metrics["trace.overhead_s"] = overhead
        provenance["tracing_overhead_s"] = overhead
        absent = set(traced[0]["absent"])
        gone = {group for group, (module, fns) in spans.LAYERS.items()
                if all(f"{module}.{fn}" in absent for fn in fns)}
        provenance["absent_metrics"] = [name for name, (_, group) in PER_LAYER.items() if group in gone]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, provenance


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ridlnoise" / "cli.py").is_file():
        print(f"no ridlnoise sources under {ROOT / 'src'}; run from a source tree", file=sys.stderr)
        return 2
    work = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    run = Run(args, work)
    try:
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        run.save_state()
    usable = [it for it in run.iterations if it["ok"]]
    if not any(not it["traced"] for it in usable) or (args.trace and not any(it["traced"] for it in usable)):
        print("no iteration completed; nothing to report", file=sys.stderr)
        return 1
    metrics, provenance = results(run)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
