"""Command-line front end.

Subcommands reproduce the family computations end to end: ``bounds``
(spectral and resistance bounds vs N), ``exact`` (adds the exact index
and the relative errors of both bounds), ``simulate`` (Monte Carlo
estimates), ``sweep-n`` (bound/exact curves over a node range),
``sweep-p`` (relative errors over the activation probability), and
``report`` (the full suite as a directory of CSVs plus a JSON manifest).

Output is CSV (12 significant digits, stable column order) or JSON with
identical field names. Every flag can also be supplied through an
environment variable with the ``RIDLNOISE_`` prefix, e.g.
``RIDLNOISE_BOUNDS_SIGMA2``. Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 I/O failure. A validation error, whether a bad
option value or invalid graph input such as a malformed or disconnected
``--graph-file`` edge list or an Erdos-Renyi draw that never comes out
connected, exits 2 with a one-line message on stderr.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import NumericalError
from .graphs import (
    UndirectedGraph,
    draw_erdos_renyi,
    laplacian_spectrum,
    make_complete,
    make_grid,
    make_path,
    make_star,
    read_edge_list,
)
from .noise_index import compute_noise_report
from .ridl import RidlConfig
from .simulator import SimConfig, default_horizon, estimate_noise_index

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

GRAPH_CHOICES = ("star", "path", "grid2d", "grid3d", "complete", "erdos-renyi", "file")
SWEEP_FAMILIES = ("star", "path", "grid2d", "grid3d", "complete", "erdos-renyi")

_COMMON_COLUMNS = [
    "family", "n_requested", "n", "dims", "p", "eps", "k", "sigma2",
    "d_max", "lambda2", "lambda_n", "r_ave",
    "p_er", "er_seed", "er_resamples", "realizations",
]
_BOUND_COLUMNS = ["j_lb", "j_ub", "j_res_lb", "j_res_ub", "j_lb_std", "j_ub_std"]
_EXACT_COLUMNS = ["n_exact", "j_exact", "rel_lb", "rel_ub", "j_exact_std"]
_SIM_COLUMNS = ["horizon", "ensemble", "noise", "seed", "j_hat", "std_error", "converged"]

#: stable per-command CSV schemas (header order is part of the contract)
COMMAND_COLUMNS = {
    "bounds": _COMMON_COLUMNS + _BOUND_COLUMNS,
    "exact": _COMMON_COLUMNS + _BOUND_COLUMNS + _EXACT_COLUMNS,
    "sweep-n": _COMMON_COLUMNS + _BOUND_COLUMNS + _EXACT_COLUMNS,
    "sweep-p": _COMMON_COLUMNS + _BOUND_COLUMNS + _EXACT_COLUMNS,
    "simulate": _COMMON_COLUMNS + _BOUND_COLUMNS + _EXACT_COLUMNS + _SIM_COLUMNS,
}

# aggregated across Erdos-Renyi realizations with the sample std
_STD_SOURCES = {"j_lb_std": "j_lb", "j_ub_std": "j_ub", "j_exact_std": "j_exact"}


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated run description shared by all subcommands."""

    command: str
    family: str
    n_values: tuple[int, ...]
    dims: tuple[int, ...] | None
    graph_file: str | None
    p_er: float | None
    realizations: int
    p: float
    epsilon: float | None
    k: float | None
    sigma2: float
    seed: int
    horizon: int | None
    ensemble: int
    noise: str
    output: str | None
    fmt: str
    strict: bool
    exact_cap: int | None  # exact index for N up to this; None: every N
    exact_n: int
    workers: int
    p_grid: tuple[float, ...] = ()
    families: tuple[str, ...] = ()


@dataclass
class GraphJob:
    family: str
    n_requested: int
    graph: UndirectedGraph
    dims: tuple[int, ...] | None = None
    p_er: float | None = None
    er_seed: int | None = None
    er_resamples: int | None = None
    p_override: float | None = None
    siblings: list["GraphJob"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# parsing and validation


def _parse_range(text: str, name: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise click.UsageError(f"{name} must look like A:B, got {text!r}")
    if lo > hi:
        raise click.UsageError(f"{name} must satisfy A <= B, got {text!r}")
    return lo, hi


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise click.UsageError(f"--dims must look like AxB or AxBxC, got {text!r}")
    if not (1 <= len(dims) <= 3):
        raise click.UsageError(f"--dims supports 1 to 3 sides, got {text!r}")
    return dims


def _parse_p_grid(text: str) -> tuple[float, ...]:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise click.UsageError(f"--p-grid must look like LO:HI:STEP, got {text!r}")
    if step <= 0 or lo > hi:
        raise click.UsageError(f"--p-grid bounds are inconsistent: {text!r}")
    count = int(round((hi - lo) / step)) + 1
    values = tuple(round(lo + i * step, 12) for i in range(count) if lo + i * step <= hi + 1e-12)
    return values


def _grid_dims_near(family: str, n: int) -> tuple[int, ...]:
    """Nearest perfect square/cube side for a requested node count."""
    k = 2 if family == "grid2d" else 3
    side = max(2, round(n ** (1.0 / k)))
    return (side,) * k


def _family_min_n(family: str) -> int:
    return {"star": 3, "path": 2, "complete": 2, "erdos-renyi": 2,
            "grid2d": 4, "grid3d": 8}.get(family, 2)


def _validate_spec(spec: ExperimentSpec) -> None:
    if (spec.epsilon is None) == (spec.k is None):
        raise click.UsageError("provide exactly one of --eps or --k")
    if spec.epsilon is not None and spec.epsilon <= 0:
        raise click.UsageError(f"--eps must be positive, got {spec.epsilon}")
    if spec.k is not None and not (0 < spec.k < 1):
        raise click.UsageError(f"--k must lie in (0, 1), got {spec.k}")
    if spec.p <= 0 or spec.p > 1:
        raise click.UsageError(f"--p must lie in (0, 1], got {spec.p}")
    if any(q <= 0 or q > 1 for q in spec.p_grid):
        raise click.UsageError("--p-grid values must lie in (0, 1]")
    if min(set(spec.p_grid) | {spec.p}) < 0.1:
        click.echo(
            "warning: activation probability below 0.1 mixes very slowly",
            err=True,
        )
    if spec.sigma2 < 0:
        raise click.UsageError(f"--sigma2 must be >= 0, got {spec.sigma2}")
    if spec.family == "erdos-renyi":
        if spec.p_er is None or not (0 < spec.p_er <= 1):
            raise click.UsageError("--p-er in (0, 1] is required for erdos-renyi graphs")
    if spec.realizations < 1:
        raise click.UsageError("--realizations must be >= 1")
    if spec.realizations > 1 and spec.family != "erdos-renyi":
        raise click.UsageError("--realizations only applies to erdos-renyi graphs")
    if spec.ensemble < 1 or (spec.horizon is not None and spec.horizon < 1):
        raise click.UsageError("--ensemble and --horizon must be >= 1")
    for fam in spec.families:
        if fam not in SWEEP_FAMILIES:
            raise click.UsageError(
                f"unknown family {fam!r}; choose from {', '.join(SWEEP_FAMILIES)}"
            )
    for n in spec.n_values:
        if n < _family_min_n(spec.family):
            raise click.UsageError(
                f"{spec.family} graphs need n >= {_family_min_n(spec.family)}, got {n}"
            )


def _resolve_n_values(
    family: str, n: int | None, n_range: str | None, dims: str | None,
    graph_file: str | None,
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    explicit_dims = _parse_dims(dims) if dims else None
    if family == "file":
        if n is not None or n_range is not None or explicit_dims is not None:
            raise click.UsageError("--graph file takes no --n/--n-range/--dims")
        if not graph_file:
            raise click.UsageError("--graph file requires --graph-file PATH")
        # the node count comes from the file, so size checks see the real N
        return (read_edge_list(graph_file).n,), None
    if explicit_dims is not None:
        if family not in ("grid2d", "grid3d"):
            raise click.UsageError("--dims only applies to grid graphs")
        want = 2 if family == "grid2d" else 3
        if len(explicit_dims) != want:
            raise click.UsageError(f"{family} needs {want} sides in --dims")
        if n is not None or n_range is not None:
            raise click.UsageError("give either --dims or --n/--n-range, not both")
        return (int(np.prod(explicit_dims)),), explicit_dims
    if (n is None) == (n_range is None):
        raise click.UsageError("provide exactly one of --n or --n-range (or --dims for grids)")
    if n is not None:
        return (n,), None
    lo, hi = _parse_range(n_range, "--n-range")
    return tuple(range(lo, hi + 1)), None


# ---------------------------------------------------------------------------
# job construction and row computation


def _make_family_graph(
    family: str, n: int, dims: tuple[int, ...] | None, spec: ExperimentSpec,
    realization: int = 0,
) -> GraphJob:
    if family == "star":
        return GraphJob(family, n, make_star(n))
    if family == "path":
        return GraphJob(family, n, make_path(n))
    if family == "complete":
        return GraphJob(family, n, make_complete(n))
    if family in ("grid2d", "grid3d"):
        d = dims if dims is not None else _grid_dims_near(family, n)
        return GraphJob(family, n, make_grid(d), dims=d)
    if family == "erdos-renyi":
        entropy = np.random.SeedSequence([spec.seed, n, realization])
        draw = draw_erdos_renyi(n, spec.p_er, np.random.default_rng(entropy))
        return GraphJob(
            family, n, draw.graph,
            p_er=spec.p_er, er_seed=spec.seed, er_resamples=draw.attempts,
        )
    if family == "file":
        g = read_edge_list(spec.graph_file)
        return GraphJob(family, g.n, g)
    raise click.UsageError(f"unknown graph family {family!r}")


def _jobs_for_spec(spec: ExperimentSpec) -> list[GraphJob]:
    """One job per output row; Erdos-Renyi realizations ride along as
    siblings and are aggregated into their row."""
    jobs = []
    for n in spec.n_values:
        job = _make_family_graph(spec.family, n, spec.dims, spec, realization=0)
        if spec.family == "erdos-renyi" and spec.realizations > 1:
            job.siblings = [
                _make_family_graph(spec.family, n, spec.dims, spec, realization=r)
                for r in range(1, spec.realizations)
            ]
        jobs.append(job)
    return jobs


def _config_for(job: GraphJob, spec: ExperimentSpec) -> RidlConfig:
    p = job.p_override if job.p_override is not None else spec.p
    try:
        return RidlConfig.for_graph(
            job.graph, p=p, sigma2=spec.sigma2, epsilon=spec.epsilon, k=spec.k
        )
    except ValueError as exc:
        raise click.UsageError(f"invalid configuration for n={job.graph.n}: {exc}")


def _single_row(job: GraphJob, spec: ExperimentSpec, exact_cap: int | None) -> dict:
    cfg = _config_for(job, spec)
    rep = compute_noise_report(job.graph, cfg, exact_cap=exact_cap)
    row = {
        "family": job.family,
        "n_requested": job.n_requested,
        "n": job.graph.n,
        "dims": "x".join(str(d) for d in job.dims) if job.dims else None,
        "p": cfg.p,
        "eps": cfg.epsilon,
        "k": cfg.k,
        "sigma2": cfg.sigma2,
        "d_max": job.graph.d_max,
        "lambda2": rep.lambda2,
        "lambda_n": rep.lambda_n,
        "r_ave": rep.r_ave,
        "p_er": job.p_er,
        "er_seed": job.er_seed,
        "er_resamples": job.er_resamples,
        "realizations": None,
        "j_lb": rep.j_lb,
        "j_ub": rep.j_ub,
        "j_res_lb": rep.j_res_lb,
        "j_res_ub": rep.j_res_ub,
        "j_lb_std": None,
        "j_ub_std": None,
        "n_exact": job.graph.n if rep.j_exact is not None else None,
        "j_exact": rep.j_exact,
        "rel_lb": (rep.j_exact - rep.j_lb) / rep.j_exact if rep.j_exact else None,
        "rel_ub": (rep.j_ub - rep.j_exact) / rep.j_exact if rep.j_exact else None,
        "j_exact_std": None,
    }
    return row


def _row_for_job(job: GraphJob, spec: ExperimentSpec, exact_cap: int | None) -> dict:
    row = _single_row(job, spec, exact_cap)
    if not job.siblings:
        if job.family == "erdos-renyi":
            row["realizations"] = 1
        return row
    sub_rows = [row] + [_single_row(s, spec, exact_cap) for s in job.siblings]
    agg = dict(row)
    mean_fields = [
        "lambda2", "lambda_n", "r_ave", "d_max", "n",
        "j_lb", "j_ub", "j_res_lb", "j_res_ub", "j_exact", "rel_lb", "rel_ub", "eps", "k",
    ]
    for name in mean_fields:
        vals = [r[name] for r in sub_rows]
        agg[name] = float(np.mean(vals)) if None not in vals else None
    for std_name, source in _STD_SOURCES.items():
        vals = [r[source] for r in sub_rows]
        agg[std_name] = float(np.std(vals, ddof=1)) if None not in vals else None
    agg["er_resamples"] = sum(r["er_resamples"] for r in sub_rows)
    agg["realizations"] = len(sub_rows)
    return agg


def _compute_rows(spec: ExperimentSpec, exact_cap: int | None) -> list[dict]:
    jobs = _jobs_for_spec(spec)
    if spec.workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            return list(pool.map(lambda j: _row_for_job(j, spec, exact_cap), jobs))
    return [_row_for_job(j, spec, exact_cap) for j in jobs]


def _simulate_row(job: GraphJob, spec: ExperimentSpec) -> dict:
    row = _row_for_job(job, spec, spec.exact_cap)
    cfg = _config_for(job, spec)
    horizon = spec.horizon or default_horizon(job.graph, cfg)
    sim = SimConfig(
        horizon=horizon, ensemble=spec.ensemble, noise_dist=spec.noise, seed=spec.seed
    )
    est = estimate_noise_index(job.graph, cfg, sim)
    row.update(
        horizon=horizon,
        ensemble=spec.ensemble,
        noise=spec.noise,
        seed=spec.seed,
        j_hat=est.j_hat,
        std_error=est.std_error,
        converged=est.converged,
    )
    return row


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def render_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Render rows to CSV (header + 12-significant-digit cells) or to a
    JSON array of row objects with the same field names."""
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(row.get(c)) for c in columns))
        return "\n".join(lines) + "\n"
    payload = [
        {c: (row.get(c) if not isinstance(row.get(c), np.integer) else int(row[c]))
         for c in columns}
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        click.echo(text, nl=False)
        return
    path = Path(output)
    try:
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        click.echo(f"I/O failure writing {output}: {exc}", err=True)
        sys.exit(EXIT_IO)


def _guard(fn):
    """Map library failures to the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except OSError as exc:
            click.echo(f"I/O failure: {exc}", err=True)
            sys.exit(EXIT_IO)
        except (click.UsageError, ValueError, RuntimeError) as exc:
            # option checks, and library input rejections such as a
            # disconnected graph or an Erdos-Renyi resampling budget that
            # runs out
            click.echo(f"invalid input: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# click wiring


def _graph_options(fn):
    decorators = [
        click.option("--graph", type=click.Choice(GRAPH_CHOICES), default="path",
                     show_default=True, help="Graph family (or 'file' with --graph-file)."),
        click.option("--graph-file", type=click.Path(), default=None,
                     help="Edge-list file: first line 'n m', then 'i j' lines."),
        click.option("--n", type=int, default=None, help="Node count."),
        click.option("--n-range", default=None, help="Inclusive node range A:B."),
        click.option("--dims", default=None, help="Grid sides AxB or AxBxC."),
        click.option("--p-er", type=float, default=0.8, show_default=True,
                     help="Erdos-Renyi edge probability."),
        click.option("--realizations", type=int, default=1, show_default=True,
                     help="Erdos-Renyi draws per N (mean and spread reported)."),
        click.option("--seed", type=int, default=0, show_default=True,
                     help="Master seed for graph draws and simulation."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def _config_options(fn):
    decorators = [
        click.option("--p", type=float, default=0.9, show_default=True,
                     help="Per-node activation probability."),
        click.option("--eps", type=float, default=None,
                     help="Step size (exactly one of --eps/--k)."),
        click.option("--k", type=float, default=None,
                     help="Normalized step size eps*d_max in (0,1)."),
        click.option("--sigma2", type=float, default=1.0, show_default=True,
                     help="Noise variance."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def _output_options(fn):
    decorators = [
        click.option("--output", default=None, help="Output path (default: stdout)."),
        click.option("--format", "fmt", type=click.Choice(("csv", "json")),
                     default="csv", show_default=True),
        click.option("--strict", is_flag=True,
                     help="Exit 3 when a Monte Carlo run fails the drift test."),
        click.option("--workers", type=int, default=min(4, os.cpu_count() or 1),
                     show_default=True, help="Worker threads for sweep points."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def _build_spec(command: str, params: dict) -> ExperimentSpec:
    n_values, dims = _resolve_n_values(
        params["graph"], params.get("n"), params.get("n_range"), params.get("dims"),
        params.get("graph_file"),
    )
    spec = ExperimentSpec(
        command=command,
        family=params["graph"],
        n_values=n_values,
        dims=dims,
        graph_file=params.get("graph_file"),
        p_er=params.get("p_er"),
        realizations=params.get("realizations", 1),
        p=params["p"],
        epsilon=params.get("eps"),
        k=params.get("k"),
        sigma2=params["sigma2"],
        seed=params.get("seed", 0),
        horizon=params.get("horizon"),
        ensemble=params.get("ensemble", 10000),
        noise=params.get("noise", "gaussian"),
        output=params.get("output"),
        fmt=params.get("fmt", "csv"),
        strict=params.get("strict", False),
        exact_cap=params.get("exact_cap"),
        exact_n=params.get("exact_n", 16),
        workers=max(1, params.get("workers", 1)),
        p_grid=params.get("p_grid", ()),
        families=params.get("families", ()),
    )
    _validate_spec(spec)
    return spec


@click.group()
@click.version_option(version=__version__)
def cli() -> None:
    """Noise index of randomized consensus with sampled Laplacian updates."""


@cli.command("bounds")
@_graph_options
@_config_options
@_output_options
@_guard
def bounds_cmd(**params) -> None:
    """Spectral and resistance bounds for each configuration."""
    spec = _build_spec("bounds", params)
    rows = _compute_rows(spec, exact_cap=0)
    _emit(render_rows(rows, COMMAND_COLUMNS["bounds"], spec.fmt), spec.output)


@cli.command("exact")
@_graph_options
@_config_options
@_output_options
@_guard
def exact_cmd(**params) -> None:
    """Exact index plus bound relative errors."""
    spec = _build_spec("exact", params)
    rows = _compute_rows(spec, exact_cap=None)
    _emit(render_rows(rows, COMMAND_COLUMNS["exact"], spec.fmt), spec.output)


@cli.command("sweep-n")
@_graph_options
@_config_options
@_output_options
@click.option("--exact-cap", type=int, default=24, show_default=True,
              help="Exact index computed for rows with N up to this cap.")
@_guard
def sweep_n_cmd(**params) -> None:
    """Bound curves over a node range; exact columns filled within the cap."""
    spec = _build_spec("sweep-n", params)
    rows = _compute_rows(spec, exact_cap=spec.exact_cap)
    _emit(render_rows(rows, COMMAND_COLUMNS["sweep-n"], spec.fmt), spec.output)


@cli.command("sweep-p")
@_graph_options
@_config_options
@_output_options
@click.option("--families", default=",".join(SWEEP_FAMILIES), show_default=True,
              help="Comma-separated families to sweep.")
@click.option("--p-grid", default="0.1:0.9:0.1", show_default=True,
              help="Activation probability grid LO:HI:STEP.")
@click.option("--exact-n", type=int, default=16, show_default=True,
              help="Reduced N used for the exact index when N exceeds it.")
@_guard
def sweep_p_cmd(**params) -> None:
    """Relative bound errors vs activation probability at fixed N.

    When the requested N exceeds --exact-n, the exact index (and the
    relative errors) are computed on the same family at the reduced
    size, recorded in the n_exact column.
    """
    params = dict(params)
    params["p_grid"] = _parse_p_grid(params.get("p_grid") or "0.1:0.9:0.1")
    params["families"] = tuple(
        f.strip() for f in (params.get("families") or "").split(",") if f.strip()
    )
    sized = any(params.get(key) is not None for key in ("n", "n_range", "dims"))
    if not sized and params["graph"] != "file":
        params["n"] = 100
    spec = _build_spec("sweep-p", params)
    n_fixed = spec.n_values[0]
    rows = _sweep_p_rows(spec, [(fam, n_fixed) for fam in spec.families or (spec.family,)])
    _emit(render_rows(rows, COMMAND_COLUMNS["sweep-p"], spec.fmt), spec.output)


def _sweep_p_rows(spec: ExperimentSpec, sizes: list[tuple[str, int]]) -> list[dict]:
    """One row per (family, p) at the family's given N; the exact columns
    come from the same family at min(N, --exact-n), recorded in n_exact."""
    rows = []
    for family, n in sizes:
        for p in spec.p_grid:
            fam_spec = replace(spec, family=family, p=p, n_values=(n,))
            row = _row_for_job(_jobs_for_spec(fam_spec)[0], fam_spec, exact_cap=0)
            n_exact = min(n, spec.exact_n)
            if n_exact >= _family_min_n(family):
                exact_spec = replace(fam_spec, n_values=(n_exact,))
                exact_job = _jobs_for_spec(exact_spec)[0]
                exact_row = _row_for_job(exact_job, exact_spec, exact_cap=spec.exact_n)
                row.update({c: exact_row[c] for c in _EXACT_COLUMNS})
            rows.append(row)
    return rows


@cli.command("simulate")
@_graph_options
@_config_options
@_output_options
@click.option("--horizon", type=int, default=None,
              help="Steps per trajectory (default: spectral-gap rule).")
@click.option("--ensemble", type=int, default=10000, show_default=True,
              help="Independent replications.")
@click.option("--noise", type=click.Choice(("gaussian", "rademacher", "uniform")),
              default="gaussian", show_default=True)
@click.option("--exact-cap", type=int, default=24, show_default=True,
              help="Exact/bound reference columns filled for N up to this cap.")
@_guard
def simulate_cmd(**params) -> None:
    """Monte Carlo estimate with standard error and convergence flag."""
    spec = _build_spec("simulate", params)
    jobs = _jobs_for_spec(spec)
    rows = [_simulate_row(job, spec) for job in jobs]
    _emit(render_rows(rows, COMMAND_COLUMNS["simulate"], spec.fmt), spec.output)
    if spec.strict and any(not r["converged"] for r in rows):
        click.echo(
            "drift test failed for at least one row (strict mode); raise --horizon",
            err=True,
        )
        sys.exit(EXIT_NUMERICAL)


@cli.command("report")
@click.option("--output", required=True, help="Output directory for CSVs and manifest.")
@click.option("--p", type=float, default=0.9, show_default=True)
@click.option("--k", type=float, default=0.8, show_default=True)
@click.option("--sigma2", type=float, default=1.0, show_default=True)
@click.option("--p-er", type=float, default=0.8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-range", default="3:100", show_default=True)
@click.option("--sweep-p-n", type=int, default=100, show_default=True,
              help="Fixed N for the activation-probability sweeps.")
@click.option("--exact-cap", type=int, default=24, show_default=True)
@click.option("--exact-n", type=int, default=16, show_default=True)
@click.option("--realizations", type=int, default=1, show_default=True)
@click.option("--workers", type=int, default=min(4, os.cpu_count() or 1), show_default=True)
@_guard
def report_cmd(**params) -> None:
    """Full reproduction suite: per-family sweep-n and sweep-p CSVs plus a
    JSON manifest with seeds, versions, and wall-clock times.

    A family whose smallest graph is larger than the top of --n-range has
    no rows in the range: its sweep-n file is not written, the family is
    listed under the manifest's "skipped" key, and a note goes to stderr.
    """
    out_dir = Path(params["output"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"I/O failure creating {out_dir}: {exc}", err=True)
        sys.exit(EXIT_IO)
    t_start = time.time()
    manifest_files = {}
    skipped = []
    n_lo, n_hi = _parse_range(params["n_range"], "--n-range")
    base = dict(
        graph="path", graph_file=None, n=None, n_range=params["n_range"], dims=None,
        p_er=params["p_er"], realizations=1, seed=params["seed"], p=params["p"],
        eps=None, k=params["k"], sigma2=params["sigma2"], output=None, fmt="csv",
        strict=False, workers=params["workers"], exact_cap=params["exact_cap"],
        exact_n=params["exact_n"],
    )
    for family in SWEEP_FAMILIES:
        t0 = time.time()
        fam_params = dict(base, graph=family)
        if family == "erdos-renyi":
            fam_params["realizations"] = params["realizations"]
        lo = max(n_lo, _family_min_n(family))
        if lo > n_hi:
            skipped.append(family)
            click.echo(
                f"skipping {family}_sweep_n.csv: {family} graphs need n >= {lo}, "
                f"above --n-range {params['n_range']}",
                err=True,
            )
            continue
        fam_params["n_range"] = f"{lo}:{n_hi}"
        spec = _build_spec("sweep-n", fam_params)
        rows = _compute_rows(spec, exact_cap=spec.exact_cap)
        text = render_rows(rows, COMMAND_COLUMNS["sweep-n"], "csv")
        name = f"{family}_sweep_n.csv"
        (out_dir / name).write_text(text)
        manifest_files[name] = {
            "rows": len(rows),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "seconds": round(time.time() - t0, 3),
        }
    t0 = time.time()
    sweep_params = dict(base, n=params["sweep_p_n"], n_range=None)
    sweep_params["p_grid"] = _parse_p_grid("0.1:0.9:0.1")
    spec = _build_spec("sweep-p", sweep_params)
    rows = _sweep_p_rows(
        spec, [(fam, max(params["sweep_p_n"], _family_min_n(fam))) for fam in SWEEP_FAMILIES]
    )
    text = render_rows(rows, COMMAND_COLUMNS["sweep-p"], "csv")
    (out_dir / "sweep_p.csv").write_text(text)
    manifest_files["sweep_p.csv"] = {
        "rows": len(rows),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seconds": round(time.time() - t0, 3),
    }
    manifest = {
        "package": "ridlnoise",
        "version": __version__,
        "seed": params["seed"],
        "parameters": {
            key: params[key]
            for key in ("p", "k", "sigma2", "p_er", "n_range", "sweep_p_n",
                        "exact_cap", "exact_n", "realizations")
        },
        "files": manifest_files,
        "skipped": skipped,
        "total_seconds": round(time.time() - t_start, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    click.echo(f"report written to {out_dir} ({len(manifest_files)} data files)")


def main() -> None:
    cli(auto_envvar_prefix="RIDLNOISE")


if __name__ == "__main__":
    main()
