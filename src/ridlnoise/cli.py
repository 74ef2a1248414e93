"""Command-line front end.

Four subcommands reproduce the family computations end to end:
``bounds`` (spectral and resistance bounds), ``exact`` (adds the exact
index and the relative errors of both bounds), ``simulate`` (Monte Carlo
estimates) and ``report`` (the full suite as a directory of CSVs plus a
JSON manifest).

A ``simulate`` row runs the dynamics to a horizon T, by default the
smallest with ``bias_bound`` = nu_max^T <= 1e-4, where nu_max^T bounds the
estimate's relative bias (``ridlnoise.simulator``); ``converged`` is
bias_bound < 1e-3.

``--graph`` and ``--p`` repeat on ``bounds``, ``exact`` and ``simulate``,
and every table has one row per family x N x p, in that order, where N
runs over ``--n``, one count N or an inclusive range A:B. So a sweep over
N is ``--n A:B`` and a sweep over p is one ``--p`` per point.

The command decides which rows carry the exact index, and its schema
shows it: ``exact``, whose columns include ``j_exact``, solves every row,
and ``bounds`` and ``simulate`` never solve. The one size rule is the
report's: a row of its per-family ``*_sweep_n.csv`` tables gets
``j_exact`` when its built graph has N <= ``EXACT_MAX_N`` (24). For exact
values at any N, run ``exact --n N`` or ``exact --n A:B``.

Output is CSV (12 significant digits, stable column order) or JSON with
identical field names. Every input is a command-line option; no
environment variable changes a run. ``--help`` shows each numeric
option's range, such as 0<x<=1 for ``--p``; a value outside it, a nan or
an infinity exits 2.

Exit codes: 0 success, 1 interrupted (Ctrl-C; stderr is an empty line
and ``Aborted!``), 2 validation error, 3 numerical failure (including an
eigensolver that does not converge, and running out of memory), 4 I/O
failure. Every other failure prints one line on stderr, click's
own parse errors (an unknown option or command, a missing or malformed
value) included; only ``ridlnoise`` with no arguments prints the help
(and exits 2). Beside a bad option value, a ``--sigma2`` and step whose
index bounds fall outside the floating-point range (overflow, or
underflow to 0), an option that the chosen families would ignore
(``--p-er``, and ``--seed`` but on ``simulate``, with no Erdos-Renyi
family), a ``--graph-file`` beside ``--graph``, ``--n`` or ``--dims``,
an ``--n`` range too long to hold in memory, and invalid graph input such
as a malformed or disconnected ``--graph-file`` edge list or an
Erdos-Renyi draw that never comes out connected exit 2.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np
import scipy
from click.core import ParameterSource

from . import __version__
from .errors import NumericalError
from .graphs import (
    UndirectedGraph,
    draw_erdos_renyi,
    make_complete,
    make_grid,
    make_path,
    make_star,
    read_edge_list,
)
from .noise_index import compute_noise_report
from .ridl import RidlConfig
from .simulator import SimConfig

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SWEEP_FAMILIES = ("star", "path", "grid2d", "grid3d", "complete", "erdos-renyi")

#: largest built graph whose rows of the report's per-family sweep-n
#: tables get the exact index; every other table solves all rows or none
EXACT_MAX_N = 24

#: activation probabilities of the report's sweep_p.csv
REPORT_P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_COMMON_COLUMNS = [
    "family", "n_requested", "n", "dims", "p", "eps", "k", "sigma2",
    "d_max", "lambda2", "lambda_n", "r_ave",
    "p_er", "er_seed", "er_resamples", "realizations",
]
_BOUND_COLUMNS = ["j_lb", "j_ub", "j_res_lb", "j_res_ub", "j_lb_std", "j_ub_std"]
_EXACT_COLUMNS = ["n_exact", "j_exact", "rel_lb", "rel_ub", "j_exact_std"]
_SIM_COLUMNS = ["horizon", "ensemble", "seed", "j_hat", "std_error", "converged",
                "bias_bound", "mf_corr"]

#: stable per-command CSV schemas (header order is part of the contract)
COMMAND_COLUMNS = {
    "bounds": _COMMON_COLUMNS + _BOUND_COLUMNS,
    "exact": _COMMON_COLUMNS + _BOUND_COLUMNS + _EXACT_COLUMNS,
    "simulate": _COMMON_COLUMNS + _BOUND_COLUMNS + _SIM_COLUMNS,
}

# aggregated across Erdos-Renyi realizations, which share n: the mean of
# these columns, and the sample std of the _STD_SOURCES
_MEAN_COLUMNS = ("lambda2", "lambda_n", "r_ave", "d_max", "j_lb", "j_ub", "j_res_lb",
                 "j_res_ub", "j_exact", "rel_lb", "rel_ub", "eps", "k")
_STD_SOURCES = {"j_lb_std": "j_lb", "j_ub_std": "j_ub", "j_exact_std": "j_exact"}

#: smallest node count each family builds
_FAMILY_MIN_N = {"star": 3, "path": 2, "grid2d": 4, "grid3d": 8, "complete": 2,
                 "erdos-renyi": 2, "file": 2}


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one output table: a row per graph x p,
    where ``graphs`` lists (family, requested N) pairs in row order."""

    graphs: tuple[tuple[str, int], ...]
    p_values: tuple[float, ...]
    dims: tuple[int, ...] | None
    graph: UndirectedGraph | None  # the parsed --graph-file
    p_er: float
    realizations: int
    epsilon: float | None
    k: float | None
    sigma2: float
    seed: int
    sim: SimConfig | None = None  # simulate only; set, it adds Monte Carlo columns


# ---------------------------------------------------------------------------
# parsing and validation

_INT = r"\s*[+-]?\d+\s*"


def _platform_int(value: int, name: str) -> int:
    """``value``, or a usage error naming ``name`` when it lies beyond the
    platform's index range (``sys.maxsize``)."""
    if abs(value) > sys.maxsize:
        raise click.UsageError(f"{name} is too large for this platform, got {value}")
    return value


def _node_counts(text: str, name: str) -> tuple[int, ...]:
    """The node counts of ``N`` (N:N) or of the inclusive range ``A:B``."""
    if not re.fullmatch(f"{_INT}(?::{_INT})?", text):
        raise click.UsageError(f"{name} must look like N or A:B, got {text!r}")
    parts = [_platform_int(int(part), name) for part in text.split(":")]
    lo, hi = parts[0], parts[-1]
    if lo > hi:
        raise click.UsageError(f"{name} must satisfy A <= B, got {text!r}")
    try:  # a range too long to hold fails its size check before allocating
        return tuple(range(lo, hi + 1))
    except MemoryError:
        raise click.UsageError(f"{name} {text} does not fit in memory") from None


def _parse_dims(text: str) -> tuple[int, ...]:
    if not re.fullmatch(f"{_INT}(?:x{_INT})*", text.lower()):
        raise click.UsageError(f"--dims must look like AxB or AxBxC, got {text!r}")
    dims = tuple(int(part) for part in text.lower().split("x"))
    if not (1 <= len(dims) <= 3):
        raise click.UsageError(f"--dims supports 1 to 3 sides, got {text!r}")
    return dims


def _grid_dims_near(family: str, n: int) -> tuple[int, ...]:
    """Nearest perfect square/cube side for a requested node count."""
    k = 2 if family == "grid2d" else 3
    side = max(2, round(n ** (1.0 / k)))
    return (side,) * k


def _validate_spec(spec: ExperimentSpec) -> None:
    """Check the rules that span options or the graph list; each option's
    own range is its click type's."""
    if (spec.epsilon is None) == (spec.k is None):
        raise click.UsageError("provide exactly one of --eps or --k")
    name, step = ("--eps", spec.epsilon) if spec.k is None else ("--k", spec.k)
    for p in spec.p_values:
        # eps p^2 <= k p^2; RidlConfig rejects the rest once d_max is known
        if step * p**2 < np.finfo(float).tiny:
            raise click.UsageError(
                f"step size is too small: {name} * p^2 = {step * p**2:.6g} underflows at p={p}"
            )
    if spec.realizations > 1 and {family for family, _ in spec.graphs} != {"erdos-renyi"}:
        raise click.UsageError("--realizations only applies to erdos-renyi graphs")
    for family, n in spec.graphs:
        if n < _FAMILY_MIN_N[family]:
            raise click.UsageError(f"{family} graphs need n >= {_FAMILY_MIN_N[family]}, got {n}")


def _warn_slow_mixing(p_values) -> None:
    if min(p_values) < 0.1:
        click.echo("warning: activation probability below 0.1 mixes very slowly", err=True)


def _resolve_sizes(
    families: tuple[str, ...], params: dict
) -> tuple[tuple[int, ...], tuple[int, ...] | None, UndirectedGraph | None]:
    """Node counts, grid sides and the parsed --graph-file of a table."""
    if params["graph_file"]:
        # the node count comes from the file, so size checks see the real N
        graph = read_edge_list(params["graph_file"])
        return (graph.n,), None, graph
    if (params["n"] is None) == (params["dims"] is None):
        raise click.UsageError("give either --dims or --n")
    if params["n"] is not None:
        return _node_counts(params["n"], "--n"), None, None
    dims = _parse_dims(params["dims"])
    for fam in families:
        if fam not in ("grid2d", "grid3d"):
            raise click.UsageError("--dims only applies to grid graphs")
        want = 2 if fam == "grid2d" else 3
        if len(dims) != want:
            raise click.UsageError(f"{fam} needs {want} sides in --dims")
    return (_platform_int(math.prod(dims), "--dims"),), dims, None


def _build_spec(params: dict) -> ExperimentSpec:
    """The validated spec of a table command's options."""
    ctx = click.get_current_context()
    families = params["graph"]
    if params["graph_file"]:
        if (ctx.get_parameter_source("graph") is not ParameterSource.DEFAULT
                or params["n"] is not None or params["dims"] is not None):
            raise click.UsageError("--graph-file takes no --graph/--n/--dims")
        families = ("file",)
    if "erdos-renyi" not in families:
        # simulate's Monte Carlo reads --seed on every family
        for name in ("p_er",) if "ensemble" in params else ("p_er", "seed"):
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                option = "--" + name.replace("_", "-")
                raise click.UsageError(f"{option} only applies to erdos-renyi graphs")
    n_values, dims, graph = _resolve_sizes(families, params)
    spec = ExperimentSpec(
        graphs=tuple((family, n) for family in families for n in n_values),
        p_values=params["p"],
        dims=dims,
        graph=graph,
        p_er=params["p_er"],
        realizations=params.get("realizations", 1),
        epsilon=params["eps"],
        k=params["k"],
        sigma2=params["sigma2"],
        seed=params["seed"],
        sim=(SimConfig(horizon=params["horizon"], ensemble=params["ensemble"],
                       seed=params["seed"]) if "ensemble" in params else None),
    )
    _validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# graph construction and row computation


def _make_family_graph(
    family: str, n: int, spec: ExperimentSpec, realization: int = 0
) -> tuple[UndirectedGraph, dict]:
    """The graph of one family at a requested N and its row cells, the same at every p."""
    cells = {"family": family, "n_requested": n}
    if family in ("grid2d", "grid3d"):
        dims = spec.dims if spec.dims is not None else _grid_dims_near(family, n)
        graph = make_grid(dims)
        cells["dims"] = "x".join(str(side) for side in dims)
    elif family == "erdos-renyi":
        entropy = np.random.SeedSequence([spec.seed, n, realization])
        draw = draw_erdos_renyi(n, spec.p_er, np.random.default_rng(entropy))
        graph = draw.graph
        cells.update(p_er=spec.p_er, er_seed=spec.seed, er_resamples=draw.attempts, realizations=1)
    elif family == "file":
        graph = spec.graph
    else:  # the builders are looked up per call, so a patched one is the one called
        graph = {"star": make_star, "path": make_path, "complete": make_complete}[family](n)
    return graph, {**cells, "n": graph.n, "d_max": graph.d_max}


def _single_row(
    graph: UndirectedGraph, cells: dict, spec: ExperimentSpec, p: float, exact: bool
) -> dict:
    """The row of one graph at p: its graph cells, then what depends on p.
    Its one RidlConfig also drives the Monte Carlo columns when the spec
    sets a SimConfig."""
    # the one limit that depends on the built graph: eps < 1/d_max (an
    # edgeless graph, d_max = 0, is rejected by RidlConfig.for_graph)
    if spec.epsilon is not None and graph.d_max and not spec.epsilon < 1.0 / graph.d_max:
        raise click.UsageError(
            f"invalid configuration for n={graph.n}: --eps must be below "
            f"1/d_max = {1.0 / graph.d_max:.6g}, got {spec.epsilon}"
        )
    cfg = RidlConfig.for_graph(graph, p=p, sigma2=spec.sigma2, epsilon=spec.epsilon, k=spec.k)
    rep = compute_noise_report(graph, cfg, exact=exact, sim=spec.sim)
    j = rep.exact.j if rep.exact is not None else None
    row = {
        **cells,
        "p": cfg.p,
        "eps": cfg.epsilon,
        "k": cfg.k,
        "sigma2": cfg.sigma2,
        "lambda2": rep.lambda2,
        "lambda_n": rep.lambda_n,
        "r_ave": rep.r_ave,
        "j_lb": rep.j_lb,
        "j_ub": rep.j_ub,
        "j_res_lb": rep.j_res_lb,
        "j_res_ub": rep.j_res_ub,
        "n_exact": graph.n if rep.exact is not None else None,
        "j_exact": j,
        "rel_lb": (j - rep.j_lb) / j if j else None,
        "rel_ub": (rep.j_ub - j) / j if j else None,
    }
    if rep.estimate is not None:
        row.update(asdict(rep.estimate), ensemble=spec.sim.ensemble, seed=spec.sim.seed)
    return row


def _aggregate(rows: list[dict]) -> dict:
    """The row of one N and p, folded from its realizations' rows."""
    if len(rows) == 1:
        return rows[0]
    agg = dict(rows[0])
    for name in _MEAN_COLUMNS:
        vals = [r[name] for r in rows]
        agg[name] = float(np.mean(vals)) if None not in vals else None
    for std_name, source in _STD_SOURCES.items():
        vals = [r[source] for r in rows]
        agg[std_name] = float(np.std(vals, ddof=1)) if None not in vals else None
    agg["er_resamples"] = sum(r["er_resamples"] for r in rows)
    agg["realizations"] = len(rows)
    return agg


def _compute_rows(spec: ExperimentSpec, exact_max_n: float) -> list[dict]:
    """One row per graph x p, in that order, with the exact index where
    the built graph has N <= ``exact_max_n`` and the Monte Carlo columns
    when the spec sets a SimConfig. Each graph is built once, and only
    the realizations of one family and N are alive at a time."""
    rows = []
    for family, n in spec.graphs:
        # several draws only for Erdos-Renyi, which --realizations requires
        built = [_make_family_graph(family, n, spec, r) for r in range(spec.realizations)]
        exact = built[0][0].n <= exact_max_n
        rows += [_aggregate([_single_row(graph, cells, spec, p, exact) for graph, cells in built])
                 for p in spec.p_values]
    return rows


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None  # JSON has no infinity or nan
    return value


def render_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Render rows to CSV (header + 12-significant-digit cells) or to a
    JSON array of row objects with the same field names, where a
    non-finite number is null."""
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(row.get(c)) for c in columns))
        return "\n".join(lines) + "\n"
    payload = [{c: _json_cell(row.get(c)) for c in columns} for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        click.echo(text, nl=False)
        return
    path = Path(output)
    if not path.parent.exists():
        path.parent.mkdir(parents=True)
    path.write_text(text)


# ---------------------------------------------------------------------------
# click wiring

_NO_ARGS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


class _Cli(click.Group):
    """The command group whose ``main`` maps every failure, click's own
    parse errors included, to its documented exit code and one line on
    stderr: the one place that does, so a command raises and never exits
    on an error itself."""

    def main(self, args=None, prog_name=None, **extra):
        try:
            # None from a command, or 0 after --help and --version
            sys.exit(super().main(args, prog_name, **{**extra, "standalone_mode": False}) or 0)
        except _NO_ARGS_HELP as exc:  # bare ``ridlnoise``, from click 8.2 on
            exc.show()
            sys.exit(exc.exit_code)
        except (NumericalError, MemoryError) as exc:
            # numpy's MemoryError names the allocation; a bare one says nothing
            line, code = f"numerical failure: {str(exc) or 'out of memory'}", EXIT_NUMERICAL
        except OSError as exc:
            line, code = f"I/O failure: {exc}", EXIT_IO
        except click.ClickException as exc:
            # the option types and checks, and click's parse errors
            line, code = f"invalid input: {exc.format_message()}", exc.exit_code
        except (ValueError, OverflowError) as exc:
            # library input rejections such as a disconnected graph, a malformed
            # --graph-file, or an Erdos-Renyi resampling budget that runs out
            line, code = f"invalid input: {exc}", EXIT_VALIDATION
        except click.Abort:
            line, code = "Aborted!", 1
        click.echo(line, err=True)
        sys.exit(code)


class _Interval(click.FloatRange):
    """A range of finite floats: click's own lets nan through, and
    infinity past an open end."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not in the range {self._describe_range()}.", param, ctx)
        return value


_PROBABILITY = _Interval(0, 1, min_open=True)
_K = _Interval(0, 1, min_open=True, max_open=True)
_SIGMA2 = _Interval(0)
_SEED = click.IntRange(min=0)
_COUNT = click.IntRange(1, sys.maxsize)  # sizes a loop, so within the platform's index range


def _options(*decorators):
    """Apply click options so that they list in the given order."""

    def apply(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn

    return apply


_GRAPH_OPTIONS = (
    click.option("--graph", type=click.Choice(SWEEP_FAMILIES), multiple=True,
                 default=("path",), show_default=True,
                 help="Graph family, repeatable: rows go family by family."),
    click.option("--graph-file", type=click.Path(), default=None,
                 help="Edge-list graph instead of --graph/--n/--dims, family 'file': "
                      "first line 'n m', then 'i j' lines."),
    click.option("--n", default=None, help="Node count N, or an inclusive range A:B."),
    click.option("--dims", default=None, help="Grid sides AxB or AxBxC."),
    click.option("--p-er", type=_PROBABILITY, default=0.8, show_default=True,
                 help="Erdos-Renyi edge probability."),
    click.option("--seed", type=_SEED, default=0, show_default=True,
                 help="Master seed for graph draws and simulation."),
)
_REALIZATIONS_OPTION = click.option(
    "--realizations", type=_COUNT, default=1, show_default=True,
    help="Erdos-Renyi draws per N (mean and spread reported).",
)
_P_OPTION = click.option("--p", type=_PROBABILITY, multiple=True, default=(0.9,),
                         show_default=True, help="Per-node activation probability, "
                         "repeatable: each graph gets one row per --p, in the given order.")
_STEP_OPTIONS = (
    click.option("--eps", type=_Interval(0, min_open=True), default=None,
                 help="Step size (exactly one of --eps/--k)."),
    click.option("--k", type=_K, default=None,
                 help="Normalized step size eps*d_max in (0,1)."),
    click.option("--sigma2", type=_SIGMA2, default=1.0, show_default=True,
                 help="Noise variance."),
)
_OUTPUT_OPTIONS = (
    click.option("--output", default=None, help="Output path (default: stdout)."),
    click.option("--format", "fmt", type=click.Choice(("csv", "json")),
                 default="csv", show_default=True),
)
_TABLE_OPTIONS = (*_GRAPH_OPTIONS, _REALIZATIONS_OPTION, _P_OPTION, *_STEP_OPTIONS,
                  *_OUTPUT_OPTIONS)


def _run_table(command: str, params: dict) -> None:
    spec = _build_spec(params)
    # a command solves every row or none, as its schema says
    rows = _compute_rows(spec, math.inf if "j_exact" in COMMAND_COLUMNS[command] else 0)
    _emit(render_rows(rows, COMMAND_COLUMNS[command], params["fmt"]), params["output"])
    # last, so that a run that fails writes its one error line alone
    _warn_slow_mixing(spec.p_values)


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def cli() -> None:
    """Noise index of randomized consensus with sampled Laplacian updates."""


@cli.command("bounds")
@_options(*_TABLE_OPTIONS)
def bounds_cmd(**params) -> None:
    """Spectral and resistance bounds for each configuration."""
    _run_table("bounds", params)


@cli.command("exact")
@_options(*_TABLE_OPTIONS)
def exact_cmd(**params) -> None:
    """Exact index plus bound relative errors."""
    _run_table("exact", params)


@cli.command("simulate")
@_options(*_GRAPH_OPTIONS, _P_OPTION, *_STEP_OPTIONS, *_OUTPUT_OPTIONS)
@click.option("--horizon", type=_COUNT, default=None,
              help="Horizon T of the dynamics (default: smallest T with bias bound "
              "at most 1e-4).")
@click.option("--ensemble", type=_COUNT, default=10000, show_default=True,
              help="Independent replications.")
def simulate_cmd(**params) -> None:
    """Monte Carlo estimate with standard error and convergence flag.

    Runs the dynamics in reverse time: each replication draws a Gaussian
    probe and sums its squared disagreement while the sampled update
    matrices act on it, an unbiased estimate of the final disagreement of
    x <- P x + n from 0, which depends on the noise only through its
    variance. Each node's activation takes one random byte. The probe is
    paired with its mean-field shadow under E[P], a closed form in the
    Laplacian eigenpairs whose infinite-horizon mean is N j_lb, so only the
    random walk is stepped; the difference is a control variate that cuts
    the standard error. horizon is the T the row ran (by default the
    smallest with nu_max^T <= 1e-4), bias_bound = nu_max^T bounds j_hat's
    relative bias, with nu_max the largest eigenvalue of E[P^2] off
    consensus, and converged means bias_bound < 1e-3. mf_corr is the
    correlation between the replications and their shadows. The row's one
    eigensolve gives both the bounds and the shadow; no row
    solves for the exact index, which ``exact`` gives for the same graph
    and step. An Erdos-Renyi row simulates one draw per N. Every row
    runs from the same --seed, so it equals the run of its graph and p
    alone."""
    _run_table("simulate", params)


def _runtime() -> dict:
    """Interpreter, numpy and scipy versions and numpy's BLAS: the last
    digits of every spectrum depend on which LAPACK computed it. Then
    what sets the BLAS thread count, which moves the last digits of the
    exact solve's reductions: the usable CPUs and the two variables
    OpenBLAS reads (null when unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "usable_cpus": cpus,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@cli.command("report")
@click.option("--output", required=True, help="Output directory for CSVs and manifest.")
@click.option("--p", type=_PROBABILITY, default=0.9, show_default=True)
@click.option("--k", type=_K, default=0.8, show_default=True)
@click.option("--sigma2", type=_SIGMA2, default=1.0, show_default=True)
@click.option("--p-er", type=_PROBABILITY, default=0.8, show_default=True)
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--n-range", default="3:100", show_default=True)
@click.option("--sweep-p-n", type=click.IntRange(max=sys.maxsize), default=100,
              show_default=True, help="Fixed N for the activation-probability sweeps.")
@click.option("--realizations", type=_COUNT, default=1, show_default=True)
def report_cmd(**params) -> None:
    """Full reproduction suite: per-family sweep-n CSVs and one sweep-p CSV
    plus a JSON manifest with seeds, versions, and wall-clock times. Its
    "runtime" key records the Python, numpy and scipy versions and
    numpy's BLAS, which set the last digits of the spectra, and the
    usable CPU count and OPENBLAS_NUM_THREADS and OMP_NUM_THREADS (null
    when unset), which set BLAS's thread count and with it the last
    digits of some exact values.

    Every table has ``exact``'s columns. A row of the per-family sweep-n
    tables gets the exact index when its built graph has N <= 24
    (EXACT_MAX_N), the one size cap of any command. sweep_p.csv has the
    rows of ``exact`` with every family as a --graph, --n at --sweep-p-n
    (raised to a family's smallest graph) and one --p per point of 0.1,
    0.2, ..., 0.9, so every row is exact at its built N.

    A family whose smallest graph is larger than the top of --n-range has
    no rows in the range: its sweep-n file is not written, the family is
    listed under the manifest's "skipped" key, and a note goes to stderr.
    """
    t_start = time.time()
    n_values = _node_counts(params["n_range"], "--n-range")
    shared = dict(dims=None, graph=None, p_er=params["p_er"], epsilon=None, k=params["k"],
                  sigma2=params["sigma2"], seed=params["seed"])
    # a family whose smallest graph lies above the range has no sweep-n rows
    skipped = [family for family in SWEEP_FAMILIES if _FAMILY_MIN_N[family] > n_values[-1]]
    tables = {  # file name -> (largest exact N, its spec)
        f"{family}_sweep_n.csv": (EXACT_MAX_N, ExperimentSpec(
            graphs=tuple((family, n) for n in n_values if n >= _FAMILY_MIN_N[family]),
            p_values=(params["p"],),
            realizations=params["realizations"] if family == "erdos-renyi" else 1, **shared,
        ))
        for family in SWEEP_FAMILIES if family not in skipped
    }
    tables["sweep_p.csv"] = (math.inf, ExperimentSpec(
        graphs=tuple((family, max(params["sweep_p_n"], _FAMILY_MIN_N[family]))
                     for family in SWEEP_FAMILIES),
        p_values=REPORT_P_GRID, realizations=1, **shared,
    ))
    for _, spec in tables.values():
        _validate_spec(spec)
    out_dir = Path(params["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for family in skipped:
        click.echo(
            f"skipping {family}_sweep_n.csv: {family} graphs need n >= "
            f"{_FAMILY_MIN_N[family]}, above --n-range {params['n_range']}",
            err=True,
        )
    manifest_files = {}
    for name, (exact_max_n, spec) in tables.items():
        t0 = time.time()
        rows = _compute_rows(spec, exact_max_n)
        text = render_rows(rows, COMMAND_COLUMNS["exact"], "csv")
        (out_dir / name).write_text(text)
        manifest_files[name] = {
            "rows": len(rows),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "seconds": round(time.time() - t0, 3),
        }
    manifest = {
        "package": "ridlnoise",
        "version": __version__,
        "seed": params["seed"],
        "parameters": {
            **{key: params[key] for key in ("p", "k", "sigma2", "p_er", "n_range", "sweep_p_n")},
            "exact_cap": EXACT_MAX_N,
            "realizations": params["realizations"],
        },
        "files": manifest_files,
        "skipped": skipped,
        "total_seconds": round(time.time() - t_start, 3),
        "runtime": _runtime(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _warn_slow_mixing([p for _, spec in tables.values() for p in spec.p_values])
    click.echo(f"report written to {out_dir} ({len(manifest_files)} data files)")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
