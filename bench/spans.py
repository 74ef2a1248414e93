"""Spans around the package's public functions, recorded from outside it.

The worker wraps each traced function at every module attribute that
binds it (``laplacian_spectrum`` is bound in ``graphs``, ``noise_index``,
``simulator`` and ``cli``), keeps the spans in memory and writes them out
when its commands are done. ``summarize`` turns the spans into the
per-layer metrics. A layer's self time is the span's duration minus its
child spans on the same thread; ``report`` runs worker threads, so layer
times there are busy times summed over threads.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

# metric group -> (module, functions). The self times of a group's spans
# add up to the group's ``_s`` metric and their number to ``_calls``.
LAYERS = {
    "graphs.build": ("graphs", ("make_star", "make_path", "make_grid", "make_complete",
                                "make_erdos_renyi", "draw_erdos_renyi")),
    "graphs.spectrum": ("graphs", ("laplacian_spectrum",)),
    "linalg.sym_eigen": ("linalg", ("sym_eigen",)),
    "linalg.solve": ("linalg", ("solve",)),
    "ridl.operator": ("ridl", ("expected_operators", "k_operator_moments")),
    "ridl.lkronl": ("ridl", ("expected_l_kron_l",)),
    "noise_index.report": ("noise_index", ("compute_noise_report",)),
    "noise_index.exact": ("noise_index", ("exact_noise_index",)),
    "noise_index.bounds": ("noise_index", ("ridl_bounds", "resistance_bounds")),
    "simulator.estimate": ("simulator", ("estimate_noise_index",)),
    "cli.render": ("cli", ("render_rows",)),
}
CLI_SPAN = "cli.main"


def _solve_info(args, kwargs, result):
    dim = int(getattr(args[0], "shape", (0,))[0])
    return {"flops": 2.0 / 3.0 * dim**3}  # LU of a dim x dim matrix, computed


def _operator_info(args, kwargs, result):
    n = int(getattr(args[0], "n", 0))
    return {"bytes": 8.0 * n**4}  # one dense N^2 x N^2 float64 operator, computed


def _draw_info(args, kwargs, result):
    return {"attempts": int(getattr(result, "attempts", 1))}


def _estimate_info(args, kwargs, result):
    g, cfg, sim = args[:3]
    return {"n": int(g.n), "horizon": int(sim.horizon), "ensemble": int(sim.ensemble),
            "p": float(cfg.p), "sigma2": float(cfg.sigma2), "seed": int(sim.seed)}


INFO = {
    "linalg.solve": _solve_info,
    "ridl.k_operator_moments": _operator_info,
    "graphs.draw_erdos_renyi": _draw_info,
    "simulator.estimate_noise_index": _estimate_info,
}


class Tracer:
    """Records (name, start, end, parent, info) spans in memory; a span's
    parent is the innermost open span on the same thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _open(self, name: str) -> tuple[int, list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = {"name": name, "parent": stack[-1] if stack else -1, "info": None}
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span["start"] = time.perf_counter()
        return index, stack

    def _close(self, index: int, stack: list) -> None:
        self.spans[index]["end"] = time.perf_counter()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        handle = self._open(name)
        try:
            yield
        finally:
            self._close(*handle)

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, stack)
            if info is not None:
                try:
                    self.spans[index]["info"] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # after a signature change the counters read 0; the run goes on
            return result

        return traced


def install(tracer: Tracer, package: str = "ridlnoise") -> list[str]:
    """Wrap every traced function at each module attribute bound to it.

    Returns the traced functions the package no longer defines; their
    layer metrics are reported as absent.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    absent = []
    for module_name, names in LAYERS.values():
        home = sys.modules.get(f"{package}.{module_name}")
        for fname in names:
            qualified = f"{module_name}.{fname}"
            original = getattr(home, fname, None) if home is not None else None
            if not callable(original):
                absent.append(qualified)
                continue
            traced = tracer.wrap(qualified, original, INFO.get(qualified))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    return absent


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[dict]) -> dict:
    """Self time and call count per layer group, plus the cli split.

    Returns ``{"groups": {group: {"self_s", "calls"}}, "info":
    {qualified function: [counters of each call]}, "cli_total_s",
    "cli_self_s"}``.
    """
    group_of = {f"{mod}.{fn}": group for group, (mod, fns) in LAYERS.items() for fn in fns}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    groups = {group: {"self_s": 0.0, "calls": 0} for group in LAYERS}
    info: dict[str, list] = {}
    for i, span in enumerate(spans):
        group = group_of.get(span["name"])
        if group is None:
            continue
        groups[group]["self_s"] += span["end"] - span["start"] - child_time[i]
        groups[group]["calls"] += 1
        if span["info"] is not None:
            info.setdefault(span["name"], []).append(span["info"])
    layer_intervals = [(s["start"], s["end"]) for s in spans if s["name"] != CLI_SPAN]
    cli_total = cli_self = 0.0
    for span in spans:
        if span["name"] == CLI_SPAN:
            length = span["end"] - span["start"]
            cli_total += length
            cli_self += length - _covered(layer_intervals, span["start"], span["end"])
    return {"groups": groups, "info": info,
            "cli_total_s": cli_total, "cli_self_s": cli_self}
