"""One benchmark iteration in a fresh process.

Usage: python3 bench/worker.py JOB.json

Times ``import ridlnoise.cli`` (the set-up a user pays on every
invocation), then runs the job's commands one at a time through the
``ridlnoise`` entry point, ``ridlnoise.cli:main``, in this process. With
tracing on, spans around the package's public functions are recorded
and written out at the end. The result file holds the import time, each
command's exit code and wall time, the peak resident memory, the
runtime provenance and, when traced, the spans.
"""
from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

# scipy-openblas and plain OpenBLAS builds name the query differently
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(*modules) -> dict[str, int]:
    """Thread count of each OpenBLAS library bundled with ``modules``."""
    import ctypes

    counts = {}
    for module in modules:
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(lib_path))
            except OSError:
                continue
            for symbol in _BLAS_THREAD_QUERIES:
                query = getattr(lib, symbol, None)
                if query is not None:
                    query.restype = ctypes.c_int
                    counts[lib_path.name] = int(query())
                    break
    return counts


def runtime_provenance() -> dict:
    """Interpreter, library and BLAS details of this process."""
    import numpy
    import scipy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}
    for module in (numpy, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, AttributeError):
            blas = {}
        info[f"{module.__name__}_blas"] = {key: blas.get(key) for key in
                                           ("name", "version", "openblas configuration")}
    info["blas_threads"] = _blas_threads(numpy, scipy)
    return info


def rng_floor_seconds(calls: list[dict], pilot: int) -> float:
    """Time to draw the activations and Gaussian noise of each recorded
    ``estimate_noise_index`` call with numpy alone, in the simulator's
    per-replication order: the floor a faster dynamics loop can reach."""
    import numpy as np

    total = 0.0
    for call in calls:
        n, t, m, p = call["n"], call["horizon"], call["ensemble"], call["p"]
        sigma = call["sigma2"] ** 0.5
        start = time.perf_counter()
        for seed in np.random.SeedSequence(call["seed"]).spawn(m + min(pilot, m)):
            rng = np.random.default_rng(seed)
            acts = rng.random((t, n)) < p
            noise = sigma * rng.standard_normal((t, n))
        total += time.perf_counter() - start
    return total


def _run(main, argv: list[str], tracer) -> int:
    sys.argv = ["ridlnoise", *argv]
    span = tracer.span(spans.CLI_SPAN) if tracer is not None else contextlib.nullcontext()
    try:
        with span:
            main()
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    except Exception:  # the command crashed; report it as a failed command
        traceback.print_exc()
        return 1
    return 0


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import ridlnoise.cli

    import_s = time.perf_counter() - start
    if not Path(ridlnoise.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ridlnoise was imported from {ridlnoise.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer, absent = None, []
    if job["trace"]:
        tracer = spans.Tracer()
        absent = spans.install(tracer)
    entry = ridlnoise.cli.main
    commands = []
    for argv in job["commands"]:
        t0 = time.perf_counter()
        code = _run(entry, argv, tracer)
        commands.append({"argv": argv, "exit_code": code, "wall_s": time.perf_counter() - t0})
    result = {"import_s": import_s, "commands": commands,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "provenance": runtime_provenance()}
    if tracer is not None:
        estimates = [s["info"] for s in tracer.spans
                     if s["name"] == "simulator.estimate_noise_index" and s["info"]]
        # the simulator's drift-test ensemble, run on top of the requested one
        pilot = getattr(sys.modules.get("ridlnoise.simulator"), "_PILOT_SIZE", 0)
        result.update(spans=tracer.spans, absent=absent, pilot=pilot,
                      rng_floor_s=rng_floor_seconds(estimates, pilot))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
