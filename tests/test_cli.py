import csv
import dataclasses
import io
import json
import os
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

import ridlnoise
from ridlnoise import graphs, make_grid, make_path, noise_index, read_edge_list, write_edge_list
from ridlnoise.cli import COMMAND_COLUMNS, EXACT_MAX_N, cli, main
from ridlnoise.simulator import BURN_IN_CHECK

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(cli, list(args), env=env, catch_exceptions=False)


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows parsed from: {text[:200]}"
    return rows


def as_float(cell):
    assert cell != ""
    return float(cell)


def p_args(*ps):
    """One --p per activation probability, in the given order."""
    return [arg for p in ps for arg in ("--p", str(p))]


#: the p points of the report's sweep_p.csv
P_GRID = p_args(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.fixture
def bounded_rows(monkeypatch):
    """Rows are computed as usual, but a count beyond the platform's index
    range that reaches them fails the test at once instead of looping for
    ever or allocating without end."""
    import ridlnoise.cli

    compute_rows = ridlnoise.cli._compute_rows

    def bounded(spec, exact_max_n):
        sim = spec.sim
        counts = (spec.realizations, sim.horizon or 0, sim.ensemble) if sim else (spec.realizations,)
        assert max(counts) <= sys.maxsize, f"unchecked count reached the rows: {counts}"
        return compute_rows(spec, exact_max_n)

    monkeypatch.setattr(ridlnoise.cli, "_compute_rows", bounded)


class TestBoundsCommand:
    def test_single_row_reference_values(self):
        res = invoke("bounds", "--graph", "complete", "--n", "2",
                     "--p", "0.5", "--eps", "0.4")
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert as_float(row["j_lb"]) == pytest.approx(25.0 / 18.0, rel=1e-11)
        assert as_float(row["j_ub"]) == pytest.approx(25.0 / 12.0, rel=1e-11)
        assert as_float(row["j_res_lb"]) == pytest.approx(1.25, rel=1e-11)
        assert as_float(row["j_res_ub"]) == pytest.approx(25.0 / 6.0, rel=1e-11)

    def test_schema_and_header(self):
        res = invoke("bounds", "--graph", "star", "--n", "3:6", "--k", "0.8")
        lines = res.output.strip().splitlines()
        assert lines[0].split(",") == COMMAND_COLUMNS["bounds"]
        assert len(lines) == 5

    def test_star_sweep_matches_closed_form_curve(self):
        from oracles import star_closed_form_bounds
        from ridlnoise import RidlConfig, make_star

        res = invoke("bounds", "--graph", "star", "--n", "3:40", "--k", "0.8")
        for row in parse_csv(res.output):
            n = int(row["n"])
            cfg = RidlConfig.for_graph(make_star(n), p=0.9, sigma2=1.0, k=0.8)
            lb, ub = star_closed_form_bounds(n, cfg)
            assert as_float(row["j_lb"]) == pytest.approx(lb, rel=1e-10)
            assert as_float(row["j_ub"]) == pytest.approx(ub, rel=1e-10)

    def test_complete_sweep_approaches_limits(self):
        res = invoke("bounds", "--graph", "complete", "--n", "100", "--k", "0.8")
        row = parse_csv(res.output)[0]
        assert as_float(row["j_lb"]) == pytest.approx(1.1414, rel=0.02)
        assert as_float(row["j_ub"]) == pytest.approx(1.2056, rel=0.02)

    def test_json_format(self):
        res = invoke("bounds", "--graph", "path", "--n", "5", "--k", "0.8",
                     "--format", "json")
        rows = json.loads(res.output)
        assert isinstance(rows, list) and len(rows) == 1
        assert set(rows[0]) == set(COMMAND_COLUMNS["bounds"])
        assert rows[0]["n"] == 5

    def test_graph_file_input(self, tmp_path):
        g = make_grid([3, 3])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        res = invoke("bounds", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert row["family"] == "file"
        assert int(row["n"]) == 9
        assert int(row["d_max"]) == 4

    def test_output_file(self, tmp_path):
        out = tmp_path / "sub" / "rows.csv"
        res = invoke("bounds", "--graph", "path", "--n", "4", "--k", "0.8",
                     "--output", str(out))
        assert res.exit_code == 0
        assert out.exists()
        parse_csv(out.read_text())


class TestValidationErrors:
    def test_missing_step_size(self):
        res = invoke("bounds", "--graph", "path", "--n", "5")
        assert res.exit_code == 2
        assert "--eps or --k" in res.output

    def test_both_step_sizes(self):
        res = invoke("bounds", "--graph", "path", "--n", "5", "--eps", "0.1", "--k", "0.5")
        assert res.exit_code == 2

    def test_bad_n_for_family(self):
        res = invoke("bounds", "--graph", "star", "--n", "2", "--k", "0.8")
        assert res.exit_code == 2
        assert "star" in res.output

    def test_missing_n(self):
        res = invoke("bounds", "--graph", "path", "--k", "0.8")
        assert res.exit_code == 2

    def test_nonpositive_p(self):
        res = invoke("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--p", "0")
        assert res.exit_code == 2

    def test_small_p_warns_but_runs(self):
        res = invoke("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--p", "0.05")
        assert res.exit_code == 0
        assert "slowly" in res.output

    @pytest.mark.parametrize("args", [
        ("report", "--p", "0.05", "--n-range", "3:9", "--sweep-p-n", "9"),
        # a sweep over p: two families, one --p per point
        ("exact", "--graph", "star", "--graph", "path", "--n", "5", "--k", "0.8",
         *p_args(0.02, 0.04, 0.06)),
    ], ids=["report", "sweep-p"])
    def test_small_p_warns_once_per_run(self, args, tmp_path):
        if args[0] == "report":
            args = (*args, "--output", str(tmp_path / "rep"))
        res = invoke(*args)
        assert res.exit_code == 0
        assert res.stderr.count("activation probability below 0.1") == 1

    def test_disconnected_graph_file(self, tmp_path):
        path = tmp_path / "dis.edges"
        path.write_text("4 2\n0 1\n2 3\n")
        res = invoke("bounds", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert "disconnected" in res.stderr

    @pytest.mark.parametrize("step", [("--k", "0.8"), ("--eps", "0.1")], ids=["k", "eps"])
    @pytest.mark.parametrize("command", ["bounds", "exact", "simulate"])
    def test_edgeless_graph_file(self, tmp_path, command, step):
        # d_max = 0: neither step form may divide by it
        path = tmp_path / "none.edges"
        path.write_text("3 0\n")
        res = invoke(command, "--graph-file", str(path), *step)
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert "disconnected" in res.stderr

    @pytest.mark.parametrize("text,line", [("99999999999999999999 1\n0 1\n", 1),
                                           ("3 2\n0 1\n1 99999999999999999999\n", 3)],
                             ids=["node-count", "node-id"])
    def test_oversized_graph_file_integer(self, tmp_path, text, line):
        path = tmp_path / "g.edges"
        path.write_text(text)
        res = invoke("bounds", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert res.stderr.startswith(
            f"invalid input: edge-list file {path}, line {line}: 99999999999999999999 "
            "is too large for this platform")

    def test_out_of_memory_exit_3(self, monkeypatch):
        # an Erdos-Renyi graph is eigensolved from its dense Laplacian; the
        # stand-in raises what numpy raises when that does not fit, without
        # allocating
        def too_large(g):
            raise MemoryError(f"Unable to allocate for an array with shape ({g.n}, {g.n})")

        monkeypatch.setattr(graphs, "laplacian", too_large)
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "30", "--p-er", "0.5",
                     "--k", "0.8")
        assert res.exit_code == 3
        assert res.stderr.strip().count("\n") == 0
        assert res.stderr.startswith("numerical failure: Unable to allocate")

    def test_bare_memory_error_names_the_failure(self, monkeypatch):
        # a MemoryError without a message, as Python raises for a range
        # that does not fit, is named rather than printed as nothing
        def too_large(g):
            raise MemoryError()

        monkeypatch.setattr(graphs, "laplacian", too_large)
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "30", "--p-er", "0.5",
                     "--k", "0.8")
        assert res.exit_code == 3
        assert res.stderr == "numerical failure: out of memory\n"

    def test_bounds_at_n_100000_form_no_dense_matrix(self, monkeypatch):
        # the closed-form eigenvalues of path 10^5 need no N x N matrix (the
        # dense Laplacian alone would be 74.5 GiB), and its lambda_2 =
        # 9.87e-10, below 1e-9 lambda_N, still reads as connected
        def dense(g):
            raise AssertionError("dense Laplacian formed")

        monkeypatch.setattr(graphs, "laplacian", dense)
        res = invoke("bounds", "--graph", "path", "--n", "100000", "--k", "0.8")
        assert res.exit_code == 0
        (row,) = parse_csv(res.output)
        assert int(row["n"]) == 100000
        lam2 = 4.0 * np.sin(np.pi / 200000) ** 2
        assert as_float(row["lambda2"]) == pytest.approx(lam2, rel=1e-11)

    def test_exhausted_erdos_renyi_draw(self):
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "30", "--p-er", "0.01",
                     "--k", "0.8")
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert "no connected Erdos-Renyi draw" in res.stderr

    @pytest.mark.parametrize("args,message", [
        (("bounds", "--graph", "star", "--n", "10", "--eps", "0.5"),
         "invalid configuration for n=10"),
        (("bounds", "--graph", "path", "--n", "5"), "exactly one of --eps or --k"),
        (("bounds", "--graph", "path", "--n", "3-9", "--k", "0.8"),
         "--n must look like N or A:B, got '3-9'"),
        (("bounds", "--graph", "path", "--n", "abc", "--k", "0.8"),
         "--n must look like N or A:B, got 'abc'"),
        (("bounds", "--graph", "path", "--n", "9:3", "--k", "0.8"),
         "--n must satisfy A <= B"),
        (("bounds", "--graph", "grid2d", "--dims", "3by3", "--k", "0.8"),
         "--dims must look like AxB"),
        (("bounds", "--graph", "grid3d", "--dims", "2x2x2x2", "--k", "0.8"),
         "--dims supports 1 to 3 sides"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8",
          "--graph-file", "/nonexistent.edges"), "--graph-file takes no --graph/--n/--dims"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--p-er", "0.5"),
         "--p-er only applies to erdos-renyi graphs"),
        (("bounds", "--graph", "erdos-renyi", "--n", "5", "--k", "0.8", "--seed", "-1"),
         "'--seed': -1 is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "nan"),
         "'--sigma2': nan is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "inf"),
         "'--sigma2': inf is not in the range"),
        (("exact", "--graph", "path", "--n", "5", "--eps", "nan"),
         "'--eps': nan is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--eps", "inf"),
         "'--eps': inf is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--p", "nan"),
         "'--p': nan is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "nan"),
         "'--k': nan is not in the range"),
        (("bounds", "--graph", "grid2d", "--n", "3:99999999999999999999", "--k", "0.8"),
         "--n is too large for this platform, got 99999999999999999999"),
        (("bounds", "--graph", "path", "--n", "99999999999999999999", "--k", "0.8"),
         "--n is too large for this platform, got 99999999999999999999"),
        # 2^32 x 2^32 nodes: a product in int64 would wrap to 0
        (("bounds", "--graph", "grid2d", "--dims", "4294967296x4294967296", "--k", "0.8"),
         "--dims is too large for this platform, got 18446744073709551616"),
        (("report", "--output", "/nonexistent/report", "--sweep-p-n", "99999999999999999999"),
         "'--sweep-p-n': 99999999999999999999 is not in the range"),
        # eps p^2 underflows: at p = 0.01 it is 0, at p = 0.9 subnormal
        (("bounds", "--graph", "path", "--n", "5", "--eps", "1e-320", "--p", "0.01"),
         "step size is too small"),
        (("bounds", "--graph", "path", "--n", "5", "--eps", "1e-320", "--p", "0.9"),
         "step size is too small"),
        # eps p^2 is normal, but the bound sums 1/(1 - mu_i^2) overflow
        (("bounds", "--graph", "path", "--n", "300", "--eps", "1e-307", "--p", "1"),
         "sigma2 = 1 with eps * p^2 = 1e-307 makes the index bounds overflow"),
        # --k p^2 passes, eps p^2 = k p^2 / d_max underflows on the built star;
        # the slow-mixing warning of p < 0.1 is not printed before the error
        (("bounds", "--graph", "star", "--n", "5000", "--k", "1e-300", "--p", "0.01"),
         "step size is too small: eps * p^2"),
        # p^3 (1 - k) underflows to 0 in the resistance upper bound
        (("bounds", "--graph", "path", "--n", "30", "--k", "0.999999999999", "--p", "1e-150"),
         "makes the index bounds overflow"),
        # sigma2 alone puts the bounds outside the floating-point range
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "5e-324"),
         "sigma2 = 4.94066e-324 with eps * p^2 = 0.324 makes the index bounds underflow to 0"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "1e308"),
         "sigma2 = 1e+308 with eps * p^2 = 0.324 makes the index bounds overflow"),
        (("exact", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "5e-324"),
         "makes the index bounds underflow to 0"),
        (("exact", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "1e308"),
         "makes the index bounds overflow"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--seed", "3"),
         "--seed only applies to erdos-renyi graphs"),
        (("exact", "--graph", "path", "--n", "5", "--k", "0.8", "--seed", "3"),
         "--seed only applies to erdos-renyi graphs"),
        # a sweep over p on two families, neither of them Erdos-Renyi
        (("exact", "--graph", "path", "--graph", "star", "--n", "5", "--k", "0.8",
          "--p", "0.5", "--p", "0.9", "--seed", "3"), "--seed only applies to erdos-renyi graphs"),
        (("bounds", "--graph", "path", "--n", "5", "--eps", "-0.1"),
         "'--eps': -0.1 is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--sigma2", "-1"),
         "'--sigma2': -1.0 is not in the range"),
        (("bounds", "--graph", "erdos-renyi", "--n", "5", "--k", "0.8", "--p-er", "1.5"),
         "'--p-er': 1.5 is not in the range"),
        (("bounds", "--graph", "erdos-renyi", "--n", "5", "--k", "0.8", "--realizations", "0"),
         "'--realizations': 0 is not in the range"),
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--realizations", "2"),
         "--realizations only applies to erdos-renyi"),
        (("simulate", "--graph", "path", "--n", "5", "--k", "0.8", "--ensemble", "0"),
         "'--ensemble': 0 is not in the range"),
        (("simulate", "--graph", "path", "--n", "5", "--k", "0.8", "--horizon", "0"),
         "'--horizon': 0 is not in the range"),
        # the file alone names the graph and its N; it is not even opened
        (("bounds", "--graph-file", "/nonexistent.edges", "--n", "5", "--k", "0.8"),
         "--graph-file takes no --graph/--n/--dims"),
        (("bounds", "--graph-file", "/nonexistent.edges", "--dims", "3x3", "--k", "0.8"),
         "--graph-file takes no --graph/--n/--dims"),
        # an explicit --graph, even the default family, is one too many
        (("exact", "--graph-file", "/nonexistent.edges", "--graph", "path", "--k", "0.8"),
         "--graph-file takes no --graph/--n/--dims"),
        # every p of a list is checked, every family of a list too
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--p", "0.5", "--p", "1.5"),
         "'--p': 1.5 is not in the range"),
        (("bounds", "--graph", "grid2d", "--graph", "path", "--dims", "3x3", "--k", "0.8"),
         "--dims only applies to grid graphs"),
        (("bounds", "--graph", "erdos-renyi", "--graph", "path", "--n", "5", "--k", "0.8",
          "--realizations", "2"), "--realizations only applies to erdos-renyi"),
        (("bounds", "--graph", "path", "--dims", "3x3", "--k", "0.8"),
         "--dims only applies to grid graphs"),
        (("bounds", "--graph", "grid2d", "--dims", "3x3x3", "--k", "0.8"),
         "grid2d needs 2 sides in --dims"),
        (("bounds", "--graph", "grid2d", "--dims", "3x3", "--n", "9", "--k", "0.8"),
         "give either --dims or --n"),
        (("bounds", "--graph", "path", "--k", "0.8"), "give either --dims or --n"),
        # counts that size loops: checked before any graph is built, so that
        # no run starts that cannot end (bounded_rows fails the test if one does)
        (("simulate", "--graph", "path", "--n", "5", "--k", "0.8",
          "--horizon", "99999999999999999999"),
         "'--horizon': 99999999999999999999 is not in the range"),
        (("simulate", "--graph", "path", "--n", "5", "--k", "0.8",
          "--ensemble", "99999999999999999999"),
         "'--ensemble': 99999999999999999999 is not in the range"),
        (("bounds", "--graph", "erdos-renyi", "--n", "5", "--k", "0.8",
          "--realizations", "99999999999999999999"),
         "'--realizations': 99999999999999999999 is not in the range"),
        # the null device reads as an empty file
        (("bounds", "--graph-file", os.devnull, "--k", "0.8"),
         "is missing the 'n m' header"),
        # a range whose length fits the platform but not the memory
        (("bounds", "--graph", "path", "--n", "3:9223372036854775806", "--k", "0.8"),
         "--n 3:9223372036854775806 does not fit in memory"),
    ], ids=["config", "spec", "n-range-form", "n-form", "n-range-order", "dims-form",
            "dims-sides",
            "graph-file-ignored", "p-er-ignored", "negative-seed", "sigma2-nan", "sigma2-inf",
            "eps-nan", "eps-inf", "p-nan", "k-nan",
            "n-range-oversized", "n-oversized", "dims-oversized", "sweep-p-n-oversized",
            "eps-underflow-zero", "eps-underflow-subnormal", "bounds-overflow",
            "eps-underflow-on-graph", "resistance-underflow", "sigma2-underflow",
            "sigma2-overflow", "exact-sigma2-underflow", "exact-sigma2-overflow",
            "seed-ignored-bounds", "seed-ignored-exact", "seed-ignored-sweep-p",
            "eps-negative", "sigma2-negative",
            "p-er-out-of-range", "realizations-zero", "realizations-ignored", "ensemble-zero",
            "horizon-zero", "graph-file-with-n", "graph-file-with-dims",
            "graph-file-not-alone", "p-list-out-of-range", "dims-in-mixed-list",
            "realizations-in-mixed-list", "dims-not-grid",
            "dims-wrong-sides", "dims-and-n", "no-size", "horizon-oversized",
            "ensemble-oversized", "realizations-oversized", "graph-file-empty",
            "n-range-beyond-memory"])
    def test_usage_errors_are_one_line(self, args, message, bounded_rows):
        res = invoke(*args)
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert message in res.stderr


class TestErrorPath:
    """The entry point prints every failure as one line with its exit
    code, click's own parse errors included; only the bare command prints
    the help."""

    @pytest.mark.parametrize("args", [
        ("bounds", "--graph", "path", "--n", "5", "--k", "abc"),
        ("bounds", "--graph", "foo", "--n", "5", "--k", "0.8"),
        ("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--workers", "2"),
        ("report",),
        ("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "extra"),
        ("bogus",),
    ], ids=["malformed-value", "invalid-choice", "unknown-option", "missing-option",
            "extra-argument", "unknown-command"])
    def test_click_parse_errors_are_one_line(self, args):
        res = invoke(*args)
        assert res.exit_code == 2
        assert res.stderr.count("\n") == 1
        assert res.stderr.startswith("invalid input: ")
        assert res.stdout == ""

    def test_interrupt_exits_1(self, monkeypatch):
        # click writes a newline before it raises Abort on KeyboardInterrupt
        import ridlnoise.cli

        def interrupted(spec, exact_max_n):
            raise KeyboardInterrupt

        monkeypatch.setattr(ridlnoise.cli, "_compute_rows", interrupted)
        res = invoke("bounds", "--graph", "path", "--n", "5", "--k", "0.8")
        assert res.exit_code == 1
        assert res.stderr.strip() == "Aborted!"
        assert res.stdout == ""

    def test_no_arguments_print_the_help_and_exit_2(self):
        res = invoke()
        assert res.exit_code == 2
        assert res.stderr.startswith("Usage: ")
        assert "Commands:" in res.stderr

    @pytest.mark.parametrize("args", [("--help",), ("--version",), ("bounds", "--help")])
    def test_help_and_version_exit_0(self, args):
        res = invoke(*args)
        assert res.exit_code == 0
        assert res.stderr == ""

    def test_help_shows_option_ranges(self):
        text = " ".join(invoke("bounds", "--help").stdout.split())
        for option, domain in [("--p-er", "0<x<=1"), ("--seed", "x>=0"), ("--eps", "x>0"),
                               ("--k", "0<x<1"), ("--sigma2", "x>=0"),
                               ("--realizations", f"1<=x<={sys.maxsize}")]:
            # the range closes the option's bracketed note
            assert re.search(fr"{option} [A-Z ]+RANGE [^\[]*\[[^\]]*{re.escape(domain)}\]",
                             text), option

    @pytest.mark.parametrize("args,option", [
        (("bounds", "--graph", "path", "--n", f"3:{sys.maxsize}", "--k", "0.8"), "--n"),
        (("report", "--n-range", f"3:{sys.maxsize}"), "--n-range"),
    ], ids=["bounds", "report"])
    def test_range_beyond_memory_exits_2_at_once(self, args, option, tmp_path):
        # the child's address space is capped, so that a range built step by
        # step fails the test with exit 3 instead of filling the memory
        import resource
        import subprocess

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(ridlnoise.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-c", "from ridlnoise.cli import main; main()", *args,
             "--output", str(tmp_path / "out")],
            env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"invalid input: {option} 3:{sys.maxsize} "
                               "does not fit in memory\n")
        assert list(tmp_path.iterdir()) == []


class TestExactCommand:
    def test_reference_row(self):
        res = invoke("exact", "--graph", "complete", "--n", "2",
                     "--p", "0.5", "--eps", "0.4")
        row = parse_csv(res.output)[0]
        assert as_float(row["j_exact"]) == pytest.approx(25.0 / 12.0, rel=1e-11)
        assert as_float(row["rel_ub"]) == pytest.approx(0.0, abs=1e-12)
        assert as_float(row["rel_lb"]) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_deterministic_mode_zero_errors(self):
        res = invoke("exact", "--graph", "grid2d", "--dims", "3x3", "--k", "0.8",
                     "--p", "1.0")
        row = parse_csv(res.output)[0]
        assert abs(as_float(row["rel_lb"])) <= 1e-9
        assert abs(as_float(row["rel_ub"])) <= 1e-9

    def test_sandwich_chain_per_row(self):
        res = invoke("exact", "--graph", "path", "--n", "3:12", "--k", "0.8")
        for row in parse_csv(res.output):
            chain = [as_float(row[c]) for c in
                     ("j_res_lb", "j_lb", "j_exact", "j_ub", "j_res_ub")]
            for lo, hi in zip(chain, chain[1:]):
                assert lo <= hi + 1e-9

    def test_large_n_within_sandwich(self):
        res = invoke("exact", "--graph", "path", "--n", "200", "--k", "0.8")
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert int(row["n"]) == int(row["n_exact"]) == 200
        chain = [as_float(row[c]) for c in ("j_res_lb", "j_lb", "j_exact", "j_ub", "j_res_ub")]
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + 1e-9

    def test_large_index_at_tight_bound(self):
        # J = j_ub for N = 2; at J ~ 1.3e5 they differ by more than an
        # absolute 1e-9 through rounding alone
        res = invoke("exact", "--graph", "complete", "--n", "2", "--p", "0.01",
                     "--k", "0.99")
        assert res.exit_code == 0
        row = parse_csv(res.stdout)[0]
        assert as_float(row["j_exact"]) == pytest.approx(as_float(row["j_ub"]), rel=1e-12)

    def test_graph_file_read_once(self, tmp_path, monkeypatch):
        import ridlnoise.cli

        path = tmp_path / "g.edges"
        write_edge_list(make_grid([3, 4]), path)
        reads = []

        def counting(*args):
            reads.append(args)
            return read_edge_list(*args)

        monkeypatch.setattr(ridlnoise.cli, "read_edge_list", counting)
        res = invoke("exact", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 0
        assert int(parse_csv(res.output)[0]["n_exact"]) == 12
        assert len(reads) == 1

    def test_graph_file_n70(self, tmp_path):
        path = tmp_path / "p70.edges"
        write_edge_list(make_path(70), path)
        res = invoke("exact", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert int(row["n"]) == int(row["n_exact"]) == 70

    def test_sparse_family_lower_bound_tighter(self):
        # Both star bounds share the large-N slope sigma^2/(2 k p^2), so
        # both relative errors vanish as N grows, the lower bound's at
        # least like 1/N. Which bound is closer is not part of the claim:
        # at p = 0.9 the upper bound is, for every N here.
        res = invoke("exact", "--graph", "star", "--n", "5:25", "--k", "0.8")
        rows = parse_csv(res.output)
        n = np.array([int(r["n"]) for r in rows])
        rel_lb = np.array([as_float(r["rel_lb"]) for r in rows])
        rel_ub = np.array([as_float(r["rel_ub"]) for r in rows])
        assert np.all(rel_lb >= 0.0) and np.all(rel_ub >= 0.0)
        assert np.all(np.diff(rel_lb) < 0.0)
        assert np.all(np.diff(rel_ub) < 0.0)
        assert np.all(np.diff(n * rel_lb) <= 0.0)


class TestSweepN:
    """The report's per-family sweep-n tables, the one place where the
    built N decides whether a row gets the exact index (EXACT_MAX_N)."""

    SEED = "3"  # the Erdos-Renyi draws; the report's --p-er is 0.8

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep_n") / "rep"
        res = invoke("report", "--output", str(out), "--n-range", "14:30",
                     "--sweep-p-n", "8", "--seed", self.SEED)
        assert res.exit_code == 0
        return out

    def test_exact_fades_beyond_cap(self, report):
        assert EXACT_MAX_N == 24
        rows = parse_csv((report / "path_sweep_n.csv").read_text())
        assert {int(r["n"]) for r in rows} == set(range(14, 31))
        for row in rows:
            if int(row["n"]) <= 24:
                assert row["j_exact"] != ""
            else:
                assert row["j_exact"] == ""
                assert row["j_lb"] != ""

    def test_grid_rows_record_actual_n(self, report):
        rows = parse_csv((report / "grid2d_sweep_n.csv").read_text())
        assert [int(r["n_requested"]) for r in rows] == list(range(14, 31))
        for row in rows:
            side = round(int(row["n_requested"]) ** 0.5)
            assert int(row["n"]) == side**2
            assert row["dims"] == f"{side}x{side}"
            # the cap applies to the built N: requests 21..30 round to 5x5
            if int(row["n_requested"]) <= 20:
                assert int(row["n_exact"]) == int(row["n"]) == 16
            else:
                assert int(row["n"]) == 25
                assert row["n_exact"] == "" and row["j_exact"] == ""

    def test_exact_rows_match_the_exact_command(self, report):
        compared = {}
        for family in ("star", "path", "grid2d", "grid3d", "complete", "erdos-renyi"):
            lines = (report / f"{family}_sweep_n.csv").read_text().splitlines()
            seeded = (("--seed", self.SEED, "--p-er", "0.8") if family == "erdos-renyi"
                      else ())
            res = invoke("exact", "--graph", family, "--n", "14:24", "--k", "0.8",
                         "--p", "0.9", *seeded)
            assert res.exit_code == 0
            exact_lines = res.output.splitlines()
            assert exact_lines[0] == lines[0]
            # rows in requested-N order from 14, on both sides
            compared[family] = 0
            for line, row in zip(lines[1:], parse_csv("\n".join(lines))):
                if row["j_exact"] != "":
                    assert line == exact_lines[1 + int(row["n_requested"]) - 14]
                    compared[family] += 1
        # grid2d: requests 14..20 build 4x4; grid3d: 14 and 15 build 2x2x2
        assert compared == {"star": 11, "path": 11, "grid2d": 7, "grid3d": 2,
                            "complete": 11, "erdos-renyi": 11}


class TestSweepP:
    """Sweeps over the activation probability: one --p per point, and one
    --graph per family, on a table command. Rows go family by family, N
    by N, then in --p order."""

    def test_grid_and_monotone_lower_bound(self):
        res = invoke("exact", "--graph", "star", "--graph", "complete", "--n", "100",
                     "--k", "0.8", *P_GRID)
        rows = parse_csv(res.output)
        by_family = {}
        for row in rows:
            by_family.setdefault(row["family"], []).append(row)
        assert list(by_family) == ["star", "complete"]
        for fam_rows in by_family.values():
            assert len(fam_rows) == 9  # 0.1 .. 0.9
            ps = [as_float(r["p"]) for r in fam_rows]
            assert ps == sorted(ps)
            lbs = [as_float(r["j_lb"]) for r in fam_rows]
            assert all(a > b for a, b in zip(lbs, lbs[1:]))

    def test_reduced_exact_recorded(self):
        # above EXACT_MAX_N, exact rows are still exact at their own N
        res = invoke("exact", "--graph", "path", "--n", "50", "--k", "0.8",
                     *p_args(0.5, 0.9))
        rows = parse_csv(res.output)
        assert len(rows) == 2
        for row in rows:
            assert int(row["n"]) == int(row["n_exact"]) == 50
            assert as_float(row["j_lb"]) <= as_float(row["j_exact"]) <= as_float(row["j_ub"])

    def test_reduced_grid3d_exact_filled(self):
        # 100 requested nodes round to a 5x5x5 grid, solved at that size
        res = invoke("exact", "--graph", "grid3d", "--n", "100", "--k", "0.8", "--p", "0.5")
        row = parse_csv(res.output)[0]
        assert int(row["n"]) == int(row["n_exact"]) == 125
        assert row["j_exact"] != "" and row["rel_lb"] != "" and row["rel_ub"] != ""

    @pytest.mark.parametrize("dims", [(3, 4), (5, 6)], ids=["3x4", "5x6"])
    def test_graph_file(self, tmp_path, dims):
        # 5x6 has 30 nodes, above EXACT_MAX_N: a file graph is solved at its own N
        path = tmp_path / "g.edges"
        write_edge_list(make_grid(list(dims)), path)
        res = invoke("exact", "--graph-file", str(path), "--k", "0.8",
                     *P_GRID)
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert len(rows) == 9
        for row in rows:
            assert row["family"] == "file"
            assert int(row["n"]) == int(row["n_exact"]) == dims[0] * dims[1]
            assert row["j_exact"] != "" and row["rel_lb"] != "" and row["rel_ub"] != ""

    def test_graph_alone_sweeps_that_graph(self):
        res = invoke("exact", "--graph", "complete", "--n", "12", "--k", "0.8",
                     *p_args(0.3, 0.6, 0.9))
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert [r["family"] for r in rows] == ["complete"] * 3
        assert [as_float(r["p"]) for r in rows] == [0.3, 0.6, 0.9]
        assert all(int(r["n"]) == int(r["n_exact"]) == 12 for r in rows)

    def test_erdos_renyi_realizations(self):
        res = invoke("exact", "--graph", "erdos-renyi", "--n", "8", "--realizations", "3",
                     "--k", "0.8", *p_args(0.3, 0.6, 0.9))
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert len(rows) == 3
        for row in rows:
            assert int(row["realizations"]) == 3
            for col in ("j_lb_std", "j_ub_std", "j_exact_std"):
                assert as_float(row[col]) >= 0.0

    def test_grid_dims(self):
        res = invoke("exact", "--graph", "grid2d", "--dims", "4x4", "--k", "0.8",
                     *p_args(0.5, 0.9))
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert len(rows) == 2
        assert all(int(r["n"]) == 16 and r["dims"] == "4x4" for r in rows)

    def test_n_range_rows_in_n_then_p_order(self):
        res = invoke("exact", "--graph", "star", "--graph", "path", "--n", "5:7",
                     "--k", "0.8", *p_args(0.6, 0.5))
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert [(r["family"], int(r["n"]), as_float(r["p"])) for r in rows] == [
            (family, n, p) for family in ("star", "path") for n in (5, 6, 7) for p in (0.6, 0.5)
        ]

    @pytest.mark.parametrize("args,message", [
        (("--graph", "grid3d", "--n", "5"), "grid3d graphs need n >= 8, got 5"),
        # every family of the list is checked, not only the first
        (("--graph", "path", "--graph", "grid3d", "--n", "5"), "grid3d graphs need n >= 8, got 5"),
    ], ids=["below-family-floor", "below-floor-in-list"])
    def test_family_errors_exit_2(self, args, message):
        res = invoke("exact", *args, "--k", "0.8")
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert message in res.stderr

    def test_endpoint_matches_sweep_n_row(self):
        res_p = invoke("exact", "--graph", "star", "--n", "40", "--k", "0.8", *P_GRID)
        res_n = invoke("bounds", "--graph", "star", "--n", "40", "--k", "0.8",
                       "--p", "0.9")
        row_p = parse_csv(res_p.output)[-1]
        row_n = parse_csv(res_n.output)[0]
        for col in ("p", "j_lb", "j_ub", "j_res_lb", "j_res_ub", "r_ave"):
            assert row_p[col] == row_n[col]

    @pytest.mark.parametrize("command,fmt", [("bounds", "csv"), ("exact", "csv"),
                                             ("bounds", "json")])
    def test_rows_equal_single_runs(self, command, fmt):
        # rows go family by family, then in --p order, each the row of its
        # graph and p run alone
        args = (command, "--n", "6", "--k", "0.8", "--format", fmt)
        res = invoke(*args, "--graph", "star", "--graph", "path", *p_args(0.9, 0.4))
        assert res.exit_code == 0
        singles = [invoke(*args, "--graph", family, "--p", p).output
                   for family in ("star", "path") for p in ("0.9", "0.4")]
        if fmt == "json":
            assert json.loads(res.output) == [json.loads(single)[0] for single in singles]
        else:
            header, *rows = res.output.splitlines()
            assert rows == [single.splitlines()[1] for single in singles]
            assert all(single.splitlines()[0] == header for single in singles)

    def test_report_rows_match_the_exact_command(self, tmp_path):
        # sweep_p.csv is exact over every family at --sweep-p-n and the nine p
        out = tmp_path / "rep"
        res = invoke("report", "--output", str(out), "--n-range", "3:10", "--sweep-p-n", "10",
                     "--seed", "3")
        assert res.exit_code == 0
        graphs_args = [arg for family in ("star", "path", "grid2d", "grid3d", "complete",
                                          "erdos-renyi") for arg in ("--graph", family)]
        res = invoke("exact", *graphs_args, "--n", "10", "--k", "0.8", *P_GRID,
                     "--seed", "3", "--p-er", "0.8")
        assert res.exit_code == 0
        lines = (out / "sweep_p.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 9
        assert lines == res.output.splitlines()


class TestSimulateCommand:
    def test_reference_run_within_three_sigma(self):
        res = invoke("simulate", "--graph", "complete", "--n", "2", "--p", "0.5",
                     "--eps", "0.4", "--horizon", "200", "--ensemble", "4000",
                     "--seed", "42")
        row = parse_csv(res.output)[0]
        j_hat, se = as_float(row["j_hat"]), as_float(row["std_error"])
        assert abs(j_hat - 25.0 / 12.0) <= 3.0 * se
        assert row["converged"] == "true"

    def test_schema_has_no_exact_columns(self, monkeypatch):
        # no row solves for the exact index, at any N
        def unused(*args):
            raise AssertionError("simulate solved for the exact index")

        monkeypatch.setattr(noise_index, "exact_noise_index", unused)
        assert "j_exact" not in COMMAND_COLUMNS["simulate"]
        assert COMMAND_COLUMNS["simulate"][-8:] == [
            "horizon", "ensemble", "seed", "j_hat", "std_error", "converged", "bias_bound",
            "mf_corr"]
        args = ("simulate", "--graph", "path", "--n", "10", "--k", "0.8", "--ensemble", "50")
        res = invoke(*args)
        assert res.exit_code == 0
        assert res.output.splitlines()[0].split(",") == COMMAND_COLUMNS["simulate"]
        res = invoke(*args, "--format", "json")
        assert res.exit_code == 0
        assert list(json.loads(res.output)[0]) == COMMAND_COLUMNS["simulate"]

    def test_p_list_rows_equal_single_p_runs(self):
        # every row runs from the same --seed, so a p list changes no row
        args = ("simulate", "--graph", "path", "--n", "6", "--k", "0.8", "--ensemble", "50",
                "--seed", "1")
        res = invoke(*args, "--p", "0.5", "--p", "0.9")
        assert res.exit_code == 0
        header, *rows = res.output.splitlines()
        singles = [invoke(*args, "--p", p).output.splitlines() for p in ("0.5", "0.9")]
        assert [header] * 2 == [single[0] for single in singles]
        assert rows == [single[1] for single in singles]

    def test_drift_column_last(self):
        # the schema's tail is the bound on the drift left, bias_bound, then
        # the control variate's correlation
        res = invoke("simulate", "--graph", "path", "--n", "6", "--k", "0.8",
                     "--horizon", "40", "--ensemble", "100")
        assert res.output.splitlines()[0].split(",")[-2:] == ["bias_bound", "mf_corr"]
        row = parse_csv(res.output)[0]
        assert row["converged"] == ("true" if as_float(row["bias_bound"]) < BURN_IN_CHECK
                                    else "false")
        assert 0.0 < as_float(row["mf_corr"]) <= 1.0
        res = invoke("simulate", "--graph", "path", "--n", "6", "--k", "0.8",
                     "--horizon", "40", "--ensemble", "100", "--format", "json")
        record = json.loads(res.output)[0]
        assert list(record)[-2:] == ["bias_bound", "mf_corr"]
        assert record["converged"] == (record["bias_bound"] < BURN_IN_CHECK)
        assert record["mf_corr"] == pytest.approx(as_float(row["mf_corr"]), rel=1e-11)

    def test_zero_variance(self):
        res = invoke("simulate", "--graph", "path", "--n", "4", "--k", "0.8",
                     "--sigma2", "0", "--horizon", "20", "--ensemble", "10")
        row = parse_csv(res.output)[0]
        assert as_float(row["j_hat"]) == 0.0

    def test_estimate_inside_resistance_sandwich(self):
        res = invoke("simulate", "--graph", "path", "--n", "10", "--k", "0.8",
                     "--ensemble", "4000", "--seed", "1")
        row = parse_csv(res.output)[0]
        j_hat = as_float(row["j_hat"])
        assert as_float(row["j_res_lb"]) <= j_hat <= as_float(row["j_res_ub"])

    def test_default_horizon_reads_every_mode(self):
        # on the 2x2 grid at p = 1 and k = 0.99 the slowest second moment is
        # the top Laplacian eigenvalue's, nu_max = 0.96: the default horizon
        # of 228 steps is converged. At p = 1 the walk is deterministic
        # and the control variate cancels it, so j_hat is the control's
        # mean j_lb, which equals J
        args = ("--graph", "grid2d", "--dims", "2x2", "--k", "0.99", "--p", "1")
        res = invoke("simulate", *args, "--ensemble", "200", "--seed", "1")
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert int(row["horizon"]) == 228
        assert row["converged"] == "true"
        j_exact = as_float(parse_csv(invoke("exact", *args).output)[0]["j_exact"])
        assert as_float(row["j_hat"]) == pytest.approx(j_exact, rel=1e-12)

    def test_soft_mode_exit_zero(self):
        res = invoke("simulate", "--graph", "path", "--n", "10", "--k", "0.8",
                     "--horizon", "3", "--ensemble", "200")
        assert res.exit_code == 0
        assert parse_csv(res.output)[0]["converged"] == "false"

    def test_erdos_renyi_row_is_one_draw(self):
        res = invoke("simulate", "--graph", "erdos-renyi", "--n", "8", "--p-er", "0.5",
                     "--k", "0.8", "--ensemble", "20")
        assert res.exit_code == 0
        assert int(parse_csv(res.output)[0]["realizations"]) == 1

    @pytest.mark.parametrize("extra,nulls", [
        (("--horizon", "1", "--ensemble", "1"), {"mf_corr"}),
        (("--sigma2", "0", "--horizon", "20", "--ensemble", "10"), {"mf_corr"}),
    ], ids=["one-step", "noiseless"])
    def test_json_writes_non_finite_as_null(self, extra, nulls):
        def reject(token):
            raise AssertionError(f"invalid JSON constant {token}")

        res = invoke("simulate", "--graph", "path", "--n", "4", "--k", "0.8",
                     "--format", "json", *extra)
        assert res.exit_code == 0
        (record,) = json.loads(res.output, parse_constant=reject)
        assert {c for c in ("bias_bound", "mf_corr") if record[c] is None} == nulls
        res = invoke("simulate", "--graph", "path", "--n", "4", "--k", "0.8", *extra)
        row = parse_csv(res.output)[0]
        assert {c for c in ("bias_bound", "mf_corr") if row[c] in ("inf", "nan")} == nulls


class TestErdosRenyiRows:
    def test_seed_reaches_the_erdos_renyi_rows_of_a_family_list(self):
        res = invoke("exact", "--graph", "path", "--graph", "erdos-renyi", "--n", "6",
                     "--k", "0.8", "--p", "0.5", "--seed", "5")
        assert res.exit_code == 0
        assert [row["er_seed"] for row in parse_csv(res.output)] == ["", "5"]

    def test_seed_and_resamples_recorded(self):
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "15", "--k", "0.8",
                     "--p-er", "0.4", "--seed", "7")
        row = parse_csv(res.output)[0]
        assert int(row["er_seed"]) == 7
        assert int(row["er_resamples"]) >= 1
        assert int(row["realizations"]) == 1

    def test_realization_averaging(self):
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "15", "--k", "0.8",
                     "--p-er", "0.6", "--seed", "7", "--realizations", "4")
        row = parse_csv(res.output)[0]
        assert int(row["realizations"]) == 4
        assert row["n"] == "15"
        assert as_float(row["j_lb_std"]) >= 0.0
        assert as_float(row["j_ub_std"]) >= 0.0
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "15", "--k", "0.8",
                     "--p-er", "0.6", "--seed", "7", "--realizations", "4",
                     "--format", "json")
        assert json.loads(res.output)[0]["n"] == 15

    def test_deterministic_for_fixed_seed(self):
        args = ("bounds", "--graph", "erdos-renyi", "--n", "18", "--k", "0.8",
                "--p-er", "0.5", "--seed", "3", "--realizations", "2")
        assert invoke(*args).output == invoke(*args).output


class TestReportCommand:
    def test_report_determinism_and_manifest(self, tmp_path, monkeypatch):
        # the range straddles the exact cap, and --sweep-p-n lies above it,
        # where sweep-p rows are still exact at their own N; the manifest
        # reads the thread variables, which BLAS has long since read
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            res = invoke("report", "--output", str(out), "--n-range", "22:26",
                         "--sweep-p-n", "26", "--seed", "11")
            assert res.exit_code == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs == sorted(p.name for p in out2.glob("*.csv"))
        assert len(csvs) == 7
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["skipped"] == []
        assert manifest["parameters"]["exact_cap"] == EXACT_MAX_N
        assert "exact_n" not in manifest["parameters"]
        assert list(manifest) == ["package", "version", "seed", "parameters", "files",
                                  "skipped", "total_seconds", "runtime"]
        runtime = manifest["runtime"]
        assert runtime["python"] == ".".join(map(str, sys.version_info[:3]))
        assert runtime["numpy"] == np.__version__
        assert runtime["scipy"] == scipy.__version__
        assert runtime["blas"] == {
            key: np.show_config(mode="dicts")["Build Dependencies"]["blas"][key]
            for key in ("name", "version")
        }
        assert list(runtime) == ["python", "numpy", "scipy", "blas", "usable_cpus",
                                 "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
        assert runtime["usable_cpus"] == len(os.sched_getaffinity(0))
        assert runtime["OPENBLAS_NUM_THREADS"] == "3"
        assert runtime["OMP_NUM_THREADS"] is None
        for row in parse_csv((out1 / "path_sweep_n.csv").read_text()):
            assert (row["j_exact"] != "") == (int(row["n"]) <= EXACT_MAX_N)
        for row in parse_csv((out1 / "sweep_p.csv").read_text()):
            assert int(row["n_exact"]) == int(row["n"]) and row["j_exact"] != ""
        assert set(manifest["files"]) == set(csvs)
        for name, entry in manifest["files"].items():
            assert entry["rows"] >= 1
            assert len(entry["sha256"]) == 64

    def test_creates_missing_directory(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        res = invoke("report", "--output", str(out), "--n-range", "3:5",
                     "--sweep-p-n", "5")
        assert res.exit_code == 0
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == ["grid3d"]
        assert not (out / "grid3d_sweep_n.csv").exists()
        assert (out / "grid2d_sweep_n.csv").exists()

    # the 3:6 range skips grid3d, whose note must not come before the error
    @pytest.mark.parametrize("args,message", [
        (("--n-range", "3:6", "--sweep-p-n", "6", "--k", "1.5"),
         "'--k': 1.5 is not in the range"),
        (("--n-range", "9:3"), "--n-range must satisfy A <= B"),
        (("--n-range", "3:6", "--sweep-p-n", "6", "--seed", "-1"),
         "'--seed': -1 is not in the range"),
        (("--n-range", "3:5", "--sweep-p-n", "5", "--p", "nan"),
         "'--p': nan is not in the range"),
        (("--n-range", "3:5", "--sweep-p-n", "5", "--sigma2", "nan"),
         "'--sigma2': nan is not in the range"),
        (("--n-range", "3:5", "--sweep-p-n", "5", "--realizations", "99999999999999999999"),
         "'--realizations': 99999999999999999999 is not in the range"),
    ], ids=["k", "n-range", "seed", "p-nan", "sigma2-nan", "realizations-oversized"])
    def test_validation_error_leaves_nothing(self, tmp_path, args, message, bounded_rows):
        res = invoke("report", "--output", str(tmp_path / "rep"), *args)
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert message in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_every_output_parses_with_stable_schema(self, tmp_path):
        out = tmp_path / "rep"
        invoke("report", "--output", str(out), "--n-range", "3:8",
               "--sweep-p-n", "6")
        for path in out.glob("*_sweep_n.csv"):
            rows = parse_csv(path.read_text())
            assert list(rows[0]) == COMMAND_COLUMNS["exact"]
        rows = parse_csv((out / "sweep_p.csv").read_text())
        assert list(rows[0]) == COMMAND_COLUMNS["exact"]


class TestIoErrors:
    """An unusable output or input path exits 4 with one line naming it."""

    @pytest.mark.parametrize("args,culprit", [
        (("bounds", "--graph", "path", "--n", "5", "--k", "0.8", "--output", "{file}/x.csv"),
         "{file}/x.csv"),
        (("report", "--n-range", "3:5", "--sweep-p-n", "5", "--output", "{file}/rep"),
         "{file}/rep"),
        (("bounds", "--k", "0.8", "--graph-file", "{dir}"), "{dir}"),
    ], ids=["table-output-under-file", "report-output-under-file", "graph-file-directory"])
    def test_exit_4_names_the_path(self, tmp_path, args, culprit):
        paths = {"file": tmp_path / "plain", "dir": tmp_path / "folder"}
        paths["file"].write_text("")
        paths["dir"].mkdir()
        res = invoke(*(arg.format(**paths) for arg in args))
        assert res.exit_code == 4
        assert res.stderr.strip().count("\n") == 0
        assert res.stderr.startswith("I/O failure: ")
        assert culprit.format(**paths) in res.stderr
        assert res.stdout == ""


class TestEnvironmentIgnored:
    """The entry point takes no option from an environment variable."""

    @staticmethod
    def run_main(monkeypatch, *args):
        monkeypatch.setenv("RIDLNOISE_BOUNDS_K", "0.8")
        monkeypatch.setattr(sys, "argv", ["ridlnoise", *args])
        with pytest.raises(SystemExit) as exc:
            main()
        return exc.value.code

    def test_environment_does_not_supply_an_option(self, monkeypatch):
        assert self.run_main(monkeypatch, "bounds", "--graph", "path", "--n", "5") == 2

    def test_environment_does_not_add_a_second_step_size(self, monkeypatch, capsys):
        code = self.run_main(monkeypatch, "bounds", "--graph", "path", "--n", "5", "--eps", "0.2")
        assert code == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert as_float(row["eps"]) == pytest.approx(0.2)
        assert as_float(row["k"]) == pytest.approx(0.4)


class TestNumberFormatting:
    def test_twelve_significant_digits(self):
        res = invoke("bounds", "--graph", "complete", "--n", "2",
                     "--p", "0.5", "--eps", "0.4")
        row = parse_csv(res.output)[0]
        assert row["j_lb"] == "1.38888888889e+00"
        assert row["sigma2"] == "1.00000000000e+00"

    def test_integers_and_blanks(self):
        res = invoke("bounds", "--graph", "path", "--n", "5", "--k", "0.8")
        row = parse_csv(res.output)[0]
        assert row["n"] == "5"
        assert row["dims"] == ""
        assert row["p_er"] == ""

    def test_every_cell_is_a_builtin(self, monkeypatch, tmp_path):
        # the renderers format None, bool, int, float and str alone; a numpy
        # scalar reaching them fails here, not in json.dumps
        import ridlnoise.cli

        render_rows = ridlnoise.cli.render_rows
        kinds = set()

        def spy(rows, columns, fmt):
            kinds.update(type(row.get(c)) for row in rows for c in columns)
            return render_rows(rows, columns, fmt)

        monkeypatch.setattr(ridlnoise.cli, "render_rows", spy)
        path = tmp_path / "g.edges"
        write_edge_list(make_grid([3, 4]), path)
        er = ("--graph", "erdos-renyi", "--p-er", "0.6", "--k", "0.8")
        runs = [
            ("bounds", *er, "--n", "10:12", "--realizations", "3"),
            ("exact", *er, "--n", "8", "--realizations", "2", "--format", "json"),
            ("simulate", *er, "--n", "8", "--ensemble", "20", "--format", "json"),
            ("bounds", "--graph-file", str(path), "--k", "0.8", "--format", "json"),
            ("exact", "--graph-file", str(path), "--eps", "0.1"),
            ("simulate", "--graph", "grid2d", "--dims", "3x3", "--eps", "0.1",
             "--ensemble", "20"),
            ("report", "--output", str(tmp_path / "report"), "--n-range", "3:6",
             "--sweep-p-n", "6", "--realizations", "2"),
        ]
        for args in runs:
            assert invoke(*args).exit_code == 0, args
        assert kinds <= {type(None), bool, int, float, str}
        assert {bool, int, float, str} <= kinds


class TestRemovedOptions:
    # the options each command had before the exact-size rule became
    # fixed, and the ones it offered but never read
    REMOVED = [
        ("bounds", "--workers"), ("exact", "--workers"),
        ("simulate", "--workers"), ("report", "--workers"),
        ("simulate", "--exact-cap"), ("report", "--exact-cap"), ("report", "--exact-n"),
        ("bounds", "--strict"), ("exact", "--strict"), ("simulate", "--realizations"),
        ("simulate", "--noise"), ("bounds", "--n-range"), ("exact", "--n-range"),
        ("simulate", "--n-range"), ("simulate", "--strict"),
    ]
    @pytest.mark.parametrize("command,option", REMOVED,
                             ids=[f"{c}{o}" for c, o in REMOVED])
    def test_removed_option_exits_2(self, command, option):
        res = invoke(command, option, "2")
        assert res.exit_code == 2
        assert "No such option" in res.stderr
        # whole names: --p is a prefix of --p-er
        assert option not in re.findall(r"--[\w-]+", invoke(command, "--help").output)

    @pytest.mark.parametrize("command", ["bounds", "exact", "simulate"])
    def test_graph_file_is_not_a_family(self, command, tmp_path):
        # --graph file --graph-file P is now --graph-file P alone
        path = tmp_path / "g.edges"
        write_edge_list(make_path(4), path)
        res = invoke(command, "--graph", "file", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 2
        assert "Invalid value for '--graph': 'file' is not one of" in res.stderr

    def test_sweep_n_command_exits_2(self):
        # it was exact with an N <= 24 cap; exact --n A:B gives every row
        res = invoke("sweep-n", "--graph", "path", "--n-range", "3:5", "--k", "0.8")
        assert res.exit_code == 2
        assert "No such command" in res.stderr
        assert "sweep-n" not in cli.commands

    def test_sweep_p_command_exits_2(self):
        # it was exact over lists of families and p; exact repeats --graph and --p
        res = invoke("sweep-p", "--graph", "path", "--n", "5", "--k", "0.8")
        assert res.exit_code == 2
        assert "No such command" in res.stderr
        assert "sweep-p" not in cli.commands


class TestCommandOptions:
    """Each command offers exactly the options it reads, so an option
    group shared between commands cannot add one that is ignored."""

    GRAPH = ["--graph", "--graph-file", "--n", "--dims", "--p-er", "--seed"]
    STEP = ["--eps", "--k", "--sigma2"]
    OUTPUT = ["--output", "--format"]
    OFFERED = {
        "bounds": GRAPH + ["--realizations", "--p"] + STEP + OUTPUT,
        "exact": GRAPH + ["--realizations", "--p"] + STEP + OUTPUT,
        "simulate": GRAPH + ["--p"] + STEP + OUTPUT
        + ["--horizon", "--ensemble"],
        "report": ["--output", "--p", "--k", "--sigma2", "--p-er", "--seed", "--n-range",
                   "--sweep-p-n", "--realizations"],
    }

    def test_option_names_per_command(self):
        offered = {
            name: [opt for param in command.params for opt in param.opts]
            for name, command in cli.commands.items()
        }
        assert offered == self.OFFERED
        counts = {name: len(opts) for name, opts in offered.items()}
        assert counts == {"bounds": 13, "exact": 13, "simulate": 14, "report": 9}
        assert sum(counts.values()) == 49


class TestPublicApi:
    """The package exports exactly these names (submodules aside), so a
    removed name stays removed and a new export is a deliberate choice."""

    EXPORTED = [
        "ErdosRenyiDraw", "ExactIndex", "NoiseReport",
        "NumericalError", "RidlConfig", "SimConfig", "SimEstimate", "SpectralData",
        "UndirectedGraph", "average_effective_resistance", "compute_noise_report",
        "draw_erdos_renyi", "estimate_noise_index",
        "exact_noise_index", "is_connected", "laplacian", "laplacian_spectrum",
        "make_complete", "make_grid", "make_path", "make_star", "omega_projector",
        "read_edge_list", "resistance_bounds", "ridl_bounds", "stein_operator",
        "write_edge_list",
    ]

    def test_exported_names(self):
        exported = sorted(
            name for name, value in vars(ridlnoise).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert exported == self.EXPORTED

    RECORD_FIELDS = {
        "UndirectedGraph": ["n", "edges", "family"],
        "NoiseReport": ["exact", "estimate", "j_lb", "j_ub", "j_res_lb", "j_res_ub", "r_ave",
                        "lambda2", "lambda_n"],
        "ExactIndex": ["j", "iterations", "gap"],
        "SimEstimate": ["horizon", "j_hat", "std_error", "converged", "bias_bound",
                        "mf_corr"],
        "SimConfig": ["horizon", "ensemble", "seed"],
        "RidlConfig": ["p", "epsilon", "sigma2", "d_max"],
    }

    def test_record_fields(self):
        fields = {}
        for name in self.RECORD_FIELDS:
            record = getattr(ridlnoise, name)
            fields[name] = (list(record._fields) if hasattr(record, "_fields")
                            else [f.name for f in dataclasses.fields(record)])
        assert fields == self.RECORD_FIELDS


class TestBenchCommandsParse:
    """Every command the benchmark runs parses against the CLI's options,
    so an option change that would break a benchmark run fails here."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        import importlib.util
        import sys

        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        # its dataclass resolves annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    def test_every_benchmark_argv_parses(self, workloads, tmp_path):
        parsed = 0
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                for command in workloads.commands(workload, 7, size, tmp_path):
                    name, *rest = command.argv
                    assert name in cli.commands, command.argv
                    # parse and convert every option without running the command
                    ctx = cli.commands[name].make_context(name, list(rest))
                    assert ctx.params
                    parsed += 1
        assert parsed >= len(workloads.WORKLOADS) * len(workloads.SIZES)

    def test_family_floors_match_the_cli(self, workloads):
        # the bench predicts each report CSV's row count from its own copy
        # of the smallest N per family; a drifted copy would read as failures
        from ridlnoise.cli import _FAMILY_MIN_N

        named = {family: n for family, n in _FAMILY_MIN_N.items() if family != "file"}
        assert workloads.FAMILY_MIN_N == named


class TestBoundsAgreeWithExact:
    """The spectral columns of a ``bounds`` row, read from the eigenvalues
    alone, against those of the ``exact`` row of the same graph, read from
    the eigenpairs: equal bit for bit on the closed-form families, and
    within rounding on graphs that LAPACK eigensolves, where ``eigvalsh``
    and ``eigh`` round differently."""

    COLUMNS = ("lambda2", "lambda_n", "r_ave", "j_lb", "j_ub", "j_res_lb", "j_res_ub")

    @staticmethod
    def rows(command, *args):
        res = invoke(command, *args, "--k", "0.8", *p_args(0.3, 0.9), "--format", "json")
        assert res.exit_code == 0, res.stderr
        return json.loads(res.stdout)

    def assert_agree(self, args, rel):
        bounds, exact = self.rows("bounds", *args), self.rows("exact", *args)
        assert len(bounds) == len(exact) == 2
        for b, e in zip(bounds, exact):
            for column in self.COLUMNS:
                if rel == 0.0:
                    assert b[column] == e[column], column
                else:
                    assert b[column] == pytest.approx(e[column], rel=rel, abs=0.0), column

    @pytest.mark.parametrize("args", [
        ("--graph", "path", "--n", "9"),
        ("--graph", "star", "--n", "9"),
        ("--graph", "grid2d", "--dims", "3x4"),
        ("--graph", "complete", "--n", "7"),
    ], ids=["path9", "star9", "grid3x4", "complete7"])
    def test_closed_forms_agree_bit_for_bit(self, args):
        self.assert_agree(args, 0.0)

    def test_erdos_renyi_agrees_to_rounding(self):
        self.assert_agree(("--graph", "erdos-renyi", "--n", "14", "--p-er", "0.5",
                           "--seed", "3"), 1e-13)

    def test_graph_file_agrees_to_rounding(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(graphs.draw_erdos_renyi(12, 0.4, 5).graph, path)
        self.assert_agree(("--graph-file", str(path)), 1e-13)


class TestOneSpectrumPerGraph:
    """Each built graph gets one spectrum, however many rows and
    estimates read it: eigenvalues only for a bounds-only row, eigenpairs
    where the exact solve or a Monte Carlo estimate runs. The named
    families take it in closed form; other graphs are eigensolved."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        """The order of every spectrum computed, by kind and by route:
        the closed forms, or the LAPACK solve ``graphs._syevd``."""
        calls = {"values": [], "pairs": [], "syevd": [], "lapack": []}
        closed_form, syevd = graphs._closed_form, graphs._syevd

        def counted_closed_form(g, vectors):
            calls["pairs" if vectors else "values"].append(g.n)
            return closed_form(g, vectors)

        def counted_syevd(solver, lap):
            calls["pairs" if solver is np.linalg.eigh else "values"].append(lap.shape[0])
            calls["syevd"].append(lap.shape[0])
            return syevd(solver, lap)

        monkeypatch.setattr(graphs, "_closed_form", counted_closed_form)
        monkeypatch.setattr(graphs, "_syevd", counted_syevd)
        # and every LAPACK eigensolve by name, whichever route calls it
        def counted_lapack(name):
            solver = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls["lapack"].append(name)
                return solver(*args, **kwargs)

            return counted

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted_lapack(name))
        return calls

    def test_sweep_p_one_eigensolve_per_family(self, spectra):
        res = invoke("exact", "--graph", "star", "--graph", "path", "--n", "40", "--k", "0.8",
                     *P_GRID)
        assert res.exit_code == 0
        assert len(parse_csv(res.output)) == 18
        assert spectra == {"values": [], "pairs": [40, 40], "syevd": [], "lapack": []}

    @pytest.fixture
    def graph_options(self, tmp_path):
        """The options naming each graph below; the Erdos-Renyi draw and
        the --graph-file graph are eigensolved by LAPACK."""
        path = tmp_path / "g.edges"
        write_edge_list(make_grid([3, 4]), path)
        return {"path6": ("--graph", "path", "--n", "6"),
                "path30": ("--graph", "path", "--n", "30"),
                "erdos-renyi": ("--graph", "erdos-renyi", "--n", "14", "--p-er", "0.5",
                                "--seed", "3"),
                "file": ("--graph-file", str(path))}

    @pytest.mark.parametrize("graph,n,lapack", [
        ("path6", 6, []), ("path30", 30, []), ("erdos-renyi", 14, ["eigh"]), ("file", 12, ["eigh"]),
    ], ids=["6", "30", "erdos-renyi", "file"])
    def test_simulate_solves_eigenpairs_once(self, spectra, graph_options, graph, n, lapack):
        # the shadow's closed form needs the eigenvectors; the bounds and
        # the default horizon read the same record, at N on both sides of
        # the report's exact cap, and a graph off the named families takes
        # one eigh and no eigvalsh
        res = invoke("simulate", *graph_options[graph], "--k", "0.8", "--ensemble", "20")
        assert res.exit_code == 0
        assert int(parse_csv(res.output)[0]["horizon"]) > 1
        assert spectra == {"values": [], "pairs": [n], "syevd": [n] * len(lapack),
                           "lapack": lapack}

    @pytest.mark.parametrize("graph", ["erdos-renyi", "file"])
    def test_simulate_shares_exact_columns_bit_for_bit(self, graph_options, graph):
        # both read the eigenpairs, so the shared cells are the same floats
        # (bounds, which reads eigenvalues alone, may differ in the last bits)
        args = (*graph_options[graph], "--k", "0.8", "--p", "0.4", "--p", "0.9",
                "--format", "json")
        sim = json.loads(invoke("simulate", *args, "--ensemble", "20").output)
        exact = json.loads(invoke("exact", *args).output)
        shared = COMMAND_COLUMNS["bounds"]
        assert len(sim) == len(exact) == 2
        assert [[row[c] for c in shared] for row in sim] == [
            [row[c] for c in shared] for row in exact]

    def test_bounds_rows_solve_eigenvalues_only(self, spectra):
        res = invoke("bounds", "--graph", "path", "--n", "30:32", "--k", "0.8")
        assert res.exit_code == 0
        assert len(parse_csv(res.output)) == 3
        assert spectra == {"values": [30, 31, 32], "pairs": [], "syevd": [], "lapack": []}

    def test_exact_row_solves_eigenpairs_once(self, spectra):
        res = invoke("exact", "--graph", "path", "--n", "30", "--k", "0.8")
        assert res.exit_code == 0
        assert parse_csv(res.output)[0]["j_exact"] != ""
        assert spectra == {"values": [], "pairs": [30], "syevd": [], "lapack": []}

    def test_named_families_skip_lapack_other_graphs_use_it(self, spectra, tmp_path):
        for family in ("star", "path", "grid2d", "grid3d", "complete"):
            res = invoke("bounds", "--graph", family, "--n", "30", "--k", "0.8")
            assert res.exit_code == 0
        assert spectra["syevd"] == [] and len(spectra["values"]) == 5
        path = tmp_path / "g.edges"
        write_edge_list(make_path(12), path)
        for args in (("--graph-file", str(path)),
                     ("--graph", "erdos-renyi", "--n", "14", "--p-er", "0.5")):
            res = invoke("exact", *args, "--k", "0.8")
            assert res.exit_code == 0
        assert spectra["syevd"] == [12, 14]
        assert spectra["pairs"] == [12, 14]
        assert spectra["lapack"] == ["eigh", "eigh"]


class TestEigenvalueCertificate:
    """A spectrum that fails its certificate, or a LAPACK solve that fails,
    exits 3 with one line, on both routes."""

    @staticmethod
    def edge_file(tmp_path):
        path = tmp_path / "p30.edges"
        write_edge_list(make_path(30), path)
        return str(path)

    def test_perturbed_eigenvalues_exit_3(self, monkeypatch, tmp_path):
        syevd = graphs._syevd

        def perturbed(solver, lap):
            return syevd(solver, lap) * (1.0 + 1e-6)

        monkeypatch.setattr(graphs, "_syevd", perturbed)
        res = invoke("bounds", "--graph-file", self.edge_file(tmp_path),
                     "--k", "0.8")
        assert res.exit_code == 3
        assert res.stderr.strip().count("\n") == 0
        assert "power-sum residual" in res.stderr

    def test_eigensolver_failure_exit_3(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        res = invoke("bounds", "--graph", "erdos-renyi", "--n", "30", "--p-er", "0.5",
                     "--k", "0.8")
        assert res.exit_code == 3
        assert res.stderr.strip().count("\n") == 0
        assert "Eigenvalues did not converge" in res.stderr

    @pytest.mark.parametrize("command,pairs", [("bounds", False), ("exact", True)])
    def test_perturbed_closed_form_exit_3(self, monkeypatch, command, pairs):
        closed_form = graphs._closed_form

        def perturbed(g, vectors):
            assert vectors == pairs
            w, v = closed_form(g, vectors)
            return w * (1.0 + 1e-6), v

        monkeypatch.setattr(graphs, "_closed_form", perturbed)
        res = invoke(command, "--graph", "grid2d", "--dims", "5x6", "--k", "0.8")
        assert res.exit_code == 3
        assert res.stderr.strip().count("\n") == 0
        assert ("eigensolver residual" if pairs else "power-sum residual") in res.stderr


class TestBenchRowChecks:
    """The benchmark's row checks, with their fixed absolute sandwich
    slack, pass on every row of a report whose sweep-p rows lie above
    EXACT_MAX_N."""

    @pytest.fixture
    def checks(self, monkeypatch):
        import importlib
        import sys

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        yield importlib.import_module("checks")
        for name in ("checks", "workloads"):
            sys.modules.pop(name, None)

    def test_report_rows_pass_bench_checks(self, checks, tmp_path):
        out = tmp_path / "rep"
        res = invoke("report", "--output", str(out), "--n-range", "22:30",
                     "--sweep-p-n", "30")
        assert res.exit_code == 0
        checked = 0
        for path in sorted(out.glob("*.csv")):
            for row in parse_csv(path.read_text()):
                assert checks.row_problems(row) == [], path.name
                checked += 1
        sweep_p = parse_csv((out / "sweep_p.csv").read_text())
        assert all(row["n_exact"] == row["n"] for row in sweep_p)
        assert checked == 6 * 9 + len(sweep_p)

    def test_tiny_simulate_passes_bench_checks(self, checks, tmp_path):
        workloads = sys.modules["workloads"]
        (command,) = workloads.commands("simulate-grid16", 7, "tiny", tmp_path)
        res = invoke(*command.argv)
        assert res.exit_code == 0
        (row,) = parse_csv(command.output.read_text())
        assert row["converged"] == "true"
        assert checks.row_problems(row) == []
        assert checks.simulate_problems(row) == []
