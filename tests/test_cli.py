import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ridlnoise import make_grid, make_path, write_edge_list
from ridlnoise.cli import COMMAND_COLUMNS, cli

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(
        cli, list(args), env=env, auto_envvar_prefix="RIDLNOISE", catch_exceptions=False
    )


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows parsed from: {text[:200]}"
    return rows


def as_float(cell):
    assert cell != ""
    return float(cell)


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
        res = invoke("bounds", "--graph", "star", "--n-range", "3:6", "--k", "0.8")
        lines = res.output.strip().splitlines()
        assert lines[0].split(",") == COMMAND_COLUMNS["bounds"]
        assert len(lines) == 5

    def test_star_sweep_matches_closed_form_curve(self):
        from ridlnoise import RidlConfig, make_star, star_closed_form_bounds

        res = invoke("bounds", "--graph", "star", "--n-range", "3:40", "--k", "0.8")
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
        res = invoke("bounds", "--graph", "file", "--graph-file", str(path), "--k", "0.8")
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

    def test_disconnected_graph_file(self, tmp_path):
        path = tmp_path / "dis.edges"
        path.write_text("4 2\n0 1\n2 3\n")
        res = invoke("bounds", "--graph", "file", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert "disconnected" in res.stderr

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
        (("bounds", "--graph", "path", "--n-range", "3-9", "--k", "0.8"),
         "--n-range must look like A:B"),
        (("bounds", "--graph", "path", "--n-range", "9:3", "--k", "0.8"),
         "--n-range must satisfy A <= B"),
        (("bounds", "--graph", "grid2d", "--dims", "3by3", "--k", "0.8"),
         "--dims must look like AxB"),
        (("bounds", "--graph", "grid3d", "--dims", "2x2x2x2", "--k", "0.8"),
         "--dims supports 1 to 3 sides"),
        (("sweep-p", "--families", "path", "--k", "0.8", "--p-grid", "0.1-0.9"),
         "--p-grid must look like LO:HI:STEP"),
        (("sweep-p", "--families", "path", "--k", "0.8", "--p-grid", "0.9:0.1:0.1"),
         "--p-grid bounds are inconsistent"),
    ], ids=["config", "spec", "n-range-form", "n-range-order", "dims-form", "dims-sides",
            "p-grid-form", "p-grid-order"])
    def test_usage_errors_are_one_line(self, args, message):
        res = invoke(*args)
        assert res.exit_code == 2
        assert res.stderr.strip().count("\n") == 0
        assert message in res.stderr


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
        res = invoke("exact", "--graph", "path", "--n-range", "3:12", "--k", "0.8")
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

    def test_graph_file_n70(self, tmp_path):
        path = tmp_path / "p70.edges"
        write_edge_list(make_path(70), path)
        res = invoke("exact", "--graph", "file", "--graph-file", str(path), "--k", "0.8")
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert int(row["n"]) == int(row["n_exact"]) == 70

    def test_sparse_family_lower_bound_tighter(self):
        # Both star bounds share the large-N slope sigma^2/(2 k p^2), so
        # both relative errors vanish as N grows, the lower bound's at
        # least like 1/N. Which bound is closer is not part of the claim:
        # at p = 0.9 the upper bound is, for every N here.
        res = invoke("exact", "--graph", "star", "--n-range", "5:25", "--k", "0.8")
        rows = parse_csv(res.output)
        n = np.array([int(r["n"]) for r in rows])
        rel_lb = np.array([as_float(r["rel_lb"]) for r in rows])
        rel_ub = np.array([as_float(r["rel_ub"]) for r in rows])
        assert np.all(rel_lb >= 0.0) and np.all(rel_ub >= 0.0)
        assert np.all(np.diff(rel_lb) < 0.0)
        assert np.all(np.diff(rel_ub) < 0.0)
        assert np.all(np.diff(n * rel_lb) <= 0.0)


class TestSweepN:
    def test_exact_fades_beyond_cap(self):
        res = invoke("sweep-n", "--graph", "path", "--n-range", "3:30", "--k", "0.8",
                     "--exact-cap", "12")
        rows = parse_csv(res.output)
        for row in rows:
            if int(row["n"]) <= 12:
                assert row["j_exact"] != ""
            else:
                assert row["j_exact"] == ""
                assert row["j_lb"] != ""

    def test_grid_rows_record_actual_n(self):
        res = invoke("sweep-n", "--graph", "grid2d", "--n-range", "4:12", "--k", "0.8",
                     "--exact-cap", "0")
        for row in parse_csv(res.output):
            side = round(int(row["n_requested"]) ** 0.5)
            assert int(row["n"]) == max(2, side) ** 2
            assert row["dims"].count("x") == 1


class TestSweepP:
    def test_grid_and_monotone_lower_bound(self):
        res = invoke("sweep-p", "--families", "star,complete", "--n", "100",
                     "--k", "0.8", "--exact-n", "8")
        rows = parse_csv(res.output)
        by_family = {}
        for row in rows:
            by_family.setdefault(row["family"], []).append(row)
        assert set(by_family) == {"star", "complete"}
        for fam_rows in by_family.values():
            assert len(fam_rows) == 9  # 0.1 .. 0.9
            ps = [as_float(r["p"]) for r in fam_rows]
            assert ps == sorted(ps)
            lbs = [as_float(r["j_lb"]) for r in fam_rows]
            assert all(a > b for a, b in zip(lbs, lbs[1:]))

    def test_reduced_exact_recorded(self):
        res = invoke("sweep-p", "--families", "path", "--n", "50", "--k", "0.8",
                     "--exact-n", "10", "--p-grid", "0.5:0.9:0.4")
        for row in parse_csv(res.output):
            assert int(row["n"]) == 50
            assert int(row["n_exact"]) == 10
            assert row["j_exact"] != ""

    def test_graph_file(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(make_grid([3, 4]), path)
        res = invoke("sweep-p", "--graph", "file", "--graph-file", str(path), "--k", "0.8",
                     "--families", "")
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert len(rows) == 9
        for row in rows:
            assert row["family"] == "file"
            assert int(row["n"]) == int(row["n_exact"]) == 12

    def test_endpoint_matches_sweep_n_row(self):
        res_p = invoke("sweep-p", "--families", "star", "--n", "40", "--k", "0.8",
                       "--p-grid", "0.9:0.9:0.1", "--exact-n", "0")
        res_n = invoke("bounds", "--graph", "star", "--n", "40", "--k", "0.8",
                       "--p", "0.9")
        row_p = parse_csv(res_p.output)[0]
        row_n = parse_csv(res_n.output)[0]
        for col in ("j_lb", "j_ub", "j_res_lb", "j_res_ub", "r_ave"):
            assert row_p[col] == row_n[col]


class TestSimulateCommand:
    def test_reference_run_within_three_sigma(self):
        res = invoke("simulate", "--graph", "complete", "--n", "2", "--p", "0.5",
                     "--eps", "0.4", "--horizon", "200", "--ensemble", "4000",
                     "--seed", "42")
        row = parse_csv(res.output)[0]
        j_hat, se = as_float(row["j_hat"]), as_float(row["std_error"])
        assert abs(j_hat - 25.0 / 12.0) <= 3.0 * se
        assert row["converged"] == "true"
        assert as_float(row["j_exact"]) == pytest.approx(25.0 / 12.0, rel=1e-11)

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

    def test_strict_mode_exit_code(self):
        res = invoke("simulate", "--graph", "path", "--n", "10", "--k", "0.8",
                     "--horizon", "3", "--ensemble", "200", "--strict")
        assert res.exit_code == 3

    def test_soft_mode_exit_zero(self):
        res = invoke("simulate", "--graph", "path", "--n", "10", "--k", "0.8",
                     "--horizon", "3", "--ensemble", "200")
        assert res.exit_code == 0
        assert parse_csv(res.output)[0]["converged"] == "false"


class TestErdosRenyiRows:
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
        assert as_float(row["j_lb_std"]) >= 0.0
        assert as_float(row["j_ub_std"]) >= 0.0

    def test_deterministic_for_fixed_seed(self):
        args = ("bounds", "--graph", "erdos-renyi", "--n", "18", "--k", "0.8",
                "--p-er", "0.5", "--seed", "3", "--realizations", "2")
        assert invoke(*args).output == invoke(*args).output


class TestReportCommand:
    def test_report_determinism_and_manifest(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            res = invoke("report", "--output", str(out), "--n-range", "3:12",
                         "--sweep-p-n", "10", "--exact-cap", "8", "--exact-n", "6",
                         "--seed", "11")
            assert res.exit_code == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs == sorted(p.name for p in out2.glob("*.csv"))
        assert len(csvs) == 7
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["skipped"] == []
        assert set(manifest["files"]) == set(csvs)
        for name, entry in manifest["files"].items():
            assert entry["rows"] >= 1
            assert len(entry["sha256"]) == 64

    def test_creates_missing_directory(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        res = invoke("report", "--output", str(out), "--n-range", "3:5",
                     "--sweep-p-n", "5", "--exact-cap", "5", "--exact-n", "4")
        assert res.exit_code == 0
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == ["grid3d"]
        assert not (out / "grid3d_sweep_n.csv").exists()
        assert (out / "grid2d_sweep_n.csv").exists()

    def test_every_output_parses_with_stable_schema(self, tmp_path):
        out = tmp_path / "rep"
        invoke("report", "--output", str(out), "--n-range", "3:8",
               "--sweep-p-n", "6", "--exact-cap", "6", "--exact-n", "4")
        for path in out.glob("*_sweep_n.csv"):
            rows = parse_csv(path.read_text())
            assert list(rows[0]) == COMMAND_COLUMNS["sweep-n"]
        rows = parse_csv((out / "sweep_p.csv").read_text())
        assert list(rows[0]) == COMMAND_COLUMNS["sweep-p"]


class TestEnvVarOverrides:
    def test_option_via_environment(self):
        res = invoke("bounds", "--graph", "path", "--n", "5",
                     env={"RIDLNOISE_BOUNDS_K": "0.8"})
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert as_float(row["k"]) == pytest.approx(0.8)

    def test_flag_beats_environment(self):
        res = invoke("bounds", "--graph", "path", "--n", "5", "--k", "0.5",
                     env={"RIDLNOISE_BOUNDS_K": "0.8"})
        row = parse_csv(res.output)[0]
        assert as_float(row["k"]) == pytest.approx(0.5)


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
