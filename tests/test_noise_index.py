import numpy as np
import pytest

from ridlnoise import (
    NumericalError,
    RidlConfig,
    complete_closed_form_bounds,
    compute_noise_report,
    exact_noise_index,
    expected_p,
    expected_p_squared,
    family_asymptotics,
    generic_bounds,
    laplacian_spectrum,
    make_complete,
    make_grid,
    make_path,
    make_star,
    path_closed_form_bounds,
    resistance_bounds,
    ridl_bounds,
    star_closed_form_bounds,
    sym_eigen,
)
from ridlnoise import noise_index
from ridlnoise.graphs import _build, average_effective_resistance

from oracles import K_VARIANTS, dense_exact

K2 = make_complete(2)
K2_CFG = RidlConfig.for_graph(K2, p=0.5, sigma2=1.0, epsilon=0.4)


def exact_for(g, cfg):
    return exact_noise_index(g, cfg).j


class TestExactIndex:
    def test_k2_reference_value(self):
        # 1-D reduction: the disagreement mode contracts by 0.2 w.p. 1/4
        # and 1 w.p. 3/4, so E||delta||^2 -> 1 / (1 - 0.76) and J = 25/12
        assert exact_for(K2, K2_CFG) == pytest.approx(25.0 / 12.0, abs=1e-12)

    def test_deterministic_mode_matches_spectral_formula(self):
        for g in (make_path(7), make_star(6), make_grid([2, 3])):
            cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
            lam = sym_eigen(expected_p(g, cfg)).eigenvalues[:-1]
            formula = cfg.sigma2 / g.n * np.sum(1.0 / (1.0 - lam**2))
            assert exact_for(g, cfg) == pytest.approx(formula, abs=1e-10)

    def test_star5_moments_vs_enumeration(self):
        g = make_star(5)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        j_m = dense_exact(g, cfg, method="moments")
        j_e = dense_exact(g, cfg, method="enumeration")
        assert j_m == pytest.approx(j_e, abs=1e-10)
        assert exact_for(g, cfg) == pytest.approx(j_e, abs=1e-10)

    def test_variant_invariance(self):
        g = make_grid([2, 3])
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=2.0, k=0.6)
        values = [dense_exact(g, cfg, variant=v) for v in K_VARIANTS]
        values.append(exact_for(g, cfg))
        assert max(values) - min(values) <= 1e-10

    @pytest.mark.parametrize("p,k", [(0.1, 0.2), (0.5, 0.99), (0.9, 0.8), (1.0, 0.2)])
    @pytest.mark.parametrize(
        "g", [make_star(25), make_path(25), make_grid([4, 4]), make_complete(16)],
        ids=["star25", "path25", "grid44", "complete16"],
    )
    def test_matches_dense_operator(self, g, p, k):
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=k)
        assert exact_for(g, cfg) == pytest.approx(dense_exact(g, cfg), rel=1e-10)

    def test_unconverged_solve_raises(self, monkeypatch):
        g = make_grid([3, 3])
        cfg = RidlConfig.for_graph(g, p=0.5, sigma2=1.0, k=0.8)
        assert exact_noise_index(g, cfg).iterations > 1
        monkeypatch.setattr(noise_index, "_CG_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="residual target"):
            exact_noise_index(g, cfg)

    def test_scales_linearly_in_sigma2(self):
        g = make_path(5)
        cfg1 = RidlConfig.for_graph(g, p=0.8, sigma2=1.0, k=0.8)
        cfg3 = RidlConfig.for_graph(g, p=0.8, sigma2=3.0, k=0.8)
        assert exact_for(g, cfg3) == pytest.approx(3.0 * exact_for(g, cfg1), rel=1e-12)

    def test_zero_variance_gives_zero(self):
        g = make_path(4)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=0.0, k=0.8)
        assert exact_for(g, cfg) == 0.0

    def test_disconnected_graph_is_singular(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        with pytest.raises(NumericalError, match="singular"):
            exact_noise_index(g, cfg)

    def test_monotone_growth_for_sparse_families(self):
        for maker in (make_star, make_path):
            for m in (5, 10, 20):
                g_small, g_big = maker(m), maker(2 * m)
                j_small = exact_for(
                    g_small, RidlConfig.for_graph(g_small, 0.9, 1.0, k=0.8)
                )
                j_big = exact_for(g_big, RidlConfig.for_graph(g_big, 0.9, 1.0, k=0.8))
                assert j_big > j_small

    def test_complete_plateau(self):
        g20, g40 = make_complete(20), make_complete(40)
        j20 = exact_for(g20, RidlConfig.for_graph(g20, 0.9, 1.0, k=0.8))
        j40 = exact_for(g40, RidlConfig.for_graph(g40, 0.9, 1.0, k=0.8))
        assert abs(j40 - j20) / j20 < 0.05


class TestGenericBounds:
    def test_k2_reference(self):
        j_lb, j_ub = generic_bounds(
            expected_p(K2, K2_CFG), expected_p_squared(K2, K2_CFG), 1.0
        )
        assert j_lb == pytest.approx(25.0 / 18.0, abs=1e-12)
        assert j_ub == pytest.approx(25.0 / 12.0, abs=1e-12)

    def test_deterministic_collapse(self):
        g = make_path(6)
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
        j_lb, j_ub = generic_bounds(expected_p(g, cfg), expected_p_squared(g, cfg), 1.0)
        assert abs(j_ub - j_lb) <= 1e-12

    def test_k2_deterministic_hand_value(self):
        cfg = RidlConfig.for_graph(K2, p=1.0, sigma2=1.0, epsilon=0.4)
        j_lb, j_ub = generic_bounds(expected_p(K2, cfg), expected_p_squared(K2, cfg), 1.0)
        assert j_lb == pytest.approx(0.5 / (1.0 - 0.2**2), abs=1e-12)
        assert j_ub == pytest.approx(j_lb, abs=1e-12)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="stochastic"):
            generic_bounds(np.eye(3) * 0.5, np.eye(3), 1.0)

    def test_disconnected_unit_eigenvalue_flagged(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        with pytest.raises(NumericalError, match="not simple"):
            generic_bounds(expected_p(g, cfg), expected_p_squared(g, cfg), 1.0)


class TestRidlBounds:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("k", [0.4, 0.8])
    @pytest.mark.parametrize(
        "g",
        [make_star(8), make_path(9), make_grid([3, 3]), make_grid([2, 2, 2]),
         make_complete(10), make_star(30), make_path(30), make_complete(30)],
        ids=["star8", "path9", "grid33", "grid222", "complete10",
             "star30", "path30", "complete30"],
    )
    def test_agrees_with_generic_bounds(self, g, p, k):
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=k)
        lb1, ub1 = ridl_bounds(laplacian_spectrum(g), cfg)
        lb2, ub2 = generic_bounds(expected_p(g, cfg), expected_p_squared(g, cfg), 1.0)
        assert lb1 == pytest.approx(lb2, abs=1e-10, rel=1e-10)
        assert ub1 == pytest.approx(ub2, abs=1e-10, rel=1e-10)

    def test_disconnected_rejected(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        with pytest.raises(ValueError, match="disconnected"):
            ridl_bounds(laplacian_spectrum(g), cfg)


class TestResistanceBounds:
    def test_k2_hand_values(self):
        rb = resistance_bounds(0.25, K2_CFG)
        assert rb.lb == pytest.approx(1.25, abs=1e-12)
        assert rb.ub == pytest.approx(25.0 / 6.0, abs=1e-12)

    def test_degree_form_agrees(self):
        for g in (make_star(12), make_path(15), make_complete(9)):
            cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.5, k=0.55)
            rb = resistance_bounds(average_effective_resistance(g), cfg)
            assert rb.lb == pytest.approx(rb.lb_degree_form, abs=1e-12, rel=1e-12)
            assert rb.ub == pytest.approx(rb.ub_degree_form, abs=1e-12, rel=1e-12)

    def test_relaxes_the_spectral_lower_bound(self):
        for g in (make_star(10), make_path(12), make_grid([3, 4]), make_complete(8)):
            for p in (0.3, 0.9):
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
                spec = laplacian_spectrum(g)
                j_lb, j_ub = ridl_bounds(spec, cfg)
                rb = resistance_bounds(average_effective_resistance(g, spec), cfg)
                assert rb.lb <= j_lb + 1e-12
                assert j_ub <= rb.ub + 1e-12

    def test_upper_bound_diverges_near_unit_step(self):
        g = make_path(8)
        ub = {}
        for k in (0.5, 0.99):
            cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=k)
            ub[k] = resistance_bounds(average_effective_resistance(g), cfg).ub
        assert ub[0.99] / ub[0.5] > 10.0

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            resistance_bounds(0.0, K2_CFG)


class TestClosedFormEvaluators:
    @pytest.mark.parametrize("n", range(3, 101))
    def test_star_path_complete_match_spectral_path(self, n):
        for maker, closed in (
            (make_star, star_closed_form_bounds),
            (make_path, path_closed_form_bounds),
            (make_complete, complete_closed_form_bounds),
        ):
            g = maker(n)
            cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
            lb_s, ub_s = ridl_bounds(laplacian_spectrum(g), cfg)
            lb_c, ub_c = closed(n, cfg)
            assert lb_s == pytest.approx(lb_c, abs=1e-10, rel=1e-10)
            assert ub_s == pytest.approx(ub_c, abs=1e-10, rel=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            star_closed_form_bounds(2, K2_CFG)
        with pytest.raises(ValueError):
            path_closed_form_bounds(1, K2_CFG)
        with pytest.raises(ValueError):
            complete_closed_form_bounds(1, K2_CFG)


class TestFamilyAsymptotics:
    def test_star_slope(self):
        g = make_star(100)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        scaling = family_asymptotics("star", 100, cfg)
        assert scaling.growth == "linear"
        assert scaling.slope == pytest.approx(1.0 / (2 * 0.8 * 0.81), abs=1e-12)
        assert scaling.slope == pytest.approx(0.7716, abs=5e-5)
        assert scaling.predicted_value == pytest.approx(100 * scaling.slope)

    def test_complete_limits(self):
        g = make_complete(50)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        scaling = family_asymptotics("complete", 50, cfg)
        assert scaling.growth == "bounded"
        assert scaling.lb_limit == pytest.approx(1.0 / (0.648 * (2 - 0.648)), abs=1e-12)
        assert scaling.ub_limit == pytest.approx(1.0 / (0.648 * (2 - 0.72)), abs=1e-12)
        assert scaling.lb_limit == pytest.approx(1.1414, abs=5e-5)
        assert scaling.ub_limit == pytest.approx(1.2056, abs=5e-5)

    def test_grids_report_linear_growth(self):
        cfg = RidlConfig(p=0.9, epsilon=0.2, sigma2=1.0, d_max=4)
        for fam in ("path", "grid2d", "grid3d"):
            assert family_asymptotics(fam, 50, cfg).growth == "linear"

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            family_asymptotics("torus", 10, K2_CFG)


class TestNoiseReport:
    def test_sandwich_chain_small_sweep(self):
        for maker, n in ((make_star, 8), (make_path, 9), (make_complete, 8)):
            g = maker(n)
            for p in (0.3, 0.9):
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
                rep = compute_noise_report(g, cfg)
                slack = 1e-9
                assert rep.j_res_lb <= rep.j_lb + slack
                assert rep.j_lb <= rep.j_exact + slack
                assert rep.j_exact <= rep.j_ub + slack
                assert rep.j_ub <= rep.j_res_ub + slack

    def test_exact_tag_records_the_solve(self):
        g = make_path(12)
        cfg = RidlConfig.for_graph(g, p=0.6, sigma2=1.0, k=0.8)
        exact = exact_noise_index(g, cfg)
        assert 1 <= exact.iterations and exact.residual <= noise_index._CG_RTOL
        tag = compute_noise_report(g, cfg).method_tags["j_exact"]
        assert tag == (
            f"stein-pcg[iterations={exact.iterations}, residual={exact.residual:.2e}]"
        )

    def test_exact_absent_beyond_cap(self):
        g = make_path(12)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        rep = compute_noise_report(g, cfg, exact_cap=10)
        assert rep.j_exact is None
        assert "absent" in rep.method_tags["j_exact"]
        assert rep.j_lb > 0 and rep.j_ub > 0

    def test_config_echo(self):
        g = make_star(6)
        cfg = RidlConfig.for_graph(g, p=0.8, sigma2=2.0, k=0.5)
        rep = compute_noise_report(g, cfg)
        assert rep.config == {
            "n": 6, "d_max": 5, "p": 0.8, "epsilon": cfg.epsilon,
            "k": pytest.approx(0.5), "sigma2": 2.0,
        }
