from dataclasses import replace

import numpy as np
import pytest

from ridlnoise import (
    NumericalError,
    RidlConfig,
    SimConfig,
    compute_noise_report,
    estimate_noise_index,
    exact_noise_index,
    make_complete,
    make_grid,
    make_path,
    make_star,
    resistance_bounds,
    ridl_bounds,
)
from ridlnoise import graphs, noise_index, ridl
from ridlnoise.ridl import moment_spectra, omega_projector, stein_operator
from ridlnoise.graphs import (
    UndirectedGraph,
    _build,
    average_effective_resistance,
    laplacian,
    laplacian_eigenpairs,
)

from oracles import (
    K_VARIANTS,
    complete_closed_form_bounds,
    dense_exact,
    enum_expected_p,
    enum_expected_p_squared,
    expected_p,
    expected_p_squared,
    family_asymptotics,
    generic_bounds,
    make_erdos_renyi,
    path_closed_form_bounds,
    star_closed_form_bounds,
    stein_matrix_moments,
)

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
            lam = np.linalg.eigvalsh(expected_p(g, cfg))[:-1]
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
        exact = exact_noise_index(g, cfg)
        dense = dense_exact(g, cfg)
        assert exact.j == pytest.approx(dense, rel=1e-10)
        # the solve's bracket [j, j (1 + gap)] holds the dense value
        slack = 1e-13 * dense
        assert exact.j - slack <= dense <= exact.j * (1.0 + exact.gap) + slack

    def test_unconverged_solve_raises(self, monkeypatch):
        g = make_grid([3, 3])
        cfg = RidlConfig.for_graph(g, p=0.5, sigma2=1.0, k=0.8)
        assert exact_noise_index(g, cfg).iterations > 1
        monkeypatch.setattr(noise_index, "_CG_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="did not certify J"):
            exact_noise_index(g, cfg)

    def test_no_positive_margin_raises(self):
        # d_max understated, so eps lies above 1/d_max of the actual graph:
        # the exact solve and the bounds stop on the one check of 1 - nu
        g = make_path(3)
        cfg = RidlConfig(p=0.5, epsilon=0.9, sigma2=1.0, d_max=1)
        message = (r"^E\[P\^2\] has an eigenvalue >= 1 at Laplacian eigenvalue 3; "
                   r"step size eps=0.9 is too large$")
        with pytest.raises(NumericalError, match=message):
            exact_noise_index(g, cfg)
        with pytest.raises(NumericalError, match=message):
            ridl_bounds(g, cfg)

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


SMALL_GRAPHS = [make_star(7), make_path(8), make_grid([3, 3]), make_complete(6),
                make_erdos_renyi(9, 0.5, 3)]
SMALL_IDS = ["star7", "path8", "grid33", "complete6", "er9"]
MARGIN_P = (0.05, 0.3, 0.7, 0.95, 1.0)
MARGIN_K = (0.3, 0.8, 0.99)


class TestStopCertificate:
    """The facts the exact solve's stopping bracket rests on, and what it
    saves."""

    @pytest.mark.parametrize("g", SMALL_GRAPHS, ids=SMALL_IDS)
    def test_second_moment_by_enumeration(self, g):
        lbar = laplacian(g)
        eye = np.eye(g.n)
        for p in MARGIN_P:
            cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
            e = cfg.epsilon
            p_sq = enum_expected_p_squared(g, cfg)
            formula = eye - 2 * e * p**2 * lbar + e**2 * (
                2 * p**2 * (1 - p) * lbar + p**3 * lbar @ lbar)
            assert np.abs(p_sq - formula).max() <= 1e-13
            # so E[P^2] - E[P]^2 is eps^2 p^2 (1-p) L_bar (2 + p L_bar)
            p_bar = enum_expected_p(g, cfg)
            spread = e**2 * p**2 * (1 - p) * lbar @ (2 * eye + p * lbar)
            assert np.abs(p_sq - p_bar @ p_bar - spread).max() <= 1e-13

    @pytest.mark.parametrize("g", SMALL_GRAPHS, ids=SMALL_IDS)
    def test_margin_below_dense_generalized_spectrum(self, g):
        spectrum = laplacian_eigenpairs(g)
        lam, w = spectrum.eigenvalues, spectrum.eigenvectors[:, 1:]
        basis = np.kron(w, w)  # the disagreement subspace, in vec form
        for p in MARGIN_P:
            for k in MARGIN_K:
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=k)
                delta, one_minus_mu_sq, one_minus_nu = moment_spectra(lam, cfg)
                mean_field = np.sqrt(np.ravel(
                    delta[:, None] + delta[None, :] - np.outer(delta, delta)))
                stein = basis.T @ stein_matrix_moments(g, cfg) @ basis
                pencil = stein / np.outer(mean_field, mean_field)
                lowest = np.linalg.eigvalsh((pencil + pencil.T) / 2)[0]
                # the margin the exact solve's stopping bracket divides by
                margin = float(np.min(one_minus_nu / one_minus_mu_sq))
                assert 0.0 < margin <= 1.0
                assert lowest >= margin - 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("g", [make_path(100), make_grid([10, 10])],
                             ids=["path100", "grid10x10"])
    def test_iterations_at_n100(self, g, p):
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        assert exact_noise_index(g, cfg).iterations <= 7

    @pytest.mark.parametrize("g,iterations", [(make_path(12), 9), (make_grid([3, 4]), 7)],
                             ids=["path12", "grid3x4"])
    def test_restart_from_the_true_residual(self, g, iterations, monkeypatch):
        # a first eigenbasis apply off by 1e-7 V^T (Omega E Omega) V, E
        # symmetric Gaussian, leaves the recurrence's residual that far from
        # the true one: the first confirmation fails, CG restarts from the
        # true residual and certifies the unperturbed J one iteration later
        # (a kick along 11^T would not do: the preconditioner drops that
        # direction). The kick enters through the fluctuation term F, which
        # the eigenbasis apply subtracts, and which the node-basis
        # confirmation's own Stein operator does not share.
        cfg = RidlConfig.for_graph(g, p=0.5, sigma2=1.0, k=0.8)
        reference = exact_noise_index(g, cfg)
        assert reference.iterations == iterations - 1
        e = np.random.default_rng(0).standard_normal((g.n, g.n))
        omega = omega_projector(g.n)
        kick = 1e-7 * omega @ (e + e.T) @ omega
        applies = []

        def first_apply_kicked(g, cfg):
            fluctuation = ridl._fluctuation(g, cfg)

            def apply(x):
                applies.append("eigenbasis")
                return fluctuation(x) - kick if len(applies) == 1 else fluctuation(x)

            return apply

        def counted(g, cfg):
            stein = stein_operator(g, cfg)

            def apply(x):
                applies.append("node basis")
                return stein(x)

            return apply

        monkeypatch.setattr(noise_index, "_fluctuation", first_apply_kicked)
        monkeypatch.setattr(noise_index, "stein_operator", counted)
        exact = exact_noise_index(g, cfg)
        # one apply per iteration, one failed confirmation, one that holds
        assert exact.iterations == iterations
        assert len(applies) == iterations + 2
        assert applies.count("node basis") == 2
        assert exact.j == pytest.approx(reference.j, rel=1e-12)
        assert exact.gap <= 1e-13

    @pytest.mark.parametrize("p", [0.3, 0.9])
    @pytest.mark.parametrize("named", [make_path(100), make_path(200), make_grid([8, 8])],
                             ids=["path100", "path200", "grid8x8"])
    def test_eigensolved_graphs_confirmed_in_the_node_basis(self, named, p):
        # LAPACK's eigenvectors are orthonormal only to rounding, so CG in
        # their eigenbasis alone misses J by up to 3e-12 on path 200; its
        # bracket, confirmed on the node-basis residual, matches the closed
        # form's basis
        solved = UndirectedGraph(named.n, named.edges)
        assert solved.family is None
        cfg = RidlConfig.for_graph(named, p=p, sigma2=1.0, k=0.8)
        reference = exact_noise_index(named, cfg).j
        assert exact_noise_index(solved, cfg).j == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("sides", [(20, 20), (300,)], ids=["grid20x20", "path300"])
    def test_deterministic_mode_at_large_n(self, sides):
        # the Laplacian spectrum in closed form, 4 sin^2(pi i / 2m) summed
        # over the sides (a grid with one side is the path): eigvalsh's
        # absolute error alone moves lambda_2 of path 300 by a few parts
        # in 1e12
        lam = sum(np.meshgrid(*(4.0 * np.sin(np.pi * np.arange(m) / (2 * m)) ** 2
                                for m in sides)))
        g = make_grid(list(sides))
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
        delta = cfg.epsilon * np.sort(np.ravel(lam))[1:]
        formula = cfg.sigma2 / g.n * np.sum(1.0 / (delta * (2.0 - delta)))
        exact = exact_noise_index(g, cfg)
        assert exact.iterations == 1
        assert exact.j == pytest.approx(formula, rel=1e-12)


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
        lb1, ub1 = ridl_bounds(g, cfg)
        lb2, ub2 = generic_bounds(expected_p(g, cfg), expected_p_squared(g, cfg), 1.0)
        assert lb1 == pytest.approx(lb2, abs=1e-10, rel=1e-10)
        assert ub1 == pytest.approx(ub2, abs=1e-10, rel=1e-10)

    def test_disconnected_rejected(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        with pytest.raises(ValueError, match="disconnected"):
            ridl_bounds(g, cfg)


class TestConnectivityCheck:
    """The exact solve, the spectral bounds, the effective resistance and
    the Monte Carlo estimate read one exact test, ``graphs.is_connected``,
    before any spectrum: a disconnected graph, or one of fewer than two
    nodes, fails without an eigensolve. Each caller keeps its own
    exception."""

    @pytest.mark.parametrize("case", [(4, [(0, 1), (2, 3)]), (1, [])],
                             ids=["two-edges", "one-node"])
    def test_rejected_before_any_eigensolve(self, case, monkeypatch):
        solves = []
        monkeypatch.setattr(graphs, "_syevd", lambda *a: solves.append("syevd"))
        monkeypatch.setattr(graphs, "_closed_form", lambda *a: solves.append("closed form"))
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        sim = SimConfig(horizon=5, ensemble=4, seed=0)
        calls = [
            (lambda g: ridl_bounds(g, cfg), ValueError,
             "underlying graph is disconnected; bounds are infinite"),
            (average_effective_resistance, ValueError, "graph is disconnected"),
            (lambda g: exact_noise_index(g, cfg), NumericalError,
             "the Stein equation is singular: the graph is disconnected, so "
             "disagreement does not decay"),
            (lambda g: estimate_noise_index(g, cfg, sim), ValueError,
             "consensus conditions fail: graph is disconnected"),
        ]
        for call, exc, message in calls:
            with pytest.raises(exc) as info:
                call(_build(*case))
            assert type(info.value) is exc
            assert str(info.value) == message
        assert solves == []


class TestResistanceBounds:
    def test_k2_hand_values(self):
        lb, ub = resistance_bounds(0.25, K2_CFG)
        assert lb == pytest.approx(1.25, abs=1e-12)
        assert ub == pytest.approx(25.0 / 6.0, abs=1e-12)

    def test_degree_form_agrees(self):
        # with eps = k / d_max, R_ave / eps is d_max R_ave / k
        for g in (make_star(12), make_path(15), make_complete(9)):
            cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.5, k=0.55)
            r_ave = average_effective_resistance(g)
            lb, ub = resistance_bounds(r_ave, cfg)
            s2, p, k = cfg.sigma2, cfg.p, cfg.k
            lb_degree_form = s2 / (2.0 * p**2 * k) * cfg.d_max * r_ave
            ub_degree_form = s2 / (2.0 * p**3 * k * (1.0 - k)) * cfg.d_max * r_ave
            assert lb == pytest.approx(lb_degree_form, abs=1e-12, rel=1e-12)
            assert ub == pytest.approx(ub_degree_form, abs=1e-12, rel=1e-12)

    def test_relaxes_the_spectral_lower_bound(self):
        for g in (make_star(10), make_path(12), make_grid([3, 4]), make_complete(8)):
            for p in (0.3, 0.9):
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
                j_lb, j_ub = ridl_bounds(g, cfg)
                res_lb, res_ub = resistance_bounds(average_effective_resistance(g), cfg)
                assert res_lb <= j_lb + 1e-12
                assert j_ub <= res_ub + 1e-12

    def test_upper_bound_diverges_near_unit_step(self):
        g = make_path(8)
        ub = {}
        for k in (0.5, 0.99):
            cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=k)
            ub[k] = resistance_bounds(average_effective_resistance(g), cfg)[1]
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
            lb_s, ub_s = ridl_bounds(g, cfg)
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


class TestGrowthAtLargeN:
    """The paper's growth rates of the index at fixed k = eps d_max, read
    off bounds-only reports up to N = 10^5: linear in N for the path and
    the star, like log N on the 2-D grid, bounded on the 3-D grid and the
    complete graph (whose edge list is O(N^2), so it stops at N = 2000)."""

    P, K = 0.9, 0.8

    def j_lb(self, g):
        cfg = RidlConfig.for_graph(g, p=self.P, sigma2=1.0, k=self.K)
        return compute_noise_report(g, cfg, exact=False).j_lb

    def test_path_linear(self):
        # (1/N^2) sum_i 1/(2 delta_i) -> d_max / (2 k p^2) * sum_k 1/(pi k)^2
        slope = 2.0 / (12.0 * self.K * self.P**2)
        for n in (50_000, 100_000):
            assert self.j_lb(make_path(n)) / n == pytest.approx(slope, rel=1e-4)

    def test_star_linear(self):
        slope = family_asymptotics("star", 100_000, RidlConfig(
            p=self.P, epsilon=self.K / 99_999, sigma2=1.0, d_max=99_999)).slope
        for n in (50_000, 100_000):
            assert self.j_lb(make_star(n)) / n == pytest.approx(slope, rel=1e-4)

    def test_grid2d_logarithmic(self):
        # each 4x in N adds c ln 4, c = d_max / (8 pi k p^2) from
        # (1/N) sum 1/lambda ~ ln N / (4 pi)
        c = 4.0 / (8.0 * np.pi * self.K * self.P**2)
        j = [self.j_lb(make_grid([m, m])) for m in (79, 158, 316)]
        for step in np.diff(j):
            assert step == pytest.approx(c * np.log(4.0), rel=0.03)

    def test_grid3d_bounded(self):
        # decreasing, by less at each 8x in N, toward a finite limit
        j = [self.j_lb(make_grid([m, m, m])) for m in (12, 23, 46)]
        assert j[0] - j[1] > j[1] - j[2] > 0.0

    def test_complete_bounded(self):
        limit = family_asymptotics("complete", 2000, RidlConfig(
            p=self.P, epsilon=self.K / 1999, sigma2=1.0, d_max=1999)).lb_limit
        j = [self.j_lb(make_complete(n)) for n in (500, 1000, 2000)]
        assert abs(j[2] - limit) < abs(j[1] - limit) < abs(j[0] - limit)
        assert j[2] == pytest.approx(limit, rel=1e-3)

    def test_path300_j_lb_to_extended_precision(self):
        # eigvalsh's absolute error of about 1e-16 lambda_N put j_lb 9.5e-12
        # off; the closed-form eigenvalues leave rounding alone
        mpmath = pytest.importorskip("mpmath")
        g = make_path(300)
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
        with mpmath.workdps(40):
            eps = mpmath.mpf(cfg.epsilon)
            total = mpmath.mpf(0)
            for k in range(1, 300):
                delta = eps * 4 * mpmath.sin(mpmath.pi * k / 600) ** 2
                total += 1 / (delta * (2 - delta))
            reference = float(total / 300)
        j_lb, _ = ridl_bounds(g, cfg)
        assert j_lb == pytest.approx(reference, rel=1e-14, abs=0.0)


class TestNoiseReport:
    def test_sandwich_chain_small_sweep(self):
        for maker, n in ((make_star, 8), (make_path, 9), (make_complete, 8)):
            g = maker(n)
            for p in (0.3, 0.9):
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
                rep = compute_noise_report(g, cfg)
                slack = 1e-9
                assert rep.j_res_lb <= rep.j_lb + slack
                assert rep.j_lb <= rep.exact.j + slack
                assert rep.exact.j <= rep.j_ub + slack
                assert rep.j_ub <= rep.j_res_ub + slack

    def test_exact_tag_records_the_solve(self):
        g = make_path(12)
        cfg = RidlConfig.for_graph(g, p=0.6, sigma2=1.0, k=0.8)
        exact = exact_noise_index(g, cfg)
        assert 1 <= exact.iterations and 0.0 <= exact.gap <= noise_index._J_GAP
        assert compute_noise_report(g, cfg).exact == exact

    def test_sandwich_slack_scales_with_large_index(self):
        g = make_complete(2)
        cfg = RidlConfig.for_graph(g, p=0.01, sigma2=1.0, k=0.99)
        rep = compute_noise_report(g, cfg)
        assert rep.exact.j > 1e5
        noise_index._validate_report(
            replace(rep, exact=rep.exact._replace(j=rep.j_ub * (1.0 + 1e-12))))
        with pytest.raises(NumericalError, match="spectral sandwich"):
            noise_index._validate_report(
                replace(rep, exact=rep.exact._replace(j=rep.j_ub * (1.0 + 1e-8))))

    def test_sandwich_slack_absolute_for_small_index(self):
        g = make_path(5)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=0.1, k=0.8)
        rep = compute_noise_report(g, cfg)
        assert rep.j_ub < 1.0
        noise_index._validate_report(replace(rep, exact=rep.exact._replace(j=rep.j_ub + 0.5e-9)))
        with pytest.raises(NumericalError, match="spectral sandwich"):
            noise_index._validate_report(
                replace(rep, exact=rep.exact._replace(j=rep.j_ub + 2e-9)))

    def test_resistance_sandwich_violation_raises(self, monkeypatch):
        # a resistance window wholly above the exact index
        g = make_path(5)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        j = exact_noise_index(g, cfg).j
        monkeypatch.setattr(noise_index, "resistance_bounds", lambda r_ave, cfg: (2 * j, 3 * j))
        with pytest.raises(NumericalError, match="^resistance sandwich violated"):
            compute_noise_report(g, cfg)

    def test_exact_absent_when_not_requested(self):
        g = make_path(12)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        rep = compute_noise_report(g, cfg, exact=False)
        assert rep.exact is None
        assert rep.estimate is None
        assert rep.j_lb > 0 and rep.j_ub > 0

    @pytest.mark.parametrize("g", [make_path(12), make_erdos_renyi(10, 0.5, 3)],
                             ids=["path12", "erdos-renyi10"])
    def test_estimate_is_the_monte_carlo_run(self, g):
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.0, k=0.8)
        sim = SimConfig(horizon=None, ensemble=50, seed=4)
        rep = compute_noise_report(g, cfg, exact=False, sim=sim)
        assert rep.exact is None
        assert rep.estimate == estimate_noise_index(g, cfg, sim)
