import numpy as np
import pytest

from ridlnoise import (
    RidlConfig,
    SimConfig,
    estimate_noise_index,
    laplacian,
    make_complete,
    make_grid,
    make_path,
    make_star,
    omega_projector,
    stein_operator,
)
from ridlnoise.graphs import _build, laplacian_eigenpairs
from ridlnoise.ridl import (
    _fluctuation,
    _fluctuation_dense,
    _fluctuation_triples,
    moment_spectra,
)

from oracles import (
    K_VARIANTS,
    apply_dense,
    enum_expected_p,
    enum_expected_p_squared,
    enumerate_patterns,
    expected_p,
    expected_p_squared,
    induced_laplacian,
    k_operator_enumeration,
    k_operator_moments,
    make_erdos_renyi,
    pattern_weight,
    sample_activation,
    sample_ridl,
)


def disagreement_matrix(n, seed):
    """A random symmetric X on the disagreement subspace (X = Omega X Omega),
    where every projector variant of the dense operator acts as E[P X P]."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, n))
    omega = omega_projector(n)
    return omega @ (y + y.T) @ omega

K2 = make_complete(2)
K2_CFG = RidlConfig.for_graph(K2, p=0.5, sigma2=1.0, epsilon=0.4)

# graphs on either side of the sum_v d_v^2 <= N^2 rule that picks how the
# fluctuation term is evaluated: the star has sum_v d_v^2 = N^2 - N
FLUCTUATION_GRAPHS = [
    (_build(2, [(0, 1)]), "triples"),
    (make_complete(2), "triples"),
    (make_star(6), "triples"),
    (make_grid([2, 3]), "triples"),
    (make_complete(3), "dense"),
    (make_complete(4), "dense"),
    (make_erdos_renyi(8, 0.3, 4), "triples"),
    (make_erdos_renyi(8, 0.3, 3), "dense"),
]
FLUCTUATION_IDS = ["k2-edge-list", "complete2", "star6", "grid2x3", "complete3", "complete4",
                   "erdos-renyi8-sparse", "erdos-renyi8-dense"]


class TestRidlConfig:
    def test_k_derivation(self):
        g = make_star(5)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        assert cfg.epsilon == pytest.approx(0.2)
        assert cfg.k == pytest.approx(0.8)

    def test_exactly_one_of_eps_k(self):
        g = make_path(4)
        with pytest.raises(ValueError):
            RidlConfig.for_graph(g, p=0.9, sigma2=1.0)
        with pytest.raises(ValueError):
            RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.1, k=0.5)

    def test_rejects_zero_max_degree(self):
        with pytest.raises(ValueError, match="^d_max must be >= 1, got 0$"):
            RidlConfig(p=0.9, epsilon=0.1, sigma2=1.0, d_max=0)

    @pytest.mark.parametrize("step", [{"k": 0.8}, {"epsilon": 0.1}], ids=["k", "eps"])
    def test_for_graph_rejects_edgeless_graph(self, step):
        # d_max = 0: eps = k / d_max is undefined, and no eps < 1/d_max exists
        with pytest.raises(ValueError,
                           match="^underlying graph is disconnected: it has no edges$"):
            RidlConfig.for_graph(_build(3, []), p=0.9, sigma2=1.0, **step)

    def test_step_size_strictly_inside(self):
        g = make_path(4)  # d_max = 2
        with pytest.raises(ValueError):
            RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.5)
        RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.499)

    @pytest.mark.parametrize("p", [0.01, 0.9])
    def test_step_size_too_small_to_represent(self, p):
        # eps p^2 below the smallest normal float: 0 at p = 0.01, subnormal
        # at p = 0.9; the smallest normal value itself is accepted
        with pytest.raises(ValueError, match="step size is too small"):
            RidlConfig(p=p, epsilon=1e-320, sigma2=1.0, d_max=2)
        RidlConfig(p=1.0, epsilon=np.finfo(float).tiny, sigma2=1.0, d_max=2)

    def test_p_range(self):
        with pytest.raises(ValueError):
            RidlConfig(p=0.0, epsilon=0.1, sigma2=1.0, d_max=2)
        with pytest.raises(ValueError):
            RidlConfig(p=1.2, epsilon=0.1, sigma2=1.0, d_max=2)
        RidlConfig(p=1.0, epsilon=0.1, sigma2=1.0, d_max=2)

    def test_sigma2_nonnegative(self):
        with pytest.raises(ValueError, match="noise variance must be >= 0, got -1.0"):
            RidlConfig(p=0.5, epsilon=0.1, sigma2=-1.0, d_max=2)
        RidlConfig(p=0.5, epsilon=0.1, sigma2=0.0, d_max=2)

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    def test_sigma2_finite(self, sigma2):
        with pytest.raises(ValueError, match="noise variance must be finite"):
            RidlConfig(p=0.5, epsilon=0.1, sigma2=sigma2, d_max=2)


class TestSampling:
    def test_certain_activation(self):
        assert np.array_equal(sample_activation(6, 1.0, 0), np.ones(6))

    def test_vanishing_activation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert sample_activation(8, 1e-9, rng).sum() == 0

    def test_activation_mean_concentrates(self):
        pattern = sample_activation(1000, 0.9, 12)
        assert 0.87 <= pattern.mean() <= 0.93

    def test_activation_deterministic_per_seed(self):
        assert np.array_equal(sample_activation(50, 0.7, 42), sample_activation(50, 0.7, 42))

    def test_induced_all_active(self):
        g = make_star(5)
        assert np.array_equal(induced_laplacian(g, np.ones(5)), laplacian(g))

    def test_induced_all_inactive(self):
        g = make_star(5)
        assert np.array_equal(induced_laplacian(g, np.zeros(5)), np.zeros((5, 5)))

    def test_induced_partial_on_triangle(self):
        g = make_complete(3)
        lap = induced_laplacian(g, np.array([1.0, 1.0, 0.0]))
        expected = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(lap, expected)

    def test_induced_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            induced_laplacian(make_path(4), np.ones(3))

    def test_sample_all_active_k2(self):
        g = make_complete(2)
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, epsilon=0.4)
        s = sample_ridl(g, cfg, 0)
        assert np.allclose(s.matrix, [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)

    def test_inactive_node_gets_identity_row(self):
        g = make_complete(4)
        cfg = RidlConfig.for_graph(g, p=0.5, sigma2=1.0, k=0.9)
        for seed in range(40):
            s = sample_ridl(g, cfg, seed)
            for i in np.flatnonzero(s.pattern == 0.0):
                assert np.array_equal(s.matrix[i], np.eye(4)[i])

    def test_star_partial_activation_diagonals(self):
        g = make_star(4)
        cfg = RidlConfig(p=0.5, epsilon=0.2, sigma2=1.0, d_max=3)
        lap = induced_laplacian(g, np.array([1.0, 1.0, 1.0, 0.0]))
        p_mat = np.eye(4) - 0.2 * lap
        assert p_mat[0, 0] == pytest.approx(0.6)
        assert p_mat[1, 1] == pytest.approx(0.8)
        assert p_mat[2, 2] == pytest.approx(0.8)
        assert p_mat[3, 3] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "g", [make_star(6), make_path(7), make_grid([3, 3]), make_complete(6),
              make_grid([2, 2, 2])],
        ids=["star", "path", "grid2d", "complete", "grid3d"],
    )
    def test_sample_invariants_bulk(self, g):
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.0, k=0.8)
        rng = np.random.default_rng(314)
        floor = 1.0 - cfg.k
        for _ in range(10_000):
            s = sample_ridl(g, cfg, rng)
            m = s.matrix
            assert np.array_equal(m, m.T)
            assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12
            assert m.min() >= -1e-15
            assert np.diag(m).min() >= floor - 1e-12

    def test_empirical_mean_matches_expected_p(self):
        g = make_path(5)
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.0, k=0.8)
        rng = np.random.default_rng(99)
        m = 100_000
        acc = np.zeros((5, 5))
        for _ in range(m):
            acc += sample_ridl(g, cfg, rng).matrix
        mean = acc / m
        # exact per-entry standard errors from Bernoulli moments
        p, eps = cfg.p, cfg.epsilon
        se = np.zeros((5, 5))
        off_var = eps**2 * (p**2 * (1 - p**2))
        for i, j in g.edges:
            se[i, j] = se[j, i] = np.sqrt(off_var / m)
        for i in range(5):
            d = g.degrees[i]
            var = eps**2 * (d * p**2 * (1 - p) + d**2 * p**3 * (1 - p))
            se[i, i] = np.sqrt(var / m)
        diff = np.abs(mean - expected_p(g, cfg))
        mask = se > 0
        assert np.all(diff[mask] <= 4.0 * se[mask])
        assert np.all(diff[~mask] == 0.0)


class TestConsensusConditions:
    """The almost-sure consensus conditions that the Monte Carlo estimator
    checks before it runs: eps * d_max < 1 and a connected graph."""

    SIM = SimConfig(horizon=5, ensemble=2, seed=0)

    def test_connected_path_passes(self):
        g = make_path(10)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        assert np.isfinite(estimate_noise_index(g, cfg, self.SIM).j_hat)

    def test_disconnected_fails_connectivity(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        # the diagonal condition holds, so connectivity is the only failure
        with pytest.raises(ValueError, match=(
                r"^consensus conditions fail: graph is disconnected$")):
            estimate_noise_index(g, cfg, self.SIM)

    def test_boundary_step_size_is_rejected_by_config(self):
        g = make_path(10)  # d_max = 2
        with pytest.raises(ValueError):
            RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.5)
        # and a config built for a lower-degree graph fails the check here,
        # on the diagonal condition alone
        cfg = RidlConfig(p=0.9, epsilon=0.5, sigma2=1.0, d_max=1)
        with pytest.raises(ValueError, match=(
                r"^consensus conditions fail: "
                r"eps \* d_max = 1 >= 1: sampled diagonals may hit zero$")):
            estimate_noise_index(g, cfg, self.SIM)


class TestExpectedMatrices:
    def test_expected_p_k2_reference(self):
        assert np.allclose(
            expected_p(K2, K2_CFG), [[0.9, 0.1], [0.1, 0.9]], atol=1e-15
        )

    def test_expected_p_equals_enumeration(self):
        for g in (make_path(5), make_star(5)):
            cfg = RidlConfig.for_graph(g, p=0.6, sigma2=1.0, k=0.7)
            assert np.abs(expected_p(g, cfg) - enum_expected_p(g, cfg)).max() <= 1e-12

    def test_expected_p_deterministic_mode(self):
        g = make_path(6)
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
        assert np.allclose(expected_p(g, cfg), np.eye(6) - cfg.epsilon * laplacian(g))

    def test_expected_p_spectrum_is_affine_in_laplacian(self):
        g = make_grid([3, 3])
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        lam_l = np.linalg.eigvalsh(laplacian(g))
        lam_p = np.linalg.eigvalsh(expected_p(g, cfg))
        predicted = np.sort(1.0 - cfg.epsilon * cfg.p**2 * lam_l)
        assert np.abs(np.sort(lam_p) - predicted).max() <= 1e-10

    def test_expected_p_squared_k2_reference(self):
        assert np.allclose(
            expected_p_squared(K2, K2_CFG), [[0.88, 0.12], [0.12, 0.88]], atol=1e-15
        )

    def test_expected_p_squared_deterministic_square(self):
        g = make_star(5)
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
        pbar = np.eye(5) - cfg.epsilon * laplacian(g)
        assert np.abs(expected_p_squared(g, cfg) - pbar @ pbar).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize(
        "g", [make_path(5), make_star(5), make_grid([2, 3]), make_complete(5)],
        ids=["path", "star", "grid", "complete"],
    )
    def test_expected_p_squared_equals_enumeration(self, g, p):
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        assert np.abs(
            expected_p_squared(g, cfg) - enum_expected_p_squared(g, cfg)
        ).max() <= 1e-12

    def test_expected_matrices_doubly_stochastic(self):
        g = make_grid([3, 3])
        cfg = RidlConfig.for_graph(g, p=0.45, sigma2=1.0, k=0.6)
        for m in (expected_p(g, cfg), expected_p_squared(g, cfg)):
            assert np.abs(m - m.T).max() <= 1e-14
            assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12


ENUM_GRAPHS = [make_path(6), make_star(6), make_grid([2, 3]), make_complete(5),
               _build(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5), (4, 5)])]
ENUM_IDS = ["path6", "star6", "grid23", "complete5", "two-triangles"]


class TestMomentSpectra:
    """``moment_spectra`` against E[P] and E[P^2] summed over all 2^N
    activation patterns, rotated into the Laplacian eigenbasis."""

    @pytest.mark.parametrize("p", [0.3, 0.9, 1.0])
    @pytest.mark.parametrize("g", ENUM_GRAPHS, ids=ENUM_IDS)
    def test_diagonalizes_enumerated_moments(self, g, p):
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        spectrum = laplacian_eigenpairs(g)
        v = spectrum.eigenvectors
        delta, one_minus_mu_sq, one_minus_nu = moment_spectra(spectrum.eigenvalues, cfg)
        for moment, spec in ((enum_expected_p(g, cfg), 1.0 - delta),
                             (enum_expected_p_squared(g, cfg), 1.0 - one_minus_nu)):
            # the consensus direction v_1 is fixed by both
            expected = np.diag(np.concatenate(([1.0], spec)))
            assert np.abs(v.T @ moment @ v - expected).max() <= 1e-12
        assert np.abs(one_minus_mu_sq - (1.0 - (1.0 - delta) ** 2)).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize(
        "g", [make_complete(2), _build(6, [(i, (i + 1) % 6) for i in range(6)]),
              make_grid([2, 2, 2])],
        ids=["K2", "cycle6", "cube"],
    )
    def test_positive_up_to_the_step_size_limit(self, g, p):
        # bipartite regular graphs reach lambda_N = 2 d_max, the extreme
        # that the step size limit eps < 1/d_max still keeps 1 - nu > 0 at
        lam = laplacian_eigenpairs(g).eigenvalues
        assert lam[-1] == pytest.approx(2 * g.d_max, rel=1e-12)
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.999)
        delta, one_minus_mu_sq, one_minus_nu = moment_spectra(lam, cfg)
        assert delta.min() > 0.0
        assert np.all(one_minus_nu <= one_minus_mu_sq * (1.0 + 1e-12))
        assert one_minus_nu.min() > 0.0


class TestKOperator:
    def test_enumeration_weights_sum_to_one(self):
        for n, p in ((4, 0.3), (6, 0.7), (8, 0.95)):
            total = sum(pattern_weight(pat, p) for pat in enumerate_patterns(n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_mode_single_pattern(self):
        g = make_path(4)
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=0.8)
        p_mat = np.eye(4) - cfg.epsilon * laplacian(g)
        omega = omega_projector(4)
        expected = np.kron(p_mat @ omega, p_mat)
        assert np.abs(k_operator_enumeration(g, cfg) - expected).max() <= 1e-13
        assert np.abs(k_operator_moments(g, cfg) - expected).max() <= 1e-12
        x = disagreement_matrix(4, 0)
        assert np.abs(stein_operator(g, cfg)(x) - (x - p_mat @ x @ p_mat)).max() <= 1e-12

    def test_k2_against_two_pattern_form(self):
        # only the all-active pattern induces the edge; the rest give P = I
        p_a = np.eye(2) - 0.4 * laplacian(K2)
        omega = omega_projector(2)
        expected = 0.25 * np.kron(p_a @ omega, p_a) + 0.75 * np.kron(omega, np.eye(2))
        assert np.abs(k_operator_moments(K2, K2_CFG) - expected).max() <= 1e-12
        assert np.abs(k_operator_enumeration(K2, K2_CFG) - expected).max() <= 1e-15

    @pytest.mark.parametrize("p", [0.3, 0.9])
    @pytest.mark.parametrize(
        "g", [make_star(4), make_path(4), make_grid([2, 3]), make_complete(4)],
        ids=["star", "path", "grid", "complete"],
    )
    def test_moments_match_enumeration(self, g, p):
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        km = k_operator_moments(g, cfg)
        ke = k_operator_enumeration(g, cfg)
        assert np.abs(km - ke).max() <= 1e-12
        x = disagreement_matrix(g.n, 1)
        assert np.abs(stein_operator(g, cfg)(x) - (x - apply_dense(ke, x))).max() <= 1e-12

    @pytest.mark.parametrize("variant", K_VARIANTS)
    def test_variants_match_enumeration(self, variant):
        g = make_star(5)
        cfg = RidlConfig.for_graph(g, p=0.6, sigma2=1.0, k=0.7)
        km = k_operator_moments(g, cfg, variant=variant)
        ke = k_operator_enumeration(g, cfg, variant=variant)
        assert np.abs(km - ke).max() <= 1e-12
        x = disagreement_matrix(5, 2)
        assert np.abs(stein_operator(g, cfg)(x) - (x - apply_dense(ke, x))).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.3, 0.9])
    @pytest.mark.parametrize("g,route", FLUCTUATION_GRAPHS, ids=FLUCTUATION_IDS)
    def test_fluctuation_routes_match_enumeration(self, g, route, p):
        # F(X) = E[P X P] - E[P] X E[P] from the 2^N patterns; the solve's
        # evaluation of F is picked by sum_v d_v^2 <= N^2, and both ways of
        # evaluating it hold on every graph
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        deg = g.degrees
        assert (int(deg @ deg) <= g.n**2) == (route == "triples")
        rng = np.random.default_rng(3)
        y = rng.standard_normal((g.n, g.n))
        x = y + y.T
        pxp = np.zeros_like(x)
        for pattern in enumerate_patterns(g.n):
            p_mat = np.eye(g.n) - cfg.epsilon * induced_laplacian(g, pattern)
            pxp += pattern_weight(pattern, p) * p_mat @ x @ p_mat
        p_bar = expected_p(g, cfg)
        enumerated = pxp - p_bar @ x @ p_bar
        for fluctuation in (_fluctuation_triples, _fluctuation_dense):
            assert np.abs(fluctuation(g, cfg)(x) - enumerated).max() <= 1e-13
        chosen = {"triples": _fluctuation_triples, "dense": _fluctuation_dense}[route]
        assert np.array_equal(_fluctuation(g, cfg)(x), chosen(g, cfg)(x))
        assert np.abs(stein_operator(g, cfg)(x) - (x - pxp)).max() <= 1e-13

    def test_fluctuation_routes_agree(self):
        g = make_erdos_renyi(40, 0.2, 5)
        cfg = RidlConfig.for_graph(g, p=0.6, sigma2=1.0, k=0.8)
        y = np.random.default_rng(4).standard_normal((g.n, g.n))
        x = y + y.T
        triples = _fluctuation_triples(g, cfg)(x)
        dense = _fluctuation_dense(g, cfg)(x)
        assert np.abs(triples - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_operator_is_symmetric_and_contractive(self):
        for g in (make_path(6), make_star(6), make_complete(6)):
            for p in (0.3, 0.9):
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
                k_op = k_operator_moments(g, cfg)
                assert np.abs(k_op - k_op.T).max() <= 1e-12
                assert np.abs(np.linalg.eigvalsh(k_op)).max() < 1.0

    def test_size_caps(self):
        g = make_path(20)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        with pytest.raises(ValueError, match="enumeration"):
            k_operator_enumeration(g, cfg)
        with pytest.raises(ValueError, match="cap"):
            k_operator_moments(g, cfg, n_cap=10)
