import numpy as np
import pytest

from ridlnoise import (
    RidlConfig,
    check_consensus_conditions,
    expected_p,
    expected_p_squared,
    induced_laplacian,
    laplacian,
    make_complete,
    make_grid,
    make_path,
    make_star,
    omega_projector,
    sample_activation,
    sample_ridl,
    stein_operator,
)
from ridlnoise.graphs import _build

from oracles import (
    K_VARIANTS,
    apply_dense,
    enum_expected_p,
    enum_expected_p_squared,
    enumerate_patterns,
    k_operator_enumeration,
    k_operator_moments,
    pattern_weight,
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

    def test_step_size_strictly_inside(self):
        g = make_path(4)  # d_max = 2
        with pytest.raises(ValueError):
            RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.5)
        RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.499)

    def test_p_range(self):
        with pytest.raises(ValueError):
            RidlConfig(p=0.0, epsilon=0.1, sigma2=1.0, d_max=2)
        with pytest.raises(ValueError):
            RidlConfig(p=1.2, epsilon=0.1, sigma2=1.0, d_max=2)
        RidlConfig(p=1.0, epsilon=0.1, sigma2=1.0, d_max=2)

    def test_sigma2_nonnegative(self):
        with pytest.raises(ValueError):
            RidlConfig(p=0.5, epsilon=0.1, sigma2=-1.0, d_max=2)
        RidlConfig(p=0.5, epsilon=0.1, sigma2=0.0, d_max=2)


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
    def test_connected_path_passes(self):
        g = make_path(10)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        assert check_consensus_conditions(g, cfg).passed

    def test_disconnected_fails_connectivity(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        report = check_consensus_conditions(g, cfg)
        assert report.positive_diagonal
        assert not report.expected_graph_connected
        assert not report.passed

    def test_boundary_step_size_is_rejected_by_config(self):
        g = make_path(10)  # d_max = 2
        with pytest.raises(ValueError):
            RidlConfig.for_graph(g, p=0.9, sigma2=1.0, epsilon=0.5)
        # and a config built for a lower-degree graph fails the check here
        cfg = RidlConfig(p=0.9, epsilon=0.5, sigma2=1.0, d_max=1)
        report = check_consensus_conditions(g, cfg)
        assert not report.positive_diagonal
        assert not report.passed


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
        from ridlnoise import sym_eigen

        g = make_grid([3, 3])
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        lam_l = sym_eigen(laplacian(g)).eigenvalues
        lam_p = sym_eigen(expected_p(g, cfg)).eigenvalues
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
