import numpy as np
import pytest

from ridlnoise import (
    RidlConfig,
    SimConfig,
    default_horizon,
    disagreement,
    estimate_noise_index,
    exact_noise_index,
    make_complete,
    make_path,
    sample_ridl,
    step,
)
from ridlnoise.graphs import _build
from ridlnoise.ridl import StochasticMatrixSample

K2 = make_complete(2)
K2_CFG = RidlConfig.for_graph(K2, p=0.5, sigma2=1.0, epsilon=0.4)


class TestStep:
    def test_zero_state_zero_noise(self):
        s = sample_ridl(K2, K2_CFG, 0)
        assert np.array_equal(step(np.zeros(2), s, np.zeros(2)), np.zeros(2))

    def test_identity_matrix_keeps_state(self):
        s = StochasticMatrixSample(matrix=np.eye(3), pattern=np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(step(x, s, np.zeros(3)), x)

    def test_k2_all_active_hand_value(self):
        cfg = RidlConfig.for_graph(K2, p=1.0, sigma2=1.0, epsilon=0.4)
        s = sample_ridl(K2, cfg, 0)
        out = step(np.array([1.0, 0.0]), s, np.zeros(2))
        assert np.allclose(out, [0.6, 0.4], atol=1e-15)

    def test_dimension_mismatch(self):
        s = StochasticMatrixSample(matrix=np.eye(3), pattern=np.zeros(3))
        with pytest.raises(ValueError):
            step(np.zeros(2), s, np.zeros(3))


class TestDisagreement:
    def test_constant_vector(self):
        assert disagreement(np.full(5, 3.7)) == 0.0

    def test_antisymmetric_pair(self):
        assert disagreement(np.array([1.0, -1.0])) == pytest.approx(2.0)

    def test_one_two_three(self):
        assert disagreement(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)


class TestDefaultHorizon:
    def test_contraction_rule(self):
        g = make_path(6)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        t = default_horizon(g, cfg, target=1e-4)
        lam2 = 2.0 - 2.0 * np.cos(np.pi / 6)
        rho = 1.0 - cfg.epsilon * cfg.p**2 * lam2
        assert rho ** (2 * t) < 1e-4
        assert rho ** (2 * (t - 1)) >= 1e-4

    def test_cap(self):
        g = make_path(100)
        cfg = RidlConfig.for_graph(g, p=0.1, sigma2=1.0, k=0.1)
        assert default_horizon(g, cfg, cap=500) == 500


class TestEstimator:
    def test_k2_reference_within_three_sigma(self):
        est = estimate_noise_index(
            K2, K2_CFG, SimConfig(horizon=200, ensemble=20000, seed=42)
        )
        assert abs(est.j_hat - 25.0 / 12.0) <= 3.0 * est.std_error
        assert est.samples_used == 20000
        assert est.converged

    def test_zero_variance_is_exactly_zero(self):
        g = make_path(5)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=0.0, k=0.8)
        est = estimate_noise_index(g, cfg, SimConfig(horizon=30, ensemble=50, seed=1))
        assert est.j_hat == 0.0
        assert est.std_error == 0.0
        assert est.converged

    def test_seed_determinism_bit_for_bit(self):
        sim = SimConfig(horizon=60, ensemble=1500, seed=9)
        a = estimate_noise_index(K2, K2_CFG, sim)
        b = estimate_noise_index(K2, K2_CFG, sim)
        assert a.j_hat == b.j_hat
        assert a.std_error == b.std_error
        assert a.converged == b.converged

    def test_sigma_scale_equivariance(self):
        g = make_path(4)
        sim = SimConfig(horizon=50, ensemble=1000, seed=3)
        cfg1 = RidlConfig.for_graph(g, p=0.8, sigma2=1.0, k=0.8)
        cfg4 = RidlConfig.for_graph(g, p=0.8, sigma2=4.0, k=0.8)
        j1 = estimate_noise_index(g, cfg1, sim).j_hat
        j4 = estimate_noise_index(g, cfg4, sim).j_hat
        assert j4 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_mean_trace_nondecreasing_toward_limit(self):
        est = estimate_noise_index(
            K2, K2_CFG, SimConfig(horizon=60, ensemble=20000, seed=5), track_mean=True
        )
        trace = est.mean_trace
        assert trace.shape == (60,)
        # block means of consecutive thirds rise toward the estimate
        blocks = [trace[:20].mean(), trace[20:40].mean(), trace[40:].mean()]
        noise_allowance = 4.0 * est.std_error
        assert blocks[1] >= blocks[0] - noise_allowance
        assert blocks[2] >= blocks[1] - noise_allowance
        assert blocks[2] > blocks[0]
        assert trace[-1] <= est.j_hat + 10.0 * est.std_error

    def test_noise_distribution_invariance(self):
        g = make_path(6)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        t = default_horizon(g, cfg)
        results = {}
        for dist in ("gaussian", "rademacher", "uniform"):
            results[dist] = estimate_noise_index(
                g, cfg, SimConfig(horizon=t, ensemble=8000, noise_dist=dist, seed=17)
            )
        j_exact = exact_noise_index(g, cfg).j
        names = list(results)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                ra, rb = results[a], results[b]
                combined = np.hypot(ra.std_error, rb.std_error)
                assert abs(ra.j_hat - rb.j_hat) <= 4.0 * combined
        for est in results.values():
            assert abs(est.j_hat - j_exact) <= 4.0 * est.std_error

    def test_short_horizon_flagged_unconverged(self):
        g = make_path(10)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        est = estimate_noise_index(g, cfg, SimConfig(horizon=3, ensemble=500, seed=2))
        assert not est.converged

    def test_consensus_precondition_enforced(self):
        g = _build(4, [(0, 1), (2, 3)])
        cfg = RidlConfig(p=0.9, epsilon=0.4, sigma2=1.0, d_max=1)
        with pytest.raises(ValueError, match="consensus"):
            estimate_noise_index(g, cfg, SimConfig(horizon=10, ensemble=10, seed=0))

    def test_single_replication_edge_case(self):
        est = estimate_noise_index(K2, K2_CFG, SimConfig(horizon=20, ensemble=1, seed=0))
        assert est.std_error == 0.0
        assert est.samples_used == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0, ensemble=10)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, ensemble=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, ensemble=10, noise_dist="poisson")
