import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ridlnoise
from ridlnoise import (
    RidlConfig,
    SimConfig,
    estimate_noise_index,
    exact_noise_index,
    make_complete,
    make_grid,
    make_path,
    make_star,
)
from ridlnoise import simulator
from ridlnoise.graphs import _build, laplacian_eigenpairs
from ridlnoise.ridl import moment_spectra

from oracles import (
    StochasticMatrixSample,
    dense_estimate,
    dense_forward_estimate,
    disagreement,
    finite_horizon_index,
    make_erdos_renyi,
    mean_field_disagreement,
    mean_field_limit,
    nu_max,
    sample_ridl,
    step,
)

K2 = make_complete(2)
K2_CFG = RidlConfig.for_graph(K2, p=0.5, sigma2=1.0, epsilon=0.4)

# finite horizons at which E[d(x_T)] is still well below its limit
FINITE_HORIZON_CASES = {
    "grid4x4": (make_grid((4, 4)), 0.5, 60),
    "star8": (make_star(8), 0.3, 40),
    "path6": (make_path(6), 0.7, 80),
}


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


def _default_horizon(g, cfg):
    """The estimate's horizon rule and bias bound on the spectrum of ``g``,
    without running an ensemble."""
    _, _, one_minus_nu = moment_spectra(laplacian_eigenpairs(g).eigenvalues, cfg)
    return simulator._horizon(one_minus_nu, None)


class TestDefaultHorizon:
    def test_contraction_rule(self):
        # the smallest T with nu_max^T <= 1e-4, nu_max from the dense E[P^2],
        # is the horizon an estimate without one runs
        for g, p, k in ((make_path(6), 0.9, 0.8),
                        (K2, 0.3, 0.8),                  # nu_max 0.94, mu_2^2 0.73
                        (make_grid((2, 2)), 1.0, 0.99)):  # nu_max 0.96 at lambda_N
            cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=k)
            est = estimate_noise_index(g, cfg, SimConfig(horizon=None, ensemble=2, seed=0))
            t = est.horizon
            nu = nu_max(g, cfg)
            assert nu**t <= 1e-4 < nu ** (t - 1), g.family
            assert est.bias_bound == pytest.approx(nu**t, rel=1e-9)

    def test_cap(self):
        # the contraction rule asks for about 1e7 steps here
        g = make_path(100)
        cfg = RidlConfig.for_graph(g, p=0.1, sigma2=1.0, k=0.1)
        assert _default_horizon(g, cfg)[0] == simulator._HORIZON_CAP == 100_000

    def test_rate_zero(self):
        # K2 with eps p^2 lambda_2 = 1: one step removes all disagreement,
        # and log(0) is never taken
        cfg = RidlConfig(p=1.0, epsilon=0.5, sigma2=1.0, d_max=1)
        assert _default_horizon(make_complete(2), cfg) == (1, 0.0)

    def test_rate_rounds_to_one(self):
        # 1 - 2e-17 rounds to 1: the cap, not a division by log(1) = 0
        cfg = RidlConfig(p=1.0, epsilon=1e-17, sigma2=1.0, d_max=1)
        assert _default_horizon(make_complete(2), cfg)[0] == simulator._HORIZON_CAP

    def test_one_spectra_read_per_estimate(self, monkeypatch):
        # the horizon, the bias bound, the shadow's gains and the control's
        # mean all come from one moment_spectra call
        calls = []

        def counted(lam, cfg):
            calls.append(lam.shape[0])
            return moment_spectra(lam, cfg)

        monkeypatch.setattr(simulator, "moment_spectra", counted)
        g = make_path(6)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        for horizon in (None, 40):
            calls.clear()
            estimate_noise_index(g, cfg, SimConfig(horizon=horizon, ensemble=10, seed=1))
            assert calls == [6]


class TestEstimator:
    def test_k2_reference_within_three_sigma(self):
        est = estimate_noise_index(
            K2, K2_CFG, SimConfig(horizon=200, ensemble=20000, seed=42)
        )
        assert abs(est.j_hat - 25.0 / 12.0) <= 3.0 * est.std_error
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

    def test_noise_distribution_invariance(self):
        # the index depends on the noise only through its variance: the
        # forward dynamics under non-Gaussian noise give what the library
        # estimates with its Gaussian probe
        for g, p, horizon in FINITE_HORIZON_CASES.values():
            cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
            sim = SimConfig(horizon=horizon, ensemble=2000, seed=17)
            est = estimate_noise_index(g, cfg, sim)
            for law in ("rademacher", "uniform"):
                fwd = dense_forward_estimate(g, cfg, sim, law)
                assert abs(est.j_hat - fwd["j_hat"]) <= 4.0 * math.hypot(
                    est.std_error, fwd["std_error"])

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
        assert np.isnan(est.mf_corr)
        # the bound reads the spectrum alone, not the replications
        assert est.horizon == 20
        assert est.bias_bound == pytest.approx(nu_max(K2, K2_CFG) ** 20, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0, ensemble=10)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, ensemble=0)
        assert SimConfig(horizon=None, ensemble=10).horizon is None


ORACLE_GRAPHS = {
    "star": make_star(7),
    "path": make_path(8),
    "complete": make_complete(5),
    "grid": make_grid((3, 4)),
    "erdos-renyi": make_erdos_renyi(10, 0.35, 11),
}


# every graph at 90 replications, plus short horizons where both loops
# flag the run as unconverged, and a horizon of three blocks of draws
# whose ties (256 p = 179.2) take uniforms between blocks; the ids name
# the probe law, which is Gaussian
ORACLE_CASES = ([(name, 60, 90) for name in ORACLE_GRAPHS]
                + [("path", 1, 90), ("path", 3, 90), ("path", 2 * simulator._DRAW_STEPS + 3, 20)])


class TestDenseOracle:
    @pytest.mark.parametrize("name,horizon,ensemble", ORACLE_CASES,
                             ids=[f"{name}-gaussian-{t}" for name, t, _ in ORACLE_CASES])
    def test_matches_dense_dynamics(self, name, horizon, ensemble):
        g = ORACLE_GRAPHS[name]
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.5, k=0.8)
        sim = SimConfig(horizon=horizon, ensemble=ensemble, seed=23)
        est = estimate_noise_index(g, cfg, sim)
        ref = dense_estimate(g, cfg, sim)
        assert est.j_hat == pytest.approx(ref["j_hat"], rel=1e-12)
        assert est.std_error == pytest.approx(ref["std_error"], rel=1e-12)
        assert est.converged == ref["converged"]
        assert est.bias_bound == pytest.approx(ref["bias_bound"], rel=1e-9, abs=1e-15)
        assert est.mf_corr == pytest.approx(ref["mf_corr"], rel=1e-9)
        if horizon < 10:
            assert not est.converged


class TestUnbiased:
    @pytest.mark.parametrize("name", FINITE_HORIZON_CASES)
    def test_pooled_mean_matches_propagated_covariance(self, name):
        # the mean is J_T with the shadow's finite-horizon mean swapped for
        # its limit, both from dense propagation and a dense solve
        g, p, horizon = FINITE_HORIZON_CASES[name]
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        exact = (finite_horizon_index(g, cfg, horizon)
                 + (mean_field_limit(g, cfg) - mean_field_disagreement(g, cfg, horizon)) / g.n)
        ests = [estimate_noise_index(g, cfg, SimConfig(horizon=horizon, ensemble=2000,
                                                       seed=seed))
                for seed in range(20)]
        grand_mean = np.mean([e.j_hat for e in ests])
        grand_se = math.sqrt(sum(e.std_error**2 for e in ests)) / len(ests)
        assert abs(grand_mean - exact) <= 3.0 * grand_se

    @pytest.mark.parametrize("name", FINITE_HORIZON_CASES)
    def test_agrees_with_forward_simulation(self, name):
        g, p, horizon = FINITE_HORIZON_CASES[name]
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        sim = SimConfig(horizon=horizon, ensemble=2000, seed=31)
        est = estimate_noise_index(g, cfg, sim)
        fwd = dense_forward_estimate(g, cfg, sim)
        assert abs(est.j_hat - fwd["j_hat"]) <= 4.0 * math.hypot(est.std_error,
                                                                 fwd["std_error"])

    def test_finite_horizon_oracle_stays_below_the_limit(self):
        # E[d(x_T)] / N rises to J from below; at T = 600 on the 8x8 grid
        # it is within 1e-4 of it, where an unsymmetrized propagation had
        # diverged to about -2e9
        g = make_grid((8, 8))
        cfg = RidlConfig.for_graph(g, p=0.5, sigma2=1.0, k=0.8)
        j = exact_noise_index(g, cfg).j
        assert j * (1.0 - 1e-4) <= finite_horizon_index(g, cfg, 600) <= j


class TestActivationLaw:
    @pytest.mark.parametrize("p", [0.9, 1.0 / 3.0, 0.001, 0.5, 1.0])
    def test_frequency_within_four_sigma(self, p):
        # 4 replications x 1000 steps x 1001 nodes written into the strided
        # acts[:b, j] slices of a longer buffer, as the ensemble writes them;
        # a refinement lost to a copy would put p = 0.001 at 0 and p = 0.9
        # at 230/256, about 10 sigma low
        steps, chunk, n = 1000, 4, 1001
        acts = np.zeros((steps + 7, chunk, n), dtype=bool)
        for j, seed in enumerate(np.random.SeedSequence(12).spawn(chunk)):
            rng = np.random.default_rng(seed)
            simulator._draw_activations(rng, p, acts[:steps, j])
        assert not acts[steps:].any()
        draws = acts[:steps].size
        freq = np.count_nonzero(acts[:steps]) / draws
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / draws)


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7, "ensemble"])
    def test_chunk_size_does_not_change_the_estimate(self, monkeypatch, chunk):
        # every chunk size gives the estimate bit for bit, over a horizon
        # that crosses a block of draws with ties to refine (256 p = 204.8)
        g = make_grid((3, 3))
        cfg = RidlConfig.for_graph(g, p=0.8, sigma2=1.0, k=0.8)
        sim = SimConfig(horizon=simulator._DRAW_STEPS + 80, ensemble=50, seed=8)
        base = estimate_noise_index(g, cfg, sim)
        size = sim.ensemble if chunk == "ensemble" else chunk
        # the chunk holds _STATE_BYTES // (8 N) replications
        monkeypatch.setattr(simulator, "_STATE_BYTES", 8 * g.n * size)
        est = estimate_noise_index(g, cfg, sim)
        assert est.j_hat == base.j_hat
        assert est.std_error == base.std_error
        assert est.bias_bound == base.bias_bound
        assert est.converged == base.converged

    def test_seeds_spawn_per_chunk(self, monkeypatch):
        # chunks of 7 spawn 7 seeds each, and the estimate is the one that
        # one spawn of all 50 seeds up front gives, bit for bit
        g = make_grid((3, 3))
        cfg = RidlConfig.for_graph(g, p=0.8, sigma2=1.0, k=0.8)
        sim = SimConfig(horizon=simulator._DRAW_STEPS + 80, ensemble=50, seed=8)
        monkeypatch.setattr(simulator, "_STATE_BYTES", 8 * g.n * 7)
        children = iter(np.random.SeedSequence(sim.seed).spawn(sim.ensemble))
        spawned = []

        class SpawnSpy(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        class OneShot:
            """Hands out the children of one spawn of the whole ensemble."""

            def __init__(self, seed):
                assert seed == sim.seed

            def spawn(self, n_children):
                return [next(children) for _ in range(n_children)]

        monkeypatch.setattr(np.random, "SeedSequence", SpawnSpy)
        per_chunk = estimate_noise_index(g, cfg, sim)
        assert spawned == [7] * 7 + [1]
        monkeypatch.setattr(np.random, "SeedSequence", OneShot)
        one_shot = estimate_noise_index(g, cfg, sim)
        for name in ("j_hat", "std_error", "bias_bound", "mf_corr"):
            assert getattr(per_chunk, name).hex() == getattr(one_shot, name).hex(), name

    def test_peak_memory_within_chunk_budget(self):
        # 64 replications of a 10x10 grid over 8000 steps, eight blocks of
        # draws, need 51 MB of activations, more than 1.5 x 32 MiB
        g = make_grid((10, 10))
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        sim = SimConfig(horizon=8000, ensemble=64, seed=2)
        budget = 1 << 25
        steps = sim.horizon - 1
        assert steps > 7 * simulator._DRAW_STEPS
        assert steps * g.n * sim.ensemble > 1.5 * budget
        tracemalloc.start()
        try:
            estimate_noise_index(g, cfg, sim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * budget

    def test_small_graph_draws_each_horizon_in_one_block(self, monkeypatch):
        # horizons of at most one block of draws, path(10) over two chunks
        # and the 16x16 grid at 300 replications: one draw of activations
        # per replication
        draw = simulator._draw_activations
        calls = []

        def counted(rng, p, out):
            calls.append(out.shape[0])
            draw(rng, p, out)

        monkeypatch.setattr(simulator, "_draw_activations", counted)
        for g, horizon, ensemble in ((make_path(10), 469, 2000),
                                     (make_grid((16, 16)), 738, 300)):
            calls.clear()
            cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
            estimate_noise_index(g, cfg, SimConfig(horizon=horizon, ensemble=ensemble, seed=1))
            assert calls == [horizon - 1] * ensemble


# run in a fresh interpreter, so that OpenBLAS reads its thread count at
# load; LAPACK's eigenpairs move in their last bits with that count, so
# every run reads the same ones from the file named by argv[1]
_GRID16_TRACE = """
import sys
import numpy as np
from ridlnoise import RidlConfig, SimConfig, SpectralData, make_grid, simulator
pairs = np.load(sys.argv[1])
fixed = SpectralData(eigenvalues=pairs["w"], eigenvectors=pairs["v"], residual=0.0)
simulator.laplacian_eigenpairs = lambda graph: fixed
g = make_grid((16, 16))
cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
est = simulator.estimate_noise_index(g, cfg, SimConfig(horizon=300, ensemble=64, seed=5))
print(np.float64(est.bias_bound).tobytes().hex())
print(np.float64(est.j_hat).tobytes().hex(), np.float64(est.std_error).tobytes().hex())
"""


def _grid16_trace(pairs, openblas_threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(ridlnoise.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run([sys.executable, "-c", _GRID16_TRACE, str(pairs)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_step_loop_makes_no_blas_call(tmp_path):
    # a 16x16 chunk holds 16384 values, enough for OpenBLAS to split a dot
    # product over its threads and change its last bits; an 8x8 grid is
    # not. j_hat and std_error cover the shadow's coefficients too
    spectrum = laplacian_eigenpairs(make_grid((16, 16)))
    pairs = tmp_path / "pairs.npz"
    np.savez(pairs, w=spectrum.eigenvalues, v=spectrum.eigenvectors)
    assert _grid16_trace(pairs, "1") == _grid16_trace(pairs, None)


class TestControlVariate:
    @pytest.mark.parametrize("horizon", [1, 5, 50])
    def test_closed_form_mean_matches_propagated_covariance(self, horizon):
        g = make_grid((4, 4))
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.5, k=0.8)
        delta, one_minus_mu_sq, _ = moment_spectra(laplacian_eigenpairs(g).eigenvalues, cfg)
        gains = simulator._mean_field_gains(delta, one_minus_mu_sq, horizon)
        assert cfg.sigma2 * gains.sum() == pytest.approx(
            mean_field_disagreement(g, cfg, horizon), rel=1e-12)

    @pytest.mark.parametrize("g,k", [(make_grid((2, 2)), 0.99), (make_path(10), 0.8)],
                             ids=["grid2x2", "path10"])
    def test_deterministic_step_gives_the_exact_index(self, g, k):
        # at p = 1, P = E[P]: the walk and its shadow agree, so Y - Y~ is
        # rounding and j_hat is the control's mean j_lb = J at any horizon
        cfg = RidlConfig.for_graph(g, p=1.0, sigma2=1.0, k=k)
        est = estimate_noise_index(g, cfg, SimConfig(horizon=None, ensemble=200, seed=1))
        assert est.j_hat == pytest.approx(exact_noise_index(g, cfg).j, rel=1e-12)

    def test_short_horizon_within_three_sigma(self):
        # the shadow's infinite-horizon mean cancels most of the walk's
        # truncation: at T = 76, bias_bound 0.39, j_hat is 0.73 sigma from J
        g = make_grid((16, 16))
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        est = estimate_noise_index(g, cfg, SimConfig(horizon=76, ensemble=300, seed=1))
        assert abs(est.j_hat - exact_noise_index(g, cfg).j) <= 3.0 * est.std_error

    def test_two_sigma_coverage(self):
        g = make_grid((3, 3))
        cfg = RidlConfig.for_graph(g, p=0.7, sigma2=1.0, k=0.8)
        j_exact = exact_noise_index(g, cfg).j
        covered = 0
        for seed in range(100):
            est = estimate_noise_index(g, cfg, SimConfig(horizon=None, ensemble=100,
                                                         seed=seed))
            covered += abs(est.j_hat - j_exact) <= 2.0 * est.std_error
        assert covered >= 88

    def test_standard_error_below_final_state_estimator(self):
        g = make_grid((8, 8))
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=1.0, k=0.8)
        est = estimate_noise_index(g, cfg, SimConfig(horizon=None, ensemble=200, seed=4))
        ref = dense_forward_estimate(g, cfg, SimConfig(horizon=est.horizon, ensemble=200,
                                                       seed=4))
        assert est.std_error * 4.0 <= ref["std_error_raw"]
        assert est.mf_corr > 0.9


# graphs of the bias certificate's check, by id
CERTIFICATE_GRAPHS = {"path6": make_path(6), "path12": make_path(12), "star8": make_star(8),
                      "grid3x4": make_grid((3, 4)), "C4": make_grid((2, 2)), "K2": K2,
                      "K5": make_complete(5)}


class TestDrift:
    """How far J_T, the mean at horizon T, may still drift below J: a
    share of at most bias_bound = nu_max^T, since each step keeps at most
    nu_max of the remaining tail's trace."""

    @pytest.mark.parametrize("horizon,sigma2", [(1, 1.0), (3, 1.0), (40, 1.0), (40, 0.0)])
    def test_converged_is_bound_below_threshold(self, horizon, sigma2):
        # the bound depends on the spectrum and T, not on the noise
        g = make_path(6)
        cfg = RidlConfig.for_graph(g, p=0.9, sigma2=sigma2, k=0.8)
        est = estimate_noise_index(g, cfg, SimConfig(horizon=horizon, ensemble=100, seed=6))
        assert est.bias_bound == pytest.approx(nu_max(g, cfg) ** horizon, rel=1e-12)
        assert est.converged == (est.bias_bound < simulator.BURN_IN_CHECK)

    @pytest.mark.parametrize("name", CERTIFICATE_GRAPHS)
    def test_matches_the_exact_share(self, name):
        # the exact share (J - J_T) / J, J_T from the propagated covariance,
        # is at most nu_max^T over p, k and T; on K2 and K5 it equals it.
        # The estimate's relative bias, that share less the shadow's, is
        # within the same bound
        g = CERTIFICATE_GRAPHS[name]
        lam = laplacian_eigenpairs(g).eigenvalues
        for p in (0.1, 0.3, 0.7, 1.0):
            for k in (0.3, 0.8, 0.99):
                cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=k)
                j = exact_noise_index(g, cfg).j
                j_lb = mean_field_limit(g, cfg) / g.n
                one_minus_nu = moment_spectra(lam, cfg)[2]
                for t in (1, 2, 5, 20, 80, 300):
                    share = (j - finite_horizon_index(g, cfg, t)) / j
                    shadow_share = (j_lb - mean_field_disagreement(g, cfg, t) / g.n) / j
                    bound = simulator._horizon(one_minus_nu, t)[1]
                    case = f"p={p} k={k} T={t}"
                    assert share <= bound * (1.0 + 1e-6) + 1e-13, case
                    assert abs(share - shadow_share) <= bound * (1.0 + 1e-6) + 1e-13, case
                    # below 1e-8 the share is lost in J's rounding
                    if name in ("K2", "K5") and bound > 1e-8:
                        assert share >= bound * (1.0 - 1e-6), case

    @pytest.mark.parametrize("g,p,horizon,ensemble,converged", [
        (make_grid((16, 16)), 0.9, 76, 300, False),
        (make_grid((16, 16)), 0.9, 150, 300, False),
        (K2, 0.3, 30, 2000, False),
        (make_grid((16, 16)), 0.9, 738, 300, True),
    ], ids=["grid16-76", "grid16-150", "K2-30", "grid16-738"])
    def test_truncated_runs_are_flagged(self, g, p, horizon, ensemble, converged):
        # the bounds are 0.395, 0.160 and 0.169 on the three short horizons
        # and 1.2e-4 at the bench's 738. j_hat is 0.73 and 0.83 standard
        # errors above J on the grid, whose shadow takes most of the tail,
        # and 8.7 below on K2, whose tail is the walk's slow second moment
        # (nu_max 0.94 against mu_2^2 0.73)
        cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=0.8)
        sim = SimConfig(horizon=horizon, ensemble=ensemble, seed=1)
        assert estimate_noise_index(g, cfg, sim).converged is converged

    def test_default_horizon_covers_the_slow_second_moment(self):
        # on K2 at p = 0.3, nu_max = 0.94 while mu_2^2 = 0.73: the default
        # horizon of 156 steps is converged and j_hat within 3 sigma of J
        cfg = RidlConfig.for_graph(K2, p=0.3, sigma2=1.0, k=0.8)
        est = estimate_noise_index(K2, cfg, SimConfig(horizon=None, ensemble=2000, seed=1))
        assert est.horizon == 156
        assert est.converged
        assert abs(est.j_hat - exact_noise_index(K2, cfg).j) <= 3.0 * est.std_error
