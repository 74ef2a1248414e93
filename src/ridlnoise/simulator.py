"""Monte Carlo estimation of the noise index.

Runs an ensemble of independent trajectories of the noisy averaging
dynamics x(t+1) = P(t) x(t) + n(t) from x(0) = 0 and reads the index off
the final-state disagreement. Starting at zero makes the expected
disagreement increase monotonically toward its limit, so a drift test on
a pilot ensemble's running mean doubles as the steady-state check.

P(t) = I - eps L(active subgraph) is never formed. With gamma the 0/1
activation vector and A the sparse (CSR) adjacency,
P(t) x = x - eps gamma * (x * (A gamma) - A (gamma * x)), so a step
costs O(m) per replication on a graph with m edges and O(M m) for an
ensemble of M, against O(M N^2) for dense products. The main and the
pilot ensemble run through the same loop, a chunk of replications at a
time: the state is an (N, chunk) array, and each chunk's activations and
noise are drawn up front into (T, chunk, N) buffers kept within a fixed
byte budget.

Each replication owns an independently spawned RNG stream derived from
the master seed (activations drawn first, then noise), every
replication's arithmetic is independent of the others in its chunk, and
replications are reduced in fixed order, so estimates are reproducible
bit for bit and the chunk size does not affect them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import UndirectedGraph, laplacian_spectrum
from .ridl import RidlConfig, StochasticMatrixSample, check_consensus_conditions

__all__ = [
    "SimConfig",
    "SimEstimate",
    "NOISE_DISTRIBUTIONS",
    "step",
    "disagreement",
    "default_horizon",
    "estimate_noise_index",
]

# All scaled to mean 0 and variance sigma^2 by construction; the
# alternatives to gaussian exist to demonstrate that the index depends
# on the noise only through its variance.
NOISE_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

# pilot ensemble size for the steady-state drift test
_PILOT_SIZE = 64


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation parameters."""

    horizon: int
    ensemble: int
    noise_dist: str = "gaussian"
    burn_in_check: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.ensemble < 1:
            raise ValueError(f"ensemble must be >= 1, got {self.ensemble}")
        if self.noise_dist not in NOISE_DISTRIBUTIONS:
            raise ValueError(
                f"unknown noise distribution {self.noise_dist!r}; "
                f"use one of {NOISE_DISTRIBUTIONS}"
            )
        if self.burn_in_check <= 0.0:
            raise ValueError("burn_in_check must be positive")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate with its across-replication standard error."""

    j_hat: float
    std_error: float
    samples_used: int
    converged: bool
    drift: float
    seed: int
    mean_trace: np.ndarray | None = None


def step(x: np.ndarray, p_sample: StochasticMatrixSample, noise: np.ndarray) -> np.ndarray:
    """One update: P x + n."""
    x = np.asarray(x, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = p_sample.matrix.shape[0]
    if x.shape != (n,) or noise.shape != (n,):
        raise ValueError(
            f"dimension mismatch: matrix {p_sample.matrix.shape}, "
            f"state {x.shape}, noise {noise.shape}"
        )
    return p_sample.matrix @ x + noise


def disagreement(x: np.ndarray) -> float:
    """Squared norm of the deviation from the state's own mean."""
    x = np.asarray(x, dtype=np.float64)
    d = x - x.mean()
    return float(d @ d)


def default_horizon(
    g: UndirectedGraph, cfg: RidlConfig, target: float = 1e-4, cap: int = 100_000
) -> int:
    """Smallest T with (1 - eps p^2 lambda_2)^(2T) below ``target``,
    capped; ties the burn-in length to the spectral gap."""
    lam2 = float(laplacian_spectrum(g).eigenvalues[1])
    rho = abs(1.0 - cfg.epsilon * cfg.p**2 * lam2)
    if rho <= 0.0:
        return 1
    if rho >= 1.0:
        return cap
    t = math.ceil(math.log(target) / (2.0 * math.log(rho)))
    return max(1, min(t, cap))


def _draw_into(
    seed: np.random.SeedSequence,
    p: float,
    dist: str,
    sigma: float,
    acts: np.ndarray,
    noise: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Activations then noise for one replication, from its own stream,
    written into the (T, N) views ``acts`` and ``noise``; ``scratch`` is
    a contiguous (T, N) float64 buffer for the raw draws."""
    rng = np.random.default_rng(seed)
    rng.random(out=scratch)
    np.less(scratch, p, out=acts)
    if dist == "gaussian":
        rng.standard_normal(out=scratch)
        np.multiply(scratch, sigma, out=noise)
    elif dist == "rademacher":
        rng.random(out=scratch)
        noise[...] = np.where(scratch < 0.5, -sigma, sigma)
    else:
        # uniform on [-sqrt(3), sqrt(3)] has unit variance
        rng.random(out=scratch)
        scratch *= 2.0
        scratch -= 1.0
        scratch *= math.sqrt(3.0)
        np.multiply(scratch, sigma, out=noise)


def _chunk_size(t: int, n: int, budget_bytes: int = 1 << 25) -> int:
    per_replication = t * n * 9  # float64 noise + bool activations
    return max(1, min(1024, budget_bytes // max(1, per_replication)))


def _run_ensemble(
    seeds: list[np.random.SeedSequence],
    g: UndirectedGraph,
    cfg: RidlConfig,
    sim: SimConfig,
    series: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run one trajectory per seed from x(0) = 0 for ``sim.horizon`` steps.

    Returns the final disagreement of each replication and, with
    ``series``, the per-step disagreement summed over replications.
    """
    from scipy import sparse

    n, t_steps, m = g.n, sim.horizon, len(seeds)
    edges = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    eps = cfg.epsilon
    sigma = math.sqrt(cfg.sigma2)

    chunk = min(m, _chunk_size(t_steps, n))
    acts = np.empty((t_steps, chunk, n), dtype=bool)
    noise = np.empty((t_steps, chunk, n))
    scratch = np.empty((t_steps, n))
    d_final = np.empty(m)
    trace_sum = np.zeros(t_steps) if series else None
    for start in range(0, m, chunk):
        c = min(chunk, m - start)
        for j in range(c):
            _draw_into(seeds[start + j], cfg.p, sim.noise_dist, sigma,
                       acts[:, j, :], noise[:, j, :], scratch)
        x = np.zeros((n, c))
        gam = np.empty((n, c))
        gam_x = np.empty((n, c))
        update = np.empty((n, c))
        for t in range(t_steps):
            np.copyto(gam, acts[t, :c].T)
            np.multiply(gam, x, out=gam_x)
            s1 = adj @ gam
            s2 = adj @ gam_x
            # x <- x - eps * gamma * (x * s1 - s2) + noise
            np.multiply(x, s1, out=update)
            update -= s2
            update *= gam
            update *= eps
            x -= update
            x += noise[t, :c].T
            if series:
                dev = x - x.mean(axis=0)
                trace_sum[t] += (dev * dev).sum()
        # per-replication reductions along contiguous rows, so each
        # replication's value does not depend on the chunk it ran in
        xr = np.ascontiguousarray(x.T)
        dev = xr - xr.mean(axis=1, keepdims=True)
        d_final[start:start + c] = (dev * dev).sum(axis=1)
    return d_final, trace_sum


def _drift(series: np.ndarray) -> float:
    """Spread of the running mean of ``series`` over its final 10% of
    steps, relative to its final value; 0 for an all-zero series and
    infinite when a single step leaves nothing to compare."""
    t_steps = series.size
    running = np.cumsum(series) / np.arange(1, t_steps + 1)
    scale = abs(running[-1])
    if scale == 0.0:
        return 0.0
    if t_steps < 2:
        return math.inf
    window = running[-max(2, t_steps // 10):]
    return float((window.max() - window.min()) / scale)


def estimate_noise_index(
    g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig, track_mean: bool = False
) -> SimEstimate:
    """Ensemble estimate of the noise index.

    Runs ``sim.ensemble`` independent trajectories from x(0) = 0 for
    ``sim.horizon`` steps, each with fresh update matrices and noise;
    returns the mean final-state disagreement over N together with its
    standard error.

    ``drift`` is the pilot ensemble's steady-state statistic: the spread
    of the running mean of its disagreement series over the final 10% of
    steps, relative to its final value. The pilot is a small ensemble so
    the series tracks the expectation rather than one trajectory's
    fluctuations; with x(0) = 0 the expectation rises monotonically, so
    residual drift means the horizon ended inside the transient.
    ``converged`` is ``drift < sim.burn_in_check``; a False value is a
    flag, not an error (raise the horizon).

    With ``track_mean`` the per-step ensemble mean of disagreement / N
    is recorded in ``mean_trace``.
    """
    report = check_consensus_conditions(g, cfg)
    if not report.passed:
        raise ValueError(
            "consensus conditions fail: " + "; ".join(report.messages)
        )
    n, m = g.n, sim.ensemble
    n_pilot = min(_PILOT_SIZE, m)
    seeds = np.random.SeedSequence(sim.seed).spawn(m + n_pilot)

    d_final, trace_sum = _run_ensemble(seeds[:m], g, cfg, sim, track_mean)
    per_rep = d_final / n
    j_hat = float(per_rep.mean())
    std_error = float(per_rep.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0

    _, pilot_sum = _run_ensemble(seeds[m:], g, cfg, sim, True)
    drift = _drift(pilot_sum / (n * n_pilot))
    return SimEstimate(
        j_hat=j_hat,
        std_error=std_error,
        samples_used=m,
        converged=bool(drift < sim.burn_in_check),
        drift=drift,
        seed=sim.seed,
        mean_trace=trace_sum / (n * m) if track_mean else None,
    )
