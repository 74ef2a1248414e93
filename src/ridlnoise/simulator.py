"""Monte Carlo estimation of the noise index.

The noisy averaging dynamics x(t+1) = P(t) x(t) + n(t) from x(0) = 0
give x_T = sum_s P(T-1) ... P(s+1) n(s), so with Omega = I - 11^T/N,

    E[d(x_T)] = sigma^2 sum_{k<T} E |Omega P_k ... P_1|_F^2,

d(x) = |Omega x|^2 the disagreement: noise injected k steps before T
passes through k update matrices. The P's are i.i.d. and symmetric and
commute with Omega, so the k-th term is also E |P_k ... P_1 Omega|_F^2,
and |Q Omega|_F^2 = E_z |Q Omega z|^2 for any probe z with E[z z^T] = I
(Hutchinson's trace estimator). Each replication therefore draws one
probe z of N values from the requested noise law, sets y_0 = Omega z,
steps the noiseless y_k = P_k y_(k-1) and returns
Y = sigma^2 sum_{k<T} |y_k|^2, with E[Y] = E[d(x_T)]: (T - 1) N
activations and N probe values per replication, where the forward
dynamics would also draw T N noise values.

Each probe carries a mean-field shadow y~_k = E[P] y~_(k-1) from the same
y_0, E[P] = I - eps p^2 L. Its expected sum of squares equals the
expected final disagreement of x~(t+1) = E[P] x~(t) + n(t), known in
closed form from the Laplacian spectrum (as T grows it tends to N times
the generic lower bound j_lb), so Y - Y~ + E[Y~] is an unbiased
per-replication value with far less spread than Y: a control variate
with coefficient one, nothing fitted. The ensemble mean of the running
sums sigma^2 sum_{k<t} |y_k|^2 is an unbiased estimate of E[d(x_t)] at
every t, and the drift test reads this series; no second ensemble runs
beside it.

P(t) = I - eps L(active subgraph) is never formed. With gamma the 0/1
activation vector and A the sparse (CSR) adjacency,
P(t) y = y - eps gamma * (y * (A gamma) - A (gamma * y)), so a step
costs O(m) per replication on a graph with m edges. Replications step
together in chunks sized to keep the (N, chunk) state in cache, and the
activations are drawn ahead in blocks of steps, a bool buffer within
``_DRAW_BUDGET``; on small graphs a block is the whole horizon. All of
it runs on the calling thread. The step loop makes no BLAS call: the
sums of squares are numpy reductions, not ``vdot``, so numpy's OpenBLAS
pool stays asleep and the results do not depend on how many threads
OpenBLAS would split a dot product over.

Each replication owns one independently spawned RNG stream derived from
the master seed: its probe first, then its activations step by step, so
block-wise draws reproduce the whole-horizon stream value for value.
Every replication's arithmetic is independent of the others in its
chunk, and replications are reduced in fixed order, so estimates are
reproducible bit for bit and neither the chunk size nor the block
length affects them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse  # loaded at start-up, not inside the first Monte Carlo run

from .graphs import UndirectedGraph, is_connected, laplacian_spectrum
from .ridl import RidlConfig

__all__ = [
    "BURN_IN_CHECK",
    "SimConfig",
    "SimEstimate",
    "NOISE_DISTRIBUTIONS",
    "default_horizon",
    "estimate_noise_index",
]

# Laws of the probe z, each with mean 0 and variance 1. The index
# depends on the noise only through its variance, and the reverse-time
# estimator is unbiased for any probe with E[z z^T] = I; the alternatives
# to gaussian demonstrate both.
NOISE_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

# a run is converged when its drift statistic is below this
BURN_IN_CHECK = 0.05

# target and cap of ``default_horizon``
_HORIZON_TARGET = 1e-4
_HORIZON_CAP = 100_000

# bytes of activation draws held at once: the bool buffer plus the
# float64 scratch it is drawn through
_DRAW_BUDGET = 1 << 25
# bytes of one (N, chunk) state array; a step touches about ten of them,
# and stepping is memory-bound once they spill out of a core's L2 cache
_STATE_BYTES = 1 << 17


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation parameters."""

    horizon: int
    ensemble: int
    noise_dist: str = "gaussian"
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


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate with its across-replication standard error.

    ``mf_corr`` is the correlation of a replication's Y and its shadow's
    Y~ across replications, which sets the control variate's variance
    reduction (1 - rho^2 at best); nan with fewer than two replications or
    zero variance. ``mean_trace`` has one entry per step t = 1..T: the
    ensemble mean of the running sums sigma^2 sum_{k<t} |y_k|^2 over N,
    an unbiased estimate of E[d(x_t)] / N, and the series the drift test
    reads.
    """

    j_hat: float
    std_error: float
    converged: bool
    drift: float
    mf_corr: float
    mean_trace: np.ndarray


def default_horizon(g: UndirectedGraph, cfg: RidlConfig) -> int:
    """Smallest T with (1 - eps p^2 lambda_2)^(2T) below
    ``_HORIZON_TARGET`` (1e-4), capped at ``_HORIZON_CAP`` (100000); ties
    the burn-in length to the spectral gap."""
    lam2 = float(laplacian_spectrum(g).eigenvalues[1])
    rho = abs(1.0 - cfg.epsilon * cfg.p**2 * lam2)
    if rho <= 0.0:
        return 1
    if rho >= 1.0:
        return _HORIZON_CAP
    t = math.ceil(math.log(_HORIZON_TARGET) / (2.0 * math.log(rho)))
    return max(1, min(t, _HORIZON_CAP))


def _mean_field_disagreement(g: UndirectedGraph, cfg: RidlConfig, t: int) -> float:
    """E[d(x~_t)] for x~ <- E[P] x~ + n from x~(0) = 0:
    sigma^2 sum_{i>=2} (1 - mu_i^(2t)) / (1 - mu_i^2), mu_i = 1 - a_i,
    a_i = eps p^2 lambda_i."""
    a = cfg.epsilon * cfg.p**2 * laplacian_spectrum(g).eigenvalues[1:]
    # log|mu| without cancellation at small a; mu = 0 gives -inf, i.e. mu^(2t) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs_mu = np.where(a < 1.0, np.log1p(-a), np.log(a - 1.0))
    return cfg.sigma2 * float(np.sum(-np.expm1(2 * t * log_abs_mu) / (a * (2.0 - a))))


def _probe(rng: np.random.Generator, n: int, dist: str) -> np.ndarray:
    """N draws of unit variance from the law ``dist``, minus their mean:
    the start Omega z of one replication."""
    if dist == "gaussian":
        z = rng.standard_normal(n)
    elif dist == "rademacher":
        z = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    else:
        # uniform on [-sqrt(3), sqrt(3)] has unit variance
        z = math.sqrt(3.0) * (2.0 * rng.random(n) - 1.0)
    return z - z.mean()


def _block_shape(t: int, n: int, m: int) -> tuple[int, int]:
    """Replications per chunk and steps per block of draws, for ``t``
    steps of ``m`` replications on ``n`` nodes.

    A chunk's (N, chunk) state arrays stay near ``_STATE_BYTES`` each,
    keeping a step's working set in a core's cache. A block is the
    longest run of steps whose (block, chunk, N) bool activations and
    the (block, N) float64 scratch they are drawn through fit in
    ``_DRAW_BUDGET``; on small graphs that is the whole horizon, one
    draw per replication."""
    chunk = max(1, min(m, _STATE_BYTES // (8 * n)))
    block = max(1, min(t, _DRAW_BUDGET // (n * (chunk + 8))))
    return chunk, block


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each column of the (N, c) array ``a``, reduced along
    contiguous rows so that a replication's value does not depend on its
    chunk."""
    return np.ascontiguousarray(a.T).sum(axis=1)


def _step_block(
    y: np.ndarray,
    ys: np.ndarray,
    acts: np.ndarray,
    adj: sparse.csr_array,
    p_bar: sparse.csr_array,
    eps: float,
    energy: np.ndarray,
    shadow: np.ndarray,
    series: np.ndarray,
) -> np.ndarray:
    """Advance the (N, c) probes y <- P y and y~ <- E[P] y~ through the b
    steps whose activations are the (b, c, N) ``acts``, adding each new
    |y|^2 and |y~|^2 entrywise to ``energy`` and ``shadow`` and its sum
    over the chunk to ``series`` (length b). Returns y~, which the
    sparse product replaces. No call here reaches BLAS."""
    n, c = y.shape
    gam, gam_y, update, sq = (np.empty((n, c)) for _ in range(4))
    for t in range(acts.shape[0]):
        np.copyto(gam, acts[t].T)
        np.multiply(gam, y, out=gam_y)
        s1 = adj @ gam
        s2 = adj @ gam_y
        # y <- y - eps * gamma * (y * s1 - s2)
        np.multiply(y, s1, out=update)
        update -= s2
        update *= gam
        update *= eps
        y -= update
        ys = p_bar @ ys
        np.multiply(y, y, out=sq)
        energy += sq
        series[t] += sq.sum()
        np.multiply(ys, ys, out=sq)
        shadow += sq
    return ys


def _run_ensemble(
    seeds: list[np.random.SeedSequence],
    g: UndirectedGraph,
    cfg: RidlConfig,
    sim: SimConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate one probe and its mean-field shadow per seed through
    ``sim.horizon - 1`` steps.

    Returns, per replication, the sums over k < T of |y_k|^2 and of
    |y~_k|^2, and the per-step |y_k|^2 summed over replications.
    """
    n, steps, m = g.n, sim.horizon - 1, len(seeds)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    adj = sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    # E[P] = I - a (D - A), a = eps p^2: a off the diagonal, 1 - a deg on it
    a = cfg.epsilon * cfg.p**2
    diag = np.arange(n)
    p_bar = sparse.csr_array(
        (np.concatenate([np.full(rows.size, a), 1.0 - a * g.degrees]),
         (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
        shape=(n, n),
    )

    chunk, block = _block_shape(steps, n, m)
    acts = np.empty((block, chunk, n), dtype=bool)
    scratch = np.empty((block, n))
    energy_sums = np.empty(m)
    shadow_sums = np.empty(m)
    series = np.zeros(sim.horizon)
    for start in range(0, m, chunk):
        c = min(chunk, m - start)
        rngs = [np.random.default_rng(s) for s in seeds[start:start + c]]
        y = np.empty((n, c))
        for j, rng in enumerate(rngs):
            y[:, j] = _probe(rng, n, sim.noise_dist)
        ys = y.copy()
        energy = y * y
        shadow = energy.copy()
        series[0] += energy.sum()
        for t0 in range(0, steps, block):
            b = min(block, steps - t0)
            for j, rng in enumerate(rngs):
                rng.random(out=scratch[:b])
                np.less(scratch[:b], cfg.p, out=acts[:b, j])
            ys = _step_block(y, ys, acts[:b, :c], adj, p_bar, cfg.epsilon,
                             energy, shadow, series[1 + t0:1 + t0 + b])
        energy_sums[start:start + c] = _column_sums(energy)
        shadow_sums[start:start + c] = _column_sums(shadow)
    return energy_sums, shadow_sums, series


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
    g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig
) -> SimEstimate:
    """Ensemble estimate of the noise index.

    Runs ``sim.ensemble`` independent replications of the reverse-time
    estimator: one probe y_0 = Omega z, z drawn from ``sim.noise_dist``,
    stepped through ``sim.horizon - 1`` fresh update matrices beside its
    mean-field shadow y~ <- E[P] y~ from the same y_0. Every replication
    contributes Y - Y~ + E[Y~], with Y = sigma^2 sum_{k<T} |y_k|^2, Y~
    likewise for the shadow, and E[Y~] in closed form from the Laplacian
    spectrum, so its mean is E[d(x_T)] exactly for the forward dynamics
    x <- P x + n from x(0) = 0: ``j_hat`` is the mean over N and
    ``std_error`` comes from the spread. There is no second ensemble and
    no fitted coefficient. ``mf_corr`` is the correlation of Y and Y~
    across replications.

    ``drift`` is the steady-state statistic of ``mean_trace``, the
    ensemble's estimate of E[d(x_t)] / N for t = 1..T: the spread of its
    running mean over the final 10% of steps, relative to its final value.
    From x(0) = 0 the expectation rises monotonically, so residual drift
    means the horizon ended inside the transient. ``converged`` is
    ``drift < BURN_IN_CHECK`` (0.05); a False value is a flag, not an
    error (raise the horizon).

    The activations are drawn in blocks of steps from the generator that
    drew the probe, so the values equal those of whole-horizon draws from
    the same seeds. Everything runs on the calling thread.

    Raises ValueError unless both almost-sure consensus conditions hold:
    eps * d_max < 1 on ``g``, so every sampled diagonal stays positive,
    and ``g`` is connected, so E[P] has a simple consensus eigenvalue.
    """
    failures = []
    if cfg.epsilon * g.d_max >= 1.0:
        failures.append(
            f"eps * d_max = {cfg.epsilon * g.d_max:.6g} >= 1: sampled diagonals "
            "may hit zero"
        )
    if not is_connected(g):
        failures.append("graph is disconnected")
    if failures:
        raise ValueError("consensus conditions fail: " + "; ".join(failures))
    n, m = g.n, sim.ensemble
    seeds = np.random.SeedSequence(sim.seed).spawn(m)
    energy, shadow, series = _run_ensemble(seeds, g, cfg, sim)
    d_final = cfg.sigma2 * energy
    d_shadow = cfg.sigma2 * shadow
    per_rep = (d_final - d_shadow + _mean_field_disagreement(g, cfg, sim.horizon)) / n
    mean_trace = cfg.sigma2 * np.cumsum(series) / (n * m)
    drift = _drift(mean_trace)
    if m > 1 and d_final.std() > 0.0 and d_shadow.std() > 0.0:
        mf_corr = float(np.corrcoef(d_final, d_shadow)[0, 1])
    else:
        mf_corr = math.nan
    return SimEstimate(
        j_hat=float(per_rep.mean()),
        std_error=float(per_rep.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
        converged=bool(drift < BURN_IN_CHECK),
        drift=drift,
        mf_corr=mf_corr,
        mean_trace=mean_trace,
    )
