"""Monte Carlo estimation of the noise index.

Runs an ensemble of independent trajectories of the noisy averaging
dynamics x(t+1) = P(t) x(t) + n(t) from x(0) = 0 and reads the index off
the final-state disagreement d(x_T) = |x_T - mean(x_T)|^2. Starting at
zero makes the expected disagreement increase monotonically toward its
limit, so a drift test on the ensemble's running mean doubles as the
steady-state check.

Each trajectory carries a mean-field shadow x~(t+1) = E[P] x~(t) + n(t),
E[P] = I - eps p^2 L, driven by the same noise. Its expected final
disagreement is known in closed form from the Laplacian spectrum
(as t grows it tends to N times the generic lower bound j_lb), so
d(x_T) - d(x~_T) + E[d(x~_T)] is an unbiased per-replication value with
far less spread than d(x_T): a control variate with coefficient one,
nothing fitted.

P(t) = I - eps L(active subgraph) is never formed. With gamma the 0/1
activation vector and A the sparse (CSR) adjacency,
P(t) x = x - eps gamma * (x * (A gamma) - A (gamma * x)), so a step
costs O(m) per replication on a graph with m edges. Replications step
together in chunks sized to keep the (N, chunk) state in cache, or,
where that makes fewer numpy calls, sized so that the whole horizon is
drawn in one block. The drift test reads this same ensemble; no second
ensemble runs beside it.

The RNG draws are made ahead of the stepping, on one helper thread
started and joined inside each ``estimate_noise_index`` call. Two
buffers of activations and noise, each a (block, chunk, N) slab within
half of ``_DRAW_BUDGET``, take turns: while the main thread steps a
chunk through one block of steps on one buffer, the helper fills the
other with the next (chunk, block) of draws. The main thread waits for
a buffer before it steps it, and hands a buffer back to the helper only
after stepping it, so no buffer is read while it is being filled; an
exception on the helper is re-raised in the caller. numpy's generator
fills and its ufuncs release the GIL, so the two threads overlap on two
cores. The step loop itself makes no BLAS call: the disagreement series
sums its squares with ``einsum``, not ``vdot``, so numpy's OpenBLAS pool
stays asleep instead of spinning on the core the helper needs, and the
series does not depend on how many threads OpenBLAS would split a dot
product over.

Each replication owns an independently spawned RNG stream derived from
the master seed: its T N activations first, then its noise. A second
generator on the same seed, advanced past the activations, reads the
noise, so block-wise draws reproduce the whole-horizon stream value for
value. Every replication's arithmetic is independent of the others in
its chunk, and replications are reduced in fixed order, so estimates
are reproducible bit for bit and neither the chunk size, the block
length nor the thread hand-off affects them.
"""
from __future__ import annotations

import concurrent.futures  # its thread-pool module loads on first use, not at start-up
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

# All scaled to mean 0 and variance sigma^2 by construction; the
# alternatives to gaussian exist to demonstrate that the index depends
# on the noise only through its variance.
NOISE_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

# a run is converged when its drift statistic is below this
BURN_IN_CHECK = 0.05

# target and cap of ``default_horizon``
_HORIZON_TARGET = 1e-4
_HORIZON_CAP = 100_000

# bytes of draws held at once, over both buffers: float64 noise plus
# bool activations
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

    ``mf_corr`` is the correlation of d(x_T) and d(x~_T) across
    replications, which sets the control variate's variance reduction
    (1 - rho^2 at best); nan with fewer than two replications or zero
    variance. ``mean_trace`` is the per-step ensemble mean of d(x_t) / N,
    the series the drift test reads.
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


def _streams(
    seed: np.random.SeedSequence, n_acts: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """A replication's activation generator and its noise generator: the
    same stream, the second advanced past the ``n_acts`` activation draws
    (``random`` takes one 64-bit output per double)."""
    noise_bits = np.random.PCG64(seed)
    noise_bits.advance(n_acts)
    return np.random.Generator(np.random.PCG64(seed)), np.random.Generator(noise_bits)


def _draw_block(
    streams: tuple[np.random.Generator, np.random.Generator],
    p: float,
    dist: str,
    sigma: float,
    acts: np.ndarray,
    noise: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """The next (b, N) activations and noise of one replication, written
    into the views ``acts`` and ``noise``; ``scratch`` is a contiguous
    (b, N) float64 buffer for the raw draws."""
    act_rng, noise_rng = streams
    act_rng.random(out=scratch)
    np.less(scratch, p, out=acts)
    if dist == "gaussian":
        noise_rng.standard_normal(out=scratch)
        np.multiply(scratch, sigma, out=noise)
    elif dist == "rademacher":
        noise_rng.random(out=scratch)
        noise[...] = np.where(scratch < 0.5, -sigma, sigma)
    else:
        # uniform on [-sqrt(3), sqrt(3)] has unit variance
        noise_rng.random(out=scratch)
        scratch *= 2.0
        scratch -= 1.0
        scratch *= math.sqrt(3.0)
        np.multiply(scratch, sigma, out=noise)


def _block_shape(t: int, n: int, m: int) -> tuple[int, int]:
    """Replications per chunk and steps per block of draws.

    Both candidate shapes keep one buffer of draws, a (block, chunk, N)
    slab, within half of ``_DRAW_BUDGET``, so the two buffers the helper
    thread fills in turn stay within it together. The first sizes a chunk
    so that its (N, chunk) state arrays stay near ``_STATE_BYTES`` each,
    keeping a step's working set in a core's cache, and takes the longest
    block of steps that fits. The second draws the whole horizon in one
    block, with as many replications per chunk as fit, up to the first's
    chunk. The shape that makes fewer numpy calls wins: one step of a
    chunk makes four times as many as one block of a replication's draws
    (16 against 4)."""
    buffer_bytes = _DRAW_BUDGET // 2
    chunk = max(1, min(m, _STATE_BYTES // (8 * n)))
    block = max(1, min(t, buffer_bytes // (9 * n * chunk)))  # float64 noise + bool activations
    whole = min(chunk, buffer_bytes // (9 * n * t))
    if whole < 1:
        return chunk, block

    def calls(c: int, b: int) -> int:
        return 4 * -(-m // c) * t + m * -(-t // b)

    return (whole, t) if calls(whole, t) <= calls(chunk, block) else (chunk, block)


def _disagreements(x: np.ndarray) -> np.ndarray:
    """d of each column of the (N, c) state, reduced along contiguous
    rows so that a replication's value does not depend on its chunk."""
    xr = np.ascontiguousarray(x.T)
    dev = xr - xr.mean(axis=1, keepdims=True)
    return (dev * dev).sum(axis=1)


def _step_block(
    x: np.ndarray,
    xs: np.ndarray,
    acts: np.ndarray,
    noise: np.ndarray,
    adj: sparse.csr_array,
    p_bar: sparse.csr_array,
    eps: float,
    series: np.ndarray,
) -> None:
    """Advance the (N, c) states x and x~ in place through the b steps
    whose draws are the (b, c, N) ``acts`` and ``noise``, adding each
    step's disagreement, summed over the chunk, to ``series`` (length b).
    No call here reaches BLAS."""
    n, c = x.shape
    gam, gam_x, update, nt = (np.empty((n, c)) for _ in range(4))
    for t in range(acts.shape[0]):
        np.copyto(gam, acts[t].T)
        np.copyto(nt, noise[t].T)
        np.multiply(gam, x, out=gam_x)
        s1 = adj @ gam
        s2 = adj @ gam_x
        # x <- x - eps * gamma * (x * s1 - s2) + noise
        np.multiply(x, s1, out=update)
        update -= s2
        update *= gam
        update *= eps
        x -= update
        x += nt
        # x~ <- E[P] x~ + noise
        np.add(p_bar @ xs, nt, out=xs)
        # sum of d over the chunk: |x|^2 - |column sums|^2 / N
        col = x.sum(axis=0)
        series[t] += np.einsum("ij,ij->", x, x) - np.einsum("i,i->", col, col) / n


def _run_ensemble(
    seeds: list[np.random.SeedSequence],
    g: UndirectedGraph,
    cfg: RidlConfig,
    sim: SimConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one trajectory and its mean-field shadow per seed from
    x(0) = x~(0) = 0 for ``sim.horizon`` steps.

    The draws of task k, one (chunk, block) in chunk-major order, go into
    buffer k % 2 on the helper thread; task k + 1 is submitted only once
    the main thread has the draws of task k, and so after it has stepped
    task k - 1 on the buffer that task k + 1 refills.

    Returns the final disagreement of each replication, that of each
    shadow, and the per-step disagreement summed over replications.
    """
    n, t_steps, m = g.n, sim.horizon, len(seeds)
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
    sigma = math.sqrt(cfg.sigma2)

    chunk, block = _block_shape(t_steps, n, m)
    buffers = [(np.empty((block, chunk, n), dtype=bool), np.empty((block, chunk, n)))
               for _ in range(2)]
    scratch = np.empty((block, n))
    tasks = [(start, t0) for start in range(0, m, chunk) for t0 in range(0, t_steps, block)]
    streams: list[tuple[np.random.Generator, np.random.Generator]] = []

    def draw(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Fill buffer k % 2 with the draws of task k; runs on the helper."""
        nonlocal streams
        start, t0 = tasks[k]
        c, b = min(chunk, m - start), min(block, t_steps - t0)
        if t0 == 0:
            streams = [_streams(s, t_steps * n) for s in seeds[start:start + c]]
        acts, noise = buffers[k % 2]
        for j, pair in enumerate(streams):
            _draw_block(pair, cfg.p, sim.noise_dist, sigma,
                        acts[:b, j, :], noise[:b, j, :], scratch[:b])
        return acts[:b, :c], noise[:b, :c]

    d_final = np.empty(m)
    d_shadow = np.empty(m)
    series = np.zeros(t_steps)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for k, (start, t0) in enumerate(tasks):
            acts, noise = pending.result()
            if k + 1 < len(tasks):
                pending = helper.submit(draw, k + 1)
            b, c, _ = acts.shape
            if t0 == 0:
                x = np.zeros((n, c))
                xs = np.zeros((n, c))
            _step_block(x, xs, acts, noise, adj, p_bar, cfg.epsilon, series[t0:t0 + b])
            if t0 + b == t_steps:
                d_final[start:start + c] = _disagreements(x)
                d_shadow[start:start + c] = _disagreements(xs)
    return d_final, d_shadow, series


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

    Runs ``sim.ensemble`` independent trajectories from x(0) = 0 for
    ``sim.horizon`` steps, each with fresh update matrices and noise and
    each with its mean-field shadow x~ <- E[P] x~ + n on the same noise.
    Every replication contributes
    Y = d(x_T) - d(x~_T) + E[d(x~_T)], with the last term in closed form
    from the Laplacian spectrum, so E[Y] = E[d(x_T)] exactly: ``j_hat`` is
    the mean of Y over N and ``std_error`` comes from the spread of Y.
    There is no second ensemble and no fitted coefficient. ``mf_corr`` is the
    correlation of d(x_T) and d(x~_T) across replications.

    ``drift`` is the steady-state statistic of the ensemble's per-step
    mean disagreement: the spread of its running mean over the final 10%
    of steps, relative to its final value. With x(0) = 0 the expectation
    rises monotonically, so residual drift means the horizon ended inside
    the transient. ``converged`` is ``drift < BURN_IN_CHECK`` (0.05); a
    False value is a flag, not an error (raise the horizon).

    The draws are made in blocks of steps, advancing each replication's
    noise generator past its activations, so the trajectories equal those
    of whole-horizon draws from the same seeds. One helper thread makes
    the next block of draws while this thread steps the current one; it
    is joined before the call returns, and an exception raised on it is
    re-raised here.

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
    d_final, d_shadow, series = _run_ensemble(seeds, g, cfg, sim)
    per_rep = (d_final - d_shadow + _mean_field_disagreement(g, cfg, sim.horizon)) / n
    mean_trace = series / (n * m)
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
