"""Monte Carlo estimation of the noise index.

The noisy averaging dynamics x(t+1) = P(t) x(t) + n(t) from x(0) = 0
give x_T = sum_s P(T-1) ... P(s+1) n(s), so with Omega = I - 11^T/N,

    E[d(x_T)] = sigma^2 sum_{k<T} E |Omega P_k ... P_1|_F^2,

d(x) = |Omega x|^2 the disagreement: noise injected k steps before T
passes through k update matrices. The P's are i.i.d. and symmetric and
commute with Omega, so the k-th term is also E |P_k ... P_1 Omega|_F^2,
and |Q Omega|_F^2 = E_z |Q Omega z|^2 for any probe z with E[z z^T] = I
(Hutchinson's trace estimator). Each replication therefore draws one
Gaussian probe z of N values, sets y_0 = Omega z, steps the noiseless
y_k = P_k y_(k-1) and returns Y = sigma^2 sum_{k<T} |y_k|^2, with
E[Y] = E[d(x_T)]: (T - 1) N activations and N probe values per
replication, where the forward dynamics would also draw T N noise values.

Each probe has a mean-field shadow, the sum Y~ = sigma^2 sum_{k<T}
|E[P]^k y_0|^2, which needs no stepping: with E[P] = I - eps p^2 L and
the Laplacian eigenpairs (lambda_i, v_i), it is
sigma^2 sum_{i>=2} g_i (v_i^T y_0)^2, g_i = (1 - mu_i^(2T)) / (1 - mu_i^2)
and mu_i = 1 - eps p^2 lambda_i, the deterministic part of the
second-moment recursion (Fagnani & Zampieri, IEEE JSAC 2008). As T
grows, its mean sigma^2 sum_i g_i tends to sigma^2 sum_i 1 / (1 - mu_i^2)
= N j_lb, N times the generic lower bound. Each replication contributes
Y - Y~ + N j_lb, a control variate with a known mean (Glasserman, "Monte
Carlo Methods in Financial Engineering", 2003, ch. 4), coefficient one,
nothing fitted: Y - Y~ has far less spread than Y, and the shadow's
truncation cancels the share of the walk's that their modes have in
common.

Stopping at T leaves a bias with a closed-form bound. With
Phi(X) = E[P X P], the disagreement covariance of x_T is
Sigma_T = sum_{k<T} Phi^k(Omega), so J - J_T = sigma^2/N tr Phi^T(Sigma)
for the limit Sigma, where J_T = E[d(x_T)] / N. For symmetric P,
tr Phi(X) = tr(X E[P^2]), and E[P^2] has the eigenvalues nu_i on the
disagreement subspace 1^perp, so tr Phi(X) <= nu_max tr X for every
X >= 0 on 1^perp, which Phi maps to itself; T such steps from Sigma give
0 <= J - J_T <= J nu_max^T, with nu_max = 1 - min(1 - nu_i) from
:func:`~ridlnoise.ridl.moment_spectra`. The shadow's tail is the same
with E[P] for P: j_lb - E[Y~]/N = sigma^2/N sum_i mu_i^(2T) / (1 - mu_i^2)
lies in [0, j_lb nu_max^T], as mu_i^2 <= nu_i and j_lb <= J. A
replication's value over N has the mean J_T - E[Y~]/N + j_lb = J - e_T,
e_T the difference of the two tails, so |e_T| <= J nu_max^T. At p = 1,
P = E[P], the tails agree and e_T = 0. The one rate log nu_max sets the
default horizon, the smallest T with nu_max^T <= 1e-4, capped at 100000,
and the convergence flag, nu_max^T < 1e-3.

P(t) = I - eps L(active subgraph) is never formed. With gamma the 0/1
activation vector and A the sparse (CSR) adjacency, stored as eps A,
P(t) y = y - gamma * (y * (eps A gamma) - eps A (gamma * y)), so a step
costs O(m) per replication on a graph with m edges. Replications step
together in chunks sized to keep the (N, chunk) state in cache. A
Bernoulli(p) activation takes one random byte, refined on the 1/256 of
ties by one uniform (Devroye, "Non-Uniform Random Variate Generation",
1986), and the activations are drawn in blocks of ``_DRAW_STEPS`` (1024)
steps into a bool buffer. All of it runs on the calling thread. Neither
the step loop nor the shadow makes a BLAS call: the sums of squares and
the coefficients v_i^T y_0 are numpy reductions, not ``vdot`` or a
matrix product, so numpy's OpenBLAS pool stays asleep and the results do
not depend on how many threads OpenBLAS would split a product over. (The
eigenpairs themselves come from LAPACK, whose last bits do.)

Each replication owns one independently spawned RNG stream derived from
the master seed: its probe first, then, block by block of
``_DRAW_STEPS`` steps, ceil(N/8) 64-bit words of activation bytes per
step followed by the uniforms of that block's ties in time order. The
block length is part of the stream's definition, not a memory setting
(substreams of fixed length, as in L'Ecuyer, Simard, Chen & Kelton,
Operations Research 2002). Every replication's arithmetic is independent
of the others in its chunk, and replications are reduced in fixed
order, so estimates are reproducible bit for bit and the chunk size does
not affect them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse  # loaded at start-up, not inside the first Monte Carlo run

from .graphs import UndirectedGraph, is_connected, laplacian_eigenpairs
from .ridl import RidlConfig, moment_spectra

__all__ = [
    "BURN_IN_CHECK",
    "SimConfig",
    "SimEstimate",
    "estimate_noise_index",
]

# a run is converged when its bias bound nu_max^T is below this
BURN_IN_CHECK = 1e-3

# the default horizon is the smallest T with nu_max^T at most the target,
# capped
_HORIZON_TARGET = 1e-4
_HORIZON_CAP = 100_000

# steps of activations per block of draws: each replication's stream
# takes a block's bytes, then that block's tie uniforms
_DRAW_STEPS = 1024
# bytes of one (N, chunk) state array; a step touches about ten of them,
# and stepping is memory-bound once they spill out of a core's L2 cache
_STATE_BYTES = 1 << 17


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation parameters; ``horizon`` None picks the default T."""

    horizon: int | None
    ensemble: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.ensemble < 1:
            raise ValueError(f"ensemble must be >= 1, got {self.ensemble}")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate with its across-replication standard error.

    ``horizon`` is the T the estimate ran, ``bias_bound`` is nu_max^T,
    which bounds its relative bias |J - E[j_hat]| / J from above, and
    ``converged`` is ``bias_bound < BURN_IN_CHECK`` (1e-3).
    ``mf_corr`` is the correlation of a replication's Y and its shadow's
    closed-form Y~ = sigma^2 sum_i g_i (v_i^T y_0)^2 across replications,
    which sets the control variate's variance reduction (1 - rho^2 at
    best); nan with fewer than two replications or zero variance.
    """

    horizon: int
    j_hat: float
    std_error: float
    converged: bool
    bias_bound: float
    mf_corr: float


def _horizon(one_minus_nu: np.ndarray, horizon: int | None) -> tuple[int, float]:
    """The horizon T, ``horizon`` or if None the smallest T >= 1 with
    nu_max^T <= ``_HORIZON_TARGET``, capped at ``_HORIZON_CAP``, and its
    bias bound nu_max^T, with nu_max = 1 - min(1 - nu_i) over
    ``one_minus_nu``. log1p keeps the rate below 0 where nu_max itself
    would round to 1, and nu_max = 0 gives -inf."""
    with np.errstate(divide="ignore"):
        rate = float(np.log1p(-one_minus_nu.min()))
    if horizon is None:
        # capped before ceil, so a rate near 0 never reaches ceil(inf)
        horizon = max(1, math.ceil(min(math.log(_HORIZON_TARGET) / rate, _HORIZON_CAP)))
    return horizon, math.exp(horizon * rate)


def _mean_field_gains(delta: np.ndarray, one_minus_mu_sq: np.ndarray, t: int) -> np.ndarray:
    """g_i = sum_{k<t} mu_i^(2k) = (1 - mu_i^(2t)) / (1 - mu_i^2), with
    mu_i = 1 - delta_i the eigenvalues of E[P] off consensus
    (:func:`~ridlnoise.ridl.moment_spectra`): a unit probe's squared
    coefficient on v_i summed over t mean-field steps."""
    # log|mu| without cancellation at small delta; mu = 0 gives -inf, i.e. mu^(2t) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs_mu = np.where(delta < 1.0, np.log1p(-delta), np.log(delta - 1.0))
    return -np.expm1(2 * t * log_abs_mu) / one_minus_mu_sq


def _step_words(n: int) -> int:
    """64-bit words of activation bytes per step on ``n`` nodes."""
    return -(-n // 8)


def _draw_activations(rng: np.random.Generator, p: float, out: np.ndarray) -> None:
    """Fill the (b, N) bool array ``out`` with the Bernoulli(p) activations
    of b steps, one random byte u per node and step.

    With t = floor(256 p) and f = 256 p - t (both exact), a node is active
    when u < t; a tie u = t, of probability 1/256, is active when a
    uniform is below f, so P(active) = t/256 + f/256 = p to the 2^-53 of
    ``random() < p``. A step takes ``_step_words(N)`` 64-bit words of
    ``rng``, read as little-endian bytes, and the ties then take their
    uniforms from ``rng`` in time order. At p = 1 nothing is drawn, and
    with f = 0 no tie is refined."""
    b, n = out.shape
    if p >= 1.0:
        out[...] = True
        return
    scaled = 256.0 * p
    thr = math.floor(scaled)
    words = _step_words(n)
    raw = rng.bit_generator.random_raw(b * words).astype("<u8", copy=False)
    u = raw.view(np.uint8).reshape(b, 8 * words)[:, :n]
    np.less(u, thr, out=out)
    if scaled > thr:
        tie = u == thr
        count = int(np.count_nonzero(tie))
        if count:
            # ``out`` is a strided view: index it in place, never through a
            # reshaped copy
            out[tie] = rng.random(count) < scaled - thr


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each column of the (N, c) array ``a``, reduced along
    contiguous rows so that a replication's value does not depend on its
    chunk."""
    return np.ascontiguousarray(a.T).sum(axis=1)


def _shadow_sums(vecs: np.ndarray, gains: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_{i>=2} g_i (v_i^T y_r)^2 for each column y_r of the (N, c)
    probes, with the Laplacian eigenvectors v_i the columns of ``vecs``
    and g_i the ``gains``. The coefficients accumulate node by node and
    each column's sum runs along a contiguous row, so a replication's value
    depends neither on its chunk nor on BLAS."""
    n, c = y.shape
    coef = np.zeros((n - 1, c))
    term = np.empty((n - 1, c))
    for j in range(n):
        np.multiply.outer(vecs[j, 1:], y[j], out=term)
        coef += term
    coef *= coef
    coef *= gains[:, None]
    return _column_sums(coef)


def _step_block(
    y: np.ndarray,
    acts: np.ndarray,
    adj: sparse.csr_array,
    energy: np.ndarray,
) -> None:
    """Advance the (N, c) probes y <- P y through the b steps whose
    activations are the (b, c, N) ``acts``, adding each new |y|^2
    entrywise to ``energy``. ``adj`` is eps times the adjacency. No call
    here reaches BLAS."""
    n, c = y.shape
    gam, gam_y, update, sq = (np.empty((n, c)) for _ in range(4))
    for t in range(acts.shape[0]):
        np.copyto(gam, acts[t].T)
        np.multiply(gam, y, out=gam_y)
        s1 = adj @ gam
        s2 = adj @ gam_y
        # y <- y - gamma * (y * s1 - s2), eps already in s1 and s2
        np.multiply(y, s1, out=update)
        update -= s2
        update *= gam
        y -= update
        np.multiply(y, y, out=sq)
        energy += sq


def _run_ensemble(
    root: np.random.SeedSequence,
    g: UndirectedGraph,
    cfg: RidlConfig,
    steps: int,
    m: int,
    vecs: np.ndarray,
    gains: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate ``m`` probes through ``steps`` steps.

    Each chunk spawns its replications' seeds from ``root`` as it starts;
    numpy counts the children spawned, so they are the ones a single
    ``root.spawn(m)`` gives, without holding all of them at
    once. ``vecs`` holds the Laplacian eigenvectors as columns and
    ``gains`` the :func:`_mean_field_gains` of v_2..v_N. Returns, per
    replication, the sum over k <= steps of |y_k|^2, and its mean-field
    shadow sum_i g_i (v_i^T y_0)^2.
    """
    n = g.n
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    adj = sparse.csr_array((np.full(rows.size, cfg.epsilon), (rows, cols)), shape=(n, n))

    # a chunk's (N, chunk) state arrays stay near ``_STATE_BYTES`` each
    chunk = max(1, min(m, _STATE_BYTES // (8 * n)))
    acts = np.empty((min(steps, _DRAW_STEPS), chunk, n), dtype=bool)
    energy_sums = np.empty(m)
    shadow_sums = np.empty(m)
    for start in range(0, m, chunk):
        c = min(chunk, m - start)
        rngs = [np.random.default_rng(s) for s in root.spawn(c)]
        y = np.empty((n, c))
        for j, rng in enumerate(rngs):
            z = rng.standard_normal(n)
            y[:, j] = z - z.mean()  # the start Omega z
        shadow_sums[start:start + c] = _shadow_sums(vecs, gains, y)
        energy = y * y
        for t0 in range(0, steps, _DRAW_STEPS):
            b = min(_DRAW_STEPS, steps - t0)
            for j, rng in enumerate(rngs):
                _draw_activations(rng, cfg.p, acts[:b, j])
            _step_block(y, acts[:b, :c], adj, energy)
        energy_sums[start:start + c] = _column_sums(energy)
    return energy_sums, shadow_sums


def estimate_noise_index(
    g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig
) -> SimEstimate:
    """Ensemble estimate of the noise index.

    Runs ``sim.ensemble`` independent replications of the reverse-time
    estimator: one probe y_0 = Omega z, z standard Gaussian, stepped
    through T - 1 fresh update matrices. Every replication contributes
    Y - Y~ + N j_lb, with Y = sigma^2 sum_{k<T} |y_k|^2 and Y~ its
    mean-field shadow, in closed form from the Laplacian eigenpairs
    (``laplacian_eigenpairs``, solved once per graph). ``j_hat`` is the
    mean over N and ``std_error`` comes from the spread. One read of
    :func:`~ridlnoise.ridl.moment_spectra` gives the shadow's gains, the
    control's mean N j_lb and the rate log nu_max, which sets T when
    ``sim.horizon`` is None and ``bias_bound`` = nu_max^T, the bound on
    |J - E[j_hat]| / J (module docstring). ``converged`` False is a flag,
    not an error (raise the horizon).

    The activations, one random byte each with a uniform for the 1/256 of
    ties, come from the generator that drew the probe, in blocks of 1024
    steps: a block's bytes, then that block's tie uniforms. Everything
    runs on the calling thread.

    Raises ValueError unless both almost-sure consensus conditions hold:
    eps * d_max < 1 on ``g``, so every sampled diagonal stays positive,
    and ``g`` is connected (:func:`~ridlnoise.graphs.is_connected`), so
    E[P] has a simple consensus eigenvalue; both are checked before the
    eigenpairs are read.
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
    spectrum = laplacian_eigenpairs(g)
    n, m = g.n, sim.ensemble
    delta, one_minus_mu_sq, one_minus_nu = moment_spectra(spectrum.eigenvalues, cfg)
    horizon, bias_bound = _horizon(one_minus_nu, sim.horizon)
    gains = _mean_field_gains(delta, one_minus_mu_sq, horizon)
    energy, shadow = _run_ensemble(np.random.SeedSequence(sim.seed), g, cfg, horizon - 1, m,
                                   spectrum.eigenvectors, gains)
    d_final = cfg.sigma2 * energy
    d_shadow = cfg.sigma2 * shadow
    per_rep = (d_final - d_shadow + cfg.sigma2 * float(np.sum(1.0 / one_minus_mu_sq))) / n
    if m > 1 and d_final.std() > 0.0 and d_shadow.std() > 0.0:
        mf_corr = float(np.corrcoef(d_final, d_shadow)[0, 1])
    else:
        mf_corr = math.nan
    return SimEstimate(
        horizon=horizon,
        j_hat=float(per_rep.mean()),
        std_error=float(per_rep.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
        converged=bias_bound < BURN_IN_CHECK,
        bias_bound=bias_bound,
        mf_corr=mf_corr,
    )
