"""Randomly induced discretized Laplacian (RIDL) update matrices.

Every node is independently active with probability p at each step; the
update matrix is P = I - eps * L(active subgraph). This module holds the
parameters of such updates (``RidlConfig``), the disagreement projector,
and the expected quantities that the index computations read:

* ``moment_spectra``  the spectra of E[P] and E[P^2], polynomials in L
* ``stein_operator``  X -> X - E[P X P] on N x N matrices, the
  mean-field part M minus the fluctuation part F, applied without
  forming the N^2 x N^2 second-moment operator E[P (x) P]

No update matrix is formed here: the Monte Carlo loop applies P to its
states through a sparse adjacency it builds from the graph's edge array.
The Stein operator works on dense N x N matrices: its mean-field part
multiplies by the Laplacian filled from the edges, and its fluctuation
part reads the graph's triples (v, u, w), u and w neighbours of v, on a
sparse graph and the adjacency A = D - L on a dense one. The samplers of
P, the expected matrices E[P] and E[P^2], and the sums over the 2^N
activation patterns that check them and this operator live with the
tests, in ``tests/oracles.py``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .graphs import UndirectedGraph, laplacian

__all__ = [
    "RidlConfig",
    "moment_spectra",
    "omega_projector",
    "stein_operator",
]


@dataclass(frozen=True)
class RidlConfig:
    """Sampling and dynamics parameters tied to a graph's maximum degree.

    ``epsilon`` must satisfy 0 < eps < 1/d_max (strict), so the
    normalized step size k = eps * d_max stays in (0, 1), and eps p^2, the
    scale of every moment spectrum, must be at least the smallest normal
    float: below it those spectra lose their digits or vanish. ``sigma2`` is
    the per-node noise variance, finite (0 allowed as the noiseless
    degenerate case). ``p`` is the per-node activation probability; p = 1 is the
    deterministic mode, p = 0 is rejected because the dynamics freeze.
    """

    p: float
    epsilon: float
    sigma2: float
    d_max: int

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"activation probability must be in (0, 1], got {self.p}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if not (0.0 < self.epsilon < 1.0 / self.d_max):
            raise ValueError(
                f"step size must satisfy 0 < eps < 1/d_max = {1.0 / self.d_max:.6g}, "
                f"got {self.epsilon}"
            )
        if self.epsilon * self.p**2 < np.finfo(float).tiny:
            raise ValueError(
                f"step size is too small: eps * p^2 = {self.epsilon * self.p**2:.6g} "
                f"underflows (eps={self.epsilon}, p={self.p})"
            )
        if not np.isfinite(self.sigma2):
            raise ValueError(f"noise variance must be finite, got {self.sigma2}")
        if self.sigma2 < 0.0:
            raise ValueError(f"noise variance must be >= 0, got {self.sigma2}")

    @property
    def k(self) -> float:
        """Normalized step size eps * d_max, in (0, 1)."""
        return self.epsilon * self.d_max

    @classmethod
    def for_graph(
        cls,
        g: UndirectedGraph,
        p: float,
        sigma2: float,
        epsilon: float | None = None,
        k: float | None = None,
    ) -> "RidlConfig":
        """Build a config for ``g``, giving exactly one of eps or k
        (eps = k / d_max)."""
        if (epsilon is None) == (k is None):
            raise ValueError("provide exactly one of epsilon or k")
        if g.d_max < 1:
            raise ValueError("underlying graph is disconnected: it has no edges")
        if epsilon is None:
            epsilon = k / g.d_max
        return cls(p=p, epsilon=float(epsilon), sigma2=float(sigma2), d_max=g.d_max)


def omega_projector(n: int) -> np.ndarray:
    """Projector onto the disagreement subspace: I - (1/n) * ones."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def moment_spectra(lam: np.ndarray, cfg: RidlConfig) -> tuple[np.ndarray, ...]:
    """(delta, 1 - mu^2, 1 - nu) over the nonzero eigenvalues lambda of the
    ascending Laplacian spectrum ``lam``, each without cancellation:
    mu = 1 - delta, delta = eps p^2 lambda, are the eigenvalues of
    E[P] = I - eps p^2 L, and nu, 1 - nu = eps p^2 (2 (1 + eps p - eps)
    lambda - eps p lambda^2), those of E[P^2] (Fagnani & Zampieri, IEEE
    JSAC 2008). nu >= mu^2, as E[P^2] - E[P]^2 is positive semidefinite,
    so 1 - nu is capped at 1 - mu^2, which the two forms' rounding can
    reverse at p = 1 where they agree; 1 - nu > 0 when eps < 1/d_max on the
    graph, since lambda_N <= 2 d_max. Raises :class:`NumericalError` when
    some 1 - nu <= 0.
    """
    e, p = cfg.epsilon, cfg.p
    tail = lam[1:]
    delta = e * p**2 * tail
    one_minus_mu_sq = delta * (2.0 - delta)
    one_minus_nu = np.minimum(
        e * p**2 * (2.0 * (1.0 + e * p - e) * tail - e * p * tail**2), one_minus_mu_sq)
    if one_minus_nu.min() <= 0.0:
        raise NumericalError(
            f"E[P^2] has an eigenvalue >= 1 at Laplacian eigenvalue "
            f"{tail[np.argmin(one_minus_nu)]:.12g}; step size eps={e} is too large"
        )
    return delta, one_minus_mu_sq, one_minus_nu


def stein_operator(
    g: UndirectedGraph, cfg: RidlConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """The map S: X -> X - E[P X P] on symmetric N x N matrices, applied
    without forming the N^2 x N^2 operator E[P (x) P].

    Writing L = sum_e gamma_a gamma_b M_e over edges e = {a, b} with
    elementary Laplacians M_e = b_e b_e^T, b_e = e_a - e_b, each pair
    (e, f) contributes p^(distinct nodes in e and f) * M_e X M_f.
    Grouping pairs by how many nodes they share (2, 3, or 4 distinct)
    gives S = M - F, with M the mean-field part

        M(X) = X - E[P] X E[P]
             = eps p^2 (L_bar X + X L_bar) - eps^2 p^4 L_bar X L_bar

    and F the fluctuation part of :func:`_fluctuation`,

        F(X) = eps^2 [ p^2 (1-p)^2 sum_e (b_e^T X b_e) M_e
                     + p^3 (1-p)   sum_v B_v X B_v ],

    where B_v is the Laplacian of the star of edges around node v. The
    map is evaluated in this form rather than as X minus E[P X P], which
    would lose digits when P mixes slowly and E[P X P] is close to X. M
    takes two N x N products with L_bar; F reads and writes only the
    entries of X on node pairs at distance at most 2, so on sparse graphs
    it costs little beside them.
    """
    lbar = laplacian(g)
    e, p = cfg.epsilon, cfg.p
    fluctuation = _fluctuation(g, cfg)

    def apply(x: np.ndarray) -> np.ndarray:
        lx = lbar @ x
        return e * p**2 * (lx + lx.T) - e**2 * p**4 * (lx @ lbar) - fluctuation(x)

    return apply


def _fluctuation(g: UndirectedGraph, cfg: RidlConfig) -> Callable[[np.ndarray], np.ndarray]:
    """The fluctuation part F = M - S of :func:`stein_operator`, the map
    X -> E[P X P] - E[P] X E[P]. Expanding B_v = sum_{u in N(v)} M_vu,
    both of its sums run over the triples (v, u, w) with u and w
    neighbours of v:

        F(X) = sum_v sum_{u, w in N(v)} c_uw (x_vv - x_vw - x_uv + x_uw)
                                         (e_v - e_u)(e_v - e_w)^T,

    c_uw = eps^2 p^3 (1-p) + [u = w] eps^2 p^2 (1-p)^2 / 2, as each edge's
    term appears once from either end. There are sum_v d_v^2 triples:
    when that is at most N^2 (paths, grids, the star), F is evaluated
    triple by triple (:func:`_fluctuation_triples`), and otherwise by dense
    N x N products (:func:`_fluctuation_dense`)."""
    deg = g.degrees
    if int(deg @ deg) <= g.n * g.n:
        return _fluctuation_triples(g, cfg)
    return _fluctuation_dense(g, cfg)


def _fluctuation_triples(
    g: UndirectedGraph, cfg: RidlConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """F from the triple form of :func:`_fluctuation`: four gathers of the
    graph's flat triple indices and one scatter-add, O(sum_v d_v^2) beside
    the N x N output."""
    index, same = g._triples
    e, p = cfg.epsilon, cfg.p
    coef = e**2 * p**3 * (1.0 - p) + (0.5 * e**2 * p**2 * (1.0 - p) ** 2) * same
    sign = np.array([1.0, -1.0, -1.0, 1.0])[:, None]
    n = g.n

    def apply(x: np.ndarray) -> np.ndarray:
        flat = x.ravel()
        t = coef * (flat[index[0]] - flat[index[1]] - flat[index[2]] + flat[index[3]])
        return np.bincount(index.ravel(), (sign * t).ravel(), n * n).reshape(n, n)

    return apply


def _fluctuation_dense(
    g: UndirectedGraph, cfg: RidlConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """F by dense N x N products, for symmetric X. The edge sum is the
    Laplacian with edge weights x_aa + x_bb - 2 x_ab. For the node sum,
    B_v = diag(c_v) - (e_v a_v^T + a_v e_v^T) with a_v the adjacency column
    of v and c_v = d_v e_v + a_v, the columns of C = D + A; expanding the
    product and summing over v gives

        sum_v B_v X B_v = X o C^2 - (Y + Y^T) + diag(s) A + A diag(s)
                          + diag(q) + A diag(x) A,
        Y = (C o X) A + C o (X A),

    with o the entrywise product, x = diag(X), s and q the column sums
    of A o X and A o (X A)."""
    deg = np.diag(g.degrees.astype(np.float64))
    adj = deg - laplacian(g)
    c = deg + adj
    c_sq = c @ c
    e, p = cfg.epsilon, cfg.p
    w_edge = e**2 * p**2 * (1.0 - p) ** 2
    w_node = e**2 * p**3 * (1.0 - p)

    def apply(x: np.ndarray) -> np.ndarray:
        xd = np.diag(x)
        xa = x @ adj
        wt = adj * (xd[:, None] + xd[None, :] - 2.0 * x)
        y = (c * x) @ adj + c * xa
        s = (adj * x).sum(axis=0)
        q = (adj * xa).sum(axis=0)
        node_sum = (
            x * c_sq - (y + y.T) + s[:, None] * adj + adj * s[None, :]
            + np.diag(q) + (adj * xd) @ adj
        )
        return w_edge * (np.diag(wt.sum(axis=1)) - wt) + w_node * node_sum

    return apply
