"""Randomly induced discretized Laplacian (RIDL) update matrices.

Every node is independently active with probability p at each step; the
update matrix is P = I - eps * L(active subgraph). This module samples
such matrices, validates the almost-sure consensus conditions, and
computes the expected operators that drive the noise-index formulas:

* ``expected_p``          P_bar  = E[P]      = I - eps p^2 L_bar
* ``expected_p_squared``  P_bbar = E[P^2]    (closed form in Bernoulli moments)
* ``stein_operator``      X -> X - E[P X P] on N x N matrices, applied
  without forming the N^2 x N^2 second-moment operator E[P (x) P]

The tests check all three against sums over the 2^N activation patterns.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .graphs import UndirectedGraph, is_connected, laplacian

__all__ = [
    "RidlConfig",
    "StochasticMatrixSample",
    "ConsensusReport",
    "omega_projector",
    "sample_activation",
    "induced_laplacian",
    "sample_ridl",
    "check_consensus_conditions",
    "expected_p",
    "expected_p_squared",
    "stein_operator",
]


@dataclass(frozen=True)
class RidlConfig:
    """Sampling and dynamics parameters tied to a graph's maximum degree.

    ``epsilon`` must satisfy 0 < eps < 1/d_max (strict), so the
    normalized step size k = eps * d_max stays in (0, 1). ``sigma2`` is
    the per-node noise variance (0 allowed as the noiseless degenerate
    case). ``p`` is the per-node activation probability; p = 1 is the
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
        if epsilon is None:
            epsilon = k / g.d_max
        return cls(p=p, epsilon=float(epsilon), sigma2=float(sigma2), d_max=g.d_max)


@dataclass(frozen=True)
class StochasticMatrixSample:
    """One sampled update matrix together with the activation pattern
    (0/1 vector) that generated it."""

    matrix: np.ndarray
    pattern: np.ndarray


@dataclass(frozen=True)
class ConsensusReport:
    """Outcome of the almost-sure consensus validation.

    ``positive_diagonal`` holds iff eps * d_max < 1 (every diagonal entry
    of every sample stays >= 1 - k > 0); ``expected_graph_connected``
    holds iff the underlying graph is connected and p > 0 (the graph of
    E[P] is then the underlying graph plus self-loops).
    """

    positive_diagonal: bool
    expected_graph_connected: bool
    passed: bool
    messages: tuple[str, ...] = field(default_factory=tuple)


def omega_projector(n: int) -> np.ndarray:
    """Projector onto the disagreement subspace: I - (1/n) * ones."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def sample_activation(n: int, p: float, rng: np.random.Generator | int) -> np.ndarray:
    """n independent Bernoulli(p) activations as a 0/1 float vector."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"activation probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(rng)
    return (rng.random(n) < p).astype(np.float64)


def induced_laplacian(g: UndirectedGraph, pattern: np.ndarray) -> np.ndarray:
    """Laplacian of the subgraph induced by the active nodes.

    Entry (i, j), i != j, is -gamma_i gamma_j A_ij; the diagonal carries
    the active degrees, so rows sum to zero and the result is PSD.
    """
    pattern = np.asarray(pattern, dtype=np.float64)
    if pattern.shape != (g.n,):
        raise ValueError(f"pattern length {pattern.shape} does not match n={g.n}")
    a_act = g.adjacency * np.outer(pattern, pattern)
    return np.diag(a_act.sum(axis=1)) - a_act


def sample_ridl(
    g: UndirectedGraph, cfg: RidlConfig, rng: np.random.Generator | int
) -> StochasticMatrixSample:
    """Draw one update matrix P = I - eps * L(active pattern)."""
    if cfg.d_max != g.d_max:
        raise ValueError(
            f"config was built for d_max={cfg.d_max} but graph has d_max={g.d_max}"
        )
    pattern = sample_activation(g.n, cfg.p, rng)
    matrix = np.eye(g.n) - cfg.epsilon * induced_laplacian(g, pattern)
    return StochasticMatrixSample(matrix=matrix, pattern=pattern)


def check_consensus_conditions(g: UndirectedGraph, cfg: RidlConfig) -> ConsensusReport:
    """Validate the two almost-sure consensus conditions for this pair."""
    messages = []
    positive_diagonal = cfg.epsilon * g.d_max < 1.0
    if not positive_diagonal:
        messages.append(
            f"eps * d_max = {cfg.epsilon * g.d_max:.6g} >= 1: sampled diagonals "
            "may hit zero"
        )
    connected = is_connected(g) and cfg.p > 0.0
    if not connected:
        messages.append("expected update graph is disconnected (graph or p = 0)")
    return ConsensusReport(
        positive_diagonal=positive_diagonal,
        expected_graph_connected=connected,
        passed=positive_diagonal and connected,
        messages=tuple(messages),
    )


def expected_p(g: UndirectedGraph, cfg: RidlConfig) -> np.ndarray:
    """E[P] = I - eps p^2 L_bar (each edge is live iff both ends are)."""
    return np.eye(g.n) - cfg.epsilon * cfg.p**2 * laplacian(g)


def expected_p_squared(g: UndirectedGraph, cfg: RidlConfig) -> np.ndarray:
    """E[P^2] = I + 2 eps p^2 (eps - eps p - 1) L_bar + eps^2 p^3 L_bar^2.

    Follows from E[L^2] = 2(p^2 - p^3) L_bar + p^3 L_bar^2, which is what
    replacing each activation monomial by p^(distinct indices) gives.
    """
    lbar = laplacian(g)
    e, p = cfg.epsilon, cfg.p
    return np.eye(g.n) + 2.0 * e * p**2 * (e - e * p - 1.0) * lbar + e**2 * p**3 * (lbar @ lbar)


def stein_operator(
    g: UndirectedGraph, cfg: RidlConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """The map X -> X - E[P X P] on symmetric N x N matrices, applied in
    O(N^3) without forming the N^2 x N^2 operator E[P (x) P].

    Writing L = sum_e gamma_a gamma_b M_e over edges e = {a, b} with
    elementary Laplacians M_e, each pair (e, f) contributes
    p^(distinct nodes in e and f) * M_e X M_f. Grouping pairs by how
    many nodes they share (2, 3, or 4 distinct) gives

        X - E[P X P] = eps p^2 (L_bar X + X L_bar)
                     - eps^2 [ p^4 L_bar X L_bar
                             + p^2 (1-p)^2 sum_e (x_aa + x_bb - 2 x_ab) M_e
                             + p^3 (1-p)   sum_v B_v X B_v ]

    where B_v is the Laplacian of the star of edges around node v. The
    map is evaluated in this form rather than as X minus E[P X P], which
    would lose digits when P mixes slowly and E[P X P] is close to X.

    The edge sum is the Laplacian with edge weights x_aa + x_bb - 2 x_ab.
    For the node sum, B_v = diag(c_v) - (e_v a_v^T + a_v e_v^T) with a_v
    the adjacency column of v and c_v = d_v e_v + a_v, the columns of
    C = D + A; expanding the product and summing over v gives

        sum_v B_v X B_v = X o C^2 - (Y + Y^T) + diag(s) A + A diag(s)
                          + diag(q) + A diag(x) A,
        Y = (C o X) A + C o (X A),

    with o the entrywise product, x = diag(X), s and q the column sums
    of A o X and A o (X A).
    """
    lbar = laplacian(g)
    adj = g.adjacency
    c = np.diag(g.degrees.astype(np.float64)) + adj
    c_sq = c @ c
    e, p = cfg.epsilon, cfg.p
    w_edge = e**2 * p**2 * (1.0 - p) ** 2
    w_node = e**2 * p**3 * (1.0 - p)

    def apply(x: np.ndarray) -> np.ndarray:
        lx = lbar @ x
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
        return (
            e * p**2 * (lx + lx.T)
            - e**2 * p**4 * (lx @ lbar)
            - w_edge * (np.diag(wt.sum(axis=1)) - wt)
            - w_node * node_sum
        )

    return apply
