"""Independent oracles used by the tests, and the parts of the model that
only the tests read.

The oracles deliberately avoid the library code paths they check:
effective resistance comes from pseudoinverse pairwise resistances
instead of the spectral sum, the expected update matrices come from
brute-force pattern enumeration instead of the closed forms, and the
exact index comes from the dense N^2 x N^2 second-moment operator
(assembled from Bernoulli moments or by summing all 2^N activation
patterns, with the disagreement projector in any of three places) and an
LU solve with one refinement step, instead of the library's matrix-free
Stein solve. The Monte Carlo reference ``dense_estimate`` runs the
library's reverse-time estimator one replication at a time, with each
update matrix formed densely from the induced Laplacian instead of the
library's sparse step, each replication's draws taken one block at a
time into a whole-horizon array instead of into a chunk's buffer, and
the mean-field control variate's known mean from a dense solve for the
limit of the mean-field noise covariance instead of the spectral sum.
``dense_forward_estimate`` runs the forward noisy dynamics instead, with
two dense N x N products per step and the noise drawn from a Gaussian,
Rademacher or uniform law, and ``finite_horizon_index`` gives
E[d(x_T)] / N by propagating the disagreement covariance through the
Stein map; both check that the reverse-time estimator estimates what the
forward dynamics produce, and the noise laws check that the index depends
on the noise only through its covariance sigma^2 I.
``reference_build`` is the set-based graph construction that the
library's edge-array ``_build`` replaced, kept to check that both give
the same edges and degrees: it returns its own ``ReferenceGraph``, whose
degrees are read off an adjacency rather than derived by the library's
rule. ``reference_laplacian`` fills the Laplacian from an
adjacency built one edge at a time, to check the library's edge-array
fill.

The rest is the paper's derivation, which the command-line program never
evaluates and the tests check the library against:

* the RIDL samplers ``sample_activation``, ``induced_laplacian`` and
  ``sample_ridl``, and the single-sample ``step`` and ``disagreement``;
* the expected matrices ``expected_p`` (E[P]) and ``expected_p_squared``
  (E[P^2]) in closed form, and ``nu_max``, the largest eigenvalue of the
  dense E[P^2] on the disagreement subspace, whose T-th power bounds the
  relative bias of a horizon T;
* ``generic_bounds``, the bounds on the spectra of any E[P] and E[P^2]
  that ``noise_index.ridl_bounds`` specializes to the Laplacian spectrum;
* the per-family closed-form bounds (star, path, complete) and their
  large-N behavior, ``family_asymptotics``;
* ``make_erdos_renyi``, the graph of ``graphs.draw_erdos_renyi``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack as _lapack

from ridlnoise import NumericalError, UndirectedGraph, draw_erdos_renyi, laplacian
from ridlnoise.ridl import RidlConfig, omega_projector, stein_operator
from ridlnoise.simulator import BURN_IN_CHECK, SimConfig

# The three algebraically equivalent placements of the disagreement
# projector inside the second-moment operator; all yield the same noise
# index.
K_VARIANTS = ("pop", "popo", "ppo")

KRON_DIM_CAP = 16384  # max rows/cols of a Kronecker product
DENSE_N_CAP = 64      # largest N for the N^2 x N^2 operator (8 N^4 bytes)
ENUM_N_CAP = 14       # largest N for 2^N pattern enumeration
RCOND_MIN = 1e-12     # reject solves with condition estimate > 1e12
PINV_CUTOFF_RTOL = 1e-9  # pseudoinverse eigenvalue cutoff relative to lambda_max
SYMMETRY_RTOL = 1e-12    # max |A - A^T| relative to max(max |A|, 1)
STOCHASTIC_ATOL = 1e-9   # row sums of a doubly stochastic matrix
PERRON_GAP = 1e-9        # second-largest eigenvalue of E[P] must be < 1 - gap

FAMILIES = ("star", "path", "grid2d", "grid3d", "complete")


class SingularMatrixError(NumericalError):
    """Linear solve rejected; carries the condition-number diagnostic."""


def _as_square_float(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    scale = max(np.abs(a).max(initial=0.0), 1.0)
    skew = np.abs(a - a.T).max(initial=0.0)
    if skew > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name} is not symmetric: max asymmetry {skew:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * scale"
        )


def dense_adjacency(n: int, edges) -> np.ndarray:
    """The symmetric 0/1 n x n adjacency matrix, filled one (i, j) pair
    of ``edges`` at a time."""
    adj = np.zeros((n, n))
    for i, j in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        adj[i, j] = 1.0
        adj[j, i] = 1.0
    return adj


def make_erdos_renyi(n: int, p_er: float, rng: np.random.Generator | int) -> UndirectedGraph:
    """A connected sample of G(n, p_er)."""
    return draw_erdos_renyi(n, p_er, rng).graph


@dataclass(frozen=True)
class StochasticMatrixSample:
    """One sampled update matrix together with the activation pattern
    (0/1 vector) that generated it."""

    matrix: np.ndarray
    pattern: np.ndarray


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
    a_act = dense_adjacency(g.n, g.edges) * np.outer(pattern, pattern)
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


def nu_max(g: UndirectedGraph, cfg: RidlConfig) -> float:
    """Largest eigenvalue of E[P^2] on 1^perp, from ``eigvalsh`` of the
    dense Omega E[P^2] Omega: E[P^2] is positive semidefinite, so the 0 that
    the projection puts on the consensus vector is never the largest."""
    omega = omega_projector(g.n)
    return float(np.linalg.eigvalsh(omega @ expected_p_squared(g, cfg) @ omega)[-1])


def _perron_excluded(eigenvalues: np.ndarray, label: str) -> np.ndarray:
    """Drop the single consensus eigenvalue (the largest, equal to 1)
    after an ascending sort; guard that it is simple."""
    lam = eigenvalues
    if abs(lam[-1] - 1.0) > 1e-8:
        raise NumericalError(
            f"largest eigenvalue of {label} is {lam[-1]:.12g}, expected 1"
        )
    if lam.shape[0] > 1 and lam[-2] >= 1.0 - PERRON_GAP:
        raise NumericalError(
            f"second-largest eigenvalue of {label} is {lam[-2]:.12g}; "
            "the consensus eigenvalue is not simple (disconnected expected graph)"
        )
    return lam[:-1]


def generic_bounds(
    p_bar: np.ndarray, p_bbar: np.ndarray, sigma2: float
) -> tuple[float, float]:
    """Bounds from the spectra of E[P] and E[P^2]:

    (sigma^2/N) sum 1/(1 - lam_i^2(E[P]))  <=  J  <=
    (sigma^2/N) sum 1/(1 - lam_i(E[P^2]))

    summed over the N-1 non-consensus eigenvalues.
    """
    n = p_bar.shape[0]
    if p_bbar.shape != (n, n):
        raise ValueError("E[P] and E[P^2] must have the same shape")
    for name, m in (("E[P]", p_bar), ("E[P^2]", p_bbar)):
        row_err = np.abs(m.sum(axis=1) - 1.0).max()
        if row_err > STOCHASTIC_ATOL:
            raise ValueError(f"{name} is not doubly stochastic (row-sum error {row_err:.3e})")
    lam_bar = _perron_excluded(np.linalg.eigvalsh(p_bar), "E[P]")
    lam_bbar = _perron_excluded(np.linalg.eigvalsh(p_bbar), "E[P^2]")
    den_lb = 1.0 - lam_bar**2
    den_ub = 1.0 - lam_bbar
    for label, den, lam in (("E[P]", den_lb, lam_bar), ("E[P^2]", den_ub, lam_bbar)):
        if den.size and den.min() <= 0.0:
            bad = lam[np.argmin(den)]
            raise NumericalError(
                f"non-consensus eigenvalue {bad:.12g} of {label} reaches the unit "
                "circle; consensus conditions fail"
            )
    j_lb = sigma2 / n * float(np.sum(1.0 / den_lb))
    j_ub = sigma2 / n * float(np.sum(1.0 / den_ub))
    return j_lb, j_ub


def star_closed_form_bounds(n: int, cfg: RidlConfig) -> tuple[float, float]:
    """Star-graph bounds from the explicit spectrum {0, 1 x (N-2), N}."""
    if n < 3:
        raise ValueError(f"star closed form needs n >= 3, got {n}")
    e, p, s2 = cfg.epsilon, cfg.p, cfg.sigma2
    pref = s2 / (e * p**2 * n)
    lb = pref * ((n - 2) / (2.0 - e * p**2) + 1.0 / (n * (2.0 - e * p**2 * n)))
    ub = pref * (
        (n - 2) / (e * p + 2.0 - 2.0 * e)
        + 1.0 / (n * (2.0 * e * p + 2.0 - 2.0 * e - e * p * n))
    )
    return lb, ub


def path_closed_form_bounds(n: int, cfg: RidlConfig) -> tuple[float, float]:
    """Path-graph bounds from the cosine spectrum 2 - 2 cos(pi i / N)."""
    if n < 2:
        raise ValueError(f"path closed form needs n >= 2, got {n}")
    e, p, s2 = cfg.epsilon, cfg.p, cfg.sigma2
    c = np.cos(np.pi * np.arange(1, n) / n)
    pref = s2 / (4.0 * e * p**2 * n)
    lb = pref * float(
        np.sum(1.0 / (1.0 - e * p**2 - e * p**2 * c**2 + (2.0 * e * p**2 - 1.0) * c))
    )
    ub = pref * float(
        np.sum(1.0 / (1.0 - e - e * p * c**2 + (e * p + e - 1.0) * c))
    )
    return lb, ub


def complete_closed_form_bounds(n: int, cfg: RidlConfig) -> tuple[float, float]:
    """Complete-graph bounds from the spectrum {0, N x (N-1)}."""
    if n < 2:
        raise ValueError(f"complete closed form needs n >= 2, got {n}")
    e, p, s2 = cfg.epsilon, cfg.p, cfg.sigma2
    lb = s2 * (n - 1) / (e * p**2 * n**2 * (2.0 - e * p**2 * n))
    ub = s2 * (n - 1) / (e * p**2 * n**2 * (2.0 + 2.0 * e * p - 2.0 * e - e * p * n))
    return lb, ub


@dataclass(frozen=True)
class PredictedScaling:
    """Leading-order large-N behavior of the index for a graph family."""

    family: str
    growth: str  # "linear" or "bounded"
    slope: float | None = None  # per-node slope when growth is linear (star)
    predicted_value: float | None = None  # slope * n when a slope is known
    lb_limit: float | None = None  # large-N limit of the lower bound
    ub_limit: float | None = None  # large-N limit of the upper bound


def family_asymptotics(family: str, n: int, cfg: RidlConfig) -> PredictedScaling:
    """Predicted large-N behavior under the eps = k / d_max convention.

    Star: linear growth with per-node slope sigma^2 / (2 k p^2).
    Path and grids: linear growth in d_max * R_ave (no universal slope).
    Complete: bounded, with explicit limits for both bounds.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; use one of {FAMILIES}")
    p, s2, k = cfg.p, cfg.sigma2, cfg.k
    if family == "star":
        slope = s2 / (2.0 * k * p**2)
        return PredictedScaling(
            family=family, growth="linear", slope=slope, predicted_value=slope * n
        )
    if family == "complete":
        return PredictedScaling(
            family=family,
            growth="bounded",
            lb_limit=s2 / (p**2 * k * (2.0 - p**2 * k)),
            ub_limit=s2 / (p**2 * k * (2.0 - p * k)),
        )
    return PredictedScaling(family=family, growth="linear")


@dataclass(frozen=True)
class ReferenceGraph:
    """The graph of ``reference_build``: its node count, edges as a tuple
    of (i, j) tuples, degrees and maximum degree."""

    n: int
    edges: tuple
    degrees: np.ndarray
    d_max: int


def reference_build(n: int, edges) -> ReferenceGraph:
    """The set-based graph construction that the edge-array ``_build``
    replaced, kept as written: edges canonicalised one pair at a time
    through a set and ``sorted``, and the degrees read off an adjacency
    filled per edge."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    canon = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        canon.add((min(i, j), max(i, j)))
    edge_tuple = tuple(sorted(canon))
    degrees = dense_adjacency(n, edge_tuple).sum(axis=1).astype(np.int64)
    d_max = int(degrees.max(initial=0))
    return ReferenceGraph(n=n, edges=edge_tuple, degrees=degrees, d_max=d_max)


def reference_laplacian(g: UndirectedGraph | ReferenceGraph) -> np.ndarray:
    """D - A with A filled per edge: the Laplacian that
    ``graphs.laplacian`` reproduces bit for bit from the edge array."""
    return np.diag(g.degrees.astype(np.float64)) - dense_adjacency(g.n, g.edges)


def neighbor_lists(g: UndirectedGraph) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    return nbrs


def pseudoinverse_psd(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix via its
    spectral decomposition, zeroing eigenvalues below 1e-9 * lambda_max."""
    a = _as_square_float(a)
    _require_symmetric(a)
    w, v = np.linalg.eigh(a)
    lam_max = float(w.max(initial=0.0))
    cutoff = PINV_CUTOFF_RTOL * max(lam_max, 0.0)
    keep = w > cutoff
    inv_w = np.zeros_like(w)
    inv_w[keep] = 1.0 / w[keep]
    return (v * inv_w) @ v.T


def pairwise_resistance_average(g: UndirectedGraph) -> float:
    """R_ave = (1/(2 N^2)) sum_{i,j} R_ij with R_ij read off the
    Laplacian pseudoinverse."""
    lp = pseudoinverse_psd(laplacian(g))
    d = np.diag(lp)
    r = d[:, None] + d[None, :] - 2.0 * lp
    return float(r.sum() / (2.0 * g.n**2))


def enumerate_patterns(n: int):
    for bits in range(1 << n):
        yield np.array([(bits >> i) & 1 for i in range(n)], dtype=np.float64)


def pattern_weight(pattern: np.ndarray, p: float) -> float:
    active = int(pattern.sum())
    return p**active * (1.0 - p) ** (pattern.size - active)


def enum_expected_p(g: UndirectedGraph, cfg: RidlConfig) -> np.ndarray:
    acc = np.zeros((g.n, g.n))
    for pattern in enumerate_patterns(g.n):
        w = pattern_weight(pattern, cfg.p)
        acc += w * (np.eye(g.n) - cfg.epsilon * induced_laplacian(g, pattern))
    return acc


def enum_expected_p_squared(g: UndirectedGraph, cfg: RidlConfig) -> np.ndarray:
    acc = np.zeros((g.n, g.n))
    for pattern in enumerate_patterns(g.n):
        w = pattern_weight(pattern, cfg.p)
        p_mat = np.eye(g.n) - cfg.epsilon * induced_laplacian(g, pattern)
        acc += w * (p_mat @ p_mat)
    return acc


def kron(a: np.ndarray, b: np.ndarray, dim_cap: int = KRON_DIM_CAP) -> np.ndarray:
    """Kronecker product with an output-size guard.

    Uses the column-stacking convention throughout the package:
    vec(A B C) = (C^T (x) A) vec(B) with vec = ravel(order="F").
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("kron inputs must be finite")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > dim_cap or cols > dim_cap:
        raise ValueError(
            f"kron output {rows}x{cols} exceeds the dimension cap {dim_cap}"
        )
    return np.kron(a, b)


def solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = rhs`` with an LU factorization and a reciprocal
    condition estimate; rejects systems with condition above 1/rcond_min.

    Raises
    ------
    SingularMatrixError
        If the condition estimate exceeds the configured floor.
    """
    a = _as_square_float(a)
    rhs = np.asarray(rhs, dtype=np.float64)
    anorm = np.linalg.norm(a, 1)
    lu, piv, info = _lapack.dgetrf(a)
    if info > 0:
        raise SingularMatrixError(
            f"exact zero pivot at position {info - 1} during LU factorization"
        )
    rcond, info = _lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularMatrixError(
            f"matrix is numerically singular: rcond estimate {rcond:.3e} "
            f"below {RCOND_MIN:.0e}"
        )
    x, info = _lapack.dgetrs(lu, piv, rhs)
    if info != 0:
        raise SingularMatrixError(f"triangular solve failed (info={info})")
    return x


def expected_l_kron_l(g: UndirectedGraph, p: float) -> np.ndarray:
    """E[L (x) L] computed exactly from Bernoulli activation moments.

    Writing L = sum_e gamma_a gamma_b M_e over edges e = {a, b} with
    elementary Laplacians M_e, each pair (e, f) contributes
    p^(distinct nodes in e and f) * M_e (x) M_f. Grouping pairs by how
    many nodes they share (2, 3, or 4 distinct) gives

        E[L (x) L] = p^4 L_bar (x) L_bar
                   + p^2 (1-p)^2 * sum_e M_e (x) M_e
                   + p^3 (1-p)   * sum_v B_v (x) B_v

    where B_v is the Laplacian of the star of edges around node v. The
    elementary terms are assembled sparsely (16 and (3d+1)^2 nonzeros).
    """
    n = g.n
    if not (0.0 < p <= 1.0):
        raise ValueError(f"activation probability must be in (0, 1], got {p}")
    lbar = laplacian(g)
    out = (p**4) * np.kron(lbar, lbar)
    flat = out.reshape(-1)
    n_sq = n * n

    def _add_self_kron(rows, cols, vals, weight):
        # accumulate weight * (M (x) M) for the sparse matrix given in
        # triplet form; kron index of ((r1, c1), (r2, c2)) is
        # (r1 n + r2, c1 n + c2)
        kr = (rows[:, None] * n + rows[None, :]).ravel()
        kc = (cols[:, None] * n + cols[None, :]).ravel()
        kv = (vals[:, None] * vals[None, :]).ravel()
        np.add.at(flat, kr * n_sq + kc, weight * kv)

    w_edge = p**2 * (1.0 - p) ** 2
    w_node = p**3 * (1.0 - p)
    if w_edge != 0.0:
        for a, b in g.edges:
            rows = np.array([a, a, b, b])
            cols = np.array([a, b, a, b])
            vals = np.array([1.0, -1.0, -1.0, 1.0])
            _add_self_kron(rows, cols, vals, w_edge)
    if w_node != 0.0:
        nbrs = neighbor_lists(g)
        for v in range(n):
            deg = len(nbrs[v])
            if deg == 0:
                continue
            us = np.array(nbrs[v])
            rows = np.concatenate(([v], us, np.full(deg, v), us))
            cols = np.concatenate(([v], us, us, np.full(deg, v)))
            vals = np.concatenate(([float(deg)], np.ones(deg), -np.ones(2 * deg)))
            _add_self_kron(rows, cols, vals, w_node)
    return out


def _projector_terms(p_bar: np.ndarray, n: int, variant: str) -> np.ndarray:
    """E[P (x) P] minus the operator with the disagreement projector
    inserted as ``variant`` says.

    Uses P H = H for doubly stochastic P, so right-multiplying by
    (Omega (x) I), (Omega (x) Omega), or (I (x) Omega) reduces to cheap
    Kronecker terms.
    """
    h = np.full((n, n), 1.0 / n)
    if variant == "pop":  # E[P Omega (x) P]
        return np.kron(h, p_bar)
    if variant == "ppo":  # E[P (x) P Omega]
        return np.kron(p_bar, h)
    if variant == "popo":  # E[P Omega (x) P Omega]
        return np.kron(h, p_bar) + np.kron(p_bar, h) - np.kron(h, h)
    raise ValueError(f"unknown operator variant {variant!r}; use one of {K_VARIANTS}")


def stein_matrix_moments(
    g: UndirectedGraph,
    cfg: RidlConfig,
    variant: str = "pop",
    n_cap: int = DENSE_N_CAP,
) -> np.ndarray:
    """I - K for the second-moment operator K of :func:`k_operator_moments`.

    Assembled as eps p^2 (I (x) L + L (x) I) - eps^2 E[L (x) L] plus the
    projector terms, not as I minus K: when the updates mix slowly (small
    p or eps) K is close to I, and the subtraction would lose digits.
    """
    if g.n > n_cap:
        raise ValueError(
            f"n={g.n} exceeds the exact-operator cap {n_cap}; "
            "use the spectral bounds instead"
        )
    n = g.n
    lbar = laplacian(g)
    e, p = cfg.epsilon, cfg.p
    eye = np.eye(n)
    out = e * p**2 * (np.kron(eye, lbar) + np.kron(lbar, eye))
    out -= e**2 * expected_l_kron_l(g, p)
    return out + _projector_terms(expected_p(g, cfg), n, variant)


def k_operator_moments(
    g: UndirectedGraph,
    cfg: RidlConfig,
    variant: str = "pop",
    n_cap: int = DENSE_N_CAP,
) -> np.ndarray:
    """Second-moment operator from exact Bernoulli moments.

    Scales to the configured cap (default 64, a 4096-dimensional
    operator); cross-checked against :func:`k_operator_enumeration`.
    """
    out = -stein_matrix_moments(g, cfg, variant, n_cap)
    out[np.diag_indices_from(out)] += 1.0
    return out


def k_operator_enumeration(
    g: UndirectedGraph, cfg: RidlConfig, variant: str = "pop"
) -> np.ndarray:
    """Second-moment operator by enumerating all 2^N activation patterns.

    Exact up to floating point; the weights p^a (1-p)^(N-a) sum to one.
    Limited to N <= 14. Independent of the moment-form code path by
    construction, which makes the pair a mutual oracle.
    """
    n = g.n
    if n > ENUM_N_CAP:
        raise ValueError(f"enumeration needs n <= {ENUM_N_CAP}, got {n}")
    if variant not in K_VARIANTS:
        raise ValueError(f"unknown operator variant {variant!r}; use one of {K_VARIANTS}")
    omega = omega_projector(n)
    eye = np.eye(n)
    acc = np.zeros((n * n, n * n))
    for bits in range(1 << n):
        pattern = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.float64)
        active = int(pattern.sum())
        weight = cfg.p**active * (1.0 - cfg.p) ** (n - active)
        if weight == 0.0:
            continue
        p_mat = eye - cfg.epsilon * induced_laplacian(g, pattern)
        pw = p_mat @ omega
        if variant == "pop":
            acc += weight * kron(pw, p_mat)
        elif variant == "popo":
            acc += weight * kron(pw, pw)
        else:
            acc += weight * kron(p_mat, pw)
    return acc


def dense_noise_index(system: np.ndarray, sigma2: float, n: int) -> float:
    """Exact index: (sigma^2/N) * (vec(I)^T (I - K)^{-1} vec(I) - 1).

    Evaluated as an LU solve against the dense N^2 x N^2 matrix
    ``system`` = I - K, with one step of iterative refinement; a
    near-singular system raises :class:`SingularMatrixError`.
    """
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    n_sq = n * n
    if system.shape != (n_sq, n_sq):
        raise ValueError(f"operator shape {system.shape} does not match n={n}")
    rhs = np.eye(n).ravel()
    y = solve(system, rhs)
    y += solve(system, rhs - system @ y)
    j = (sigma2 / n) * (float(rhs @ y) - 1.0)
    if not np.isfinite(j) or (sigma2 > 0.0 and j <= 0.0):
        raise NumericalError(f"exact index evaluated to {j}, outside (0, inf)")
    return j


def dense_exact(g: UndirectedGraph, cfg: RidlConfig, method: str = "moments",
                variant: str = "pop") -> float:
    """Exact index through the dense operator, assembled from moments or
    by enumeration, with the projector placed as ``variant`` says."""
    if method == "moments":
        system = stein_matrix_moments(g, cfg, variant=variant)
    else:
        system = np.eye(g.n**2) - k_operator_enumeration(g, cfg, variant=variant)
    return dense_noise_index(system, cfg.sigma2, g.n)


def apply_dense(k_op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K acting on an N x N matrix through the column-stacking vec."""
    n = x.shape[0]
    return (k_op @ x.ravel(order="F")).reshape((n, n), order="F")


def _unit_draws(rng: np.random.Generator, shape, law: str) -> np.ndarray:
    """Mean-0, variance-1 draws from ``law``: gaussian, rademacher or
    uniform (on [-sqrt(3), sqrt(3)])."""
    if law == "gaussian":
        return rng.standard_normal(shape)
    if law == "rademacher":
        return np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    if law == "uniform":
        return math.sqrt(3.0) * (2.0 * rng.random(shape) - 1.0)
    raise ValueError(f"unknown noise law {law!r}")


def _dense_draws(seed: np.random.SeedSequence, t: int, n: int, p: float, law: str,
                 sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Activations then noise for one forward replication, from its own
    stream."""
    rng = np.random.default_rng(seed)
    acts = rng.random((t, n)) < p
    return acts, sigma * _unit_draws(rng, (t, n), law)


def _dense_dynamics(seeds, g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig, law: str):
    """Final disagreement per replication of the trajectory and of its
    mean-field shadow x~ <- E[P] x~ + n on the same noise, drawn from
    ``law``, all replications stacked at once."""
    adj = dense_adjacency(g.n, g.edges)
    draws = [_dense_draws(s, sim.horizon, g.n, cfg.p, law, math.sqrt(cfg.sigma2))
             for s in seeds]
    acts = np.stack([a for a, _ in draws])
    noise = np.stack([w for _, w in draws])
    p_bar = expected_p(g, cfg)
    x = np.zeros((len(seeds), g.n))
    x_mf = np.zeros_like(x)
    for t in range(sim.horizon):
        gam = acts[:, t, :].astype(np.float64)
        s1 = gam @ adj
        s2 = (gam * x) @ adj
        x = x - cfg.epsilon * gam * (x * s1 - s2) + noise[:, t, :]
        x_mf = x_mf @ p_bar + noise[:, t, :]

    def final(z):
        dev = z - z.mean(axis=1, keepdims=True)
        return (dev * dev).sum(axis=1)

    return final(x), final(x_mf)


# steps per substream block of a replication's activation draws
_BLOCK_STEPS = 1024


def _byte_activations(rng: np.random.Generator, steps: int, n: int, p: float) -> np.ndarray:
    """(steps, n) Bernoulli(p) activations by the byte law, in blocks of
    1024 steps: node i at step k reads byte i of the step's ceil(n/8)
    64-bit words of ``rng`` as an integer u in [0, 256). With
    256 p = t + f, t an integer and 0 <= f < 1, the node is active when
    u < t, and when u = t and the next uniform of ``rng`` is below f. Each
    block draws the bytes of all its steps, then the uniforms of its ties
    in step-major order, before the next block's bytes. At p = 1 nothing
    is drawn."""
    if p == 1.0:
        return np.ones((steps, n), dtype=bool)
    t = int(256.0 * p)
    f = 256.0 * p - t
    stride = 8 * ((n + 7) // 8)
    acts = np.zeros((steps, n), dtype=bool)
    for k0 in range(0, steps, _BLOCK_STEPS):
        rows = min(_BLOCK_STEPS, steps - k0)
        u = rng.integers(0, 256, size=(rows, stride), dtype=np.uint8)[:, :n].astype(int)
        acts[k0:k0 + rows] = u < t
        if f > 0.0:
            for k in range(rows):
                for i in range(n):
                    if u[k, i] == t:
                        acts[k0 + k, i] = rng.random() < f
    return acts


def _dense_reverse(seeds, g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig):
    """Per replication, sigma^2 sum_{k<T} |y_k|^2 for the probe
    y_k = P_k y_(k-1) from y_0 = Omega z, and the same for its shadow
    y~_k = E[P] y~_(k-1). Each P_k is formed as a dense matrix from the
    replication's stream: the standard Gaussian z first, then, per block
    of 1024 steps, the activation bytes of each step and the uniforms
    that refine the block's ties."""
    n, t_steps = g.n, sim.horizon
    omega = omega_projector(n)
    p_bar = expected_p(g, cfg)
    energy = np.zeros(len(seeds))
    shadow = np.zeros(len(seeds))
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        y = omega @ rng.standard_normal(n)
        ys = y.copy()
        acts = _byte_activations(rng, t_steps - 1, n, cfg.p)
        for k in range(t_steps):
            if k:
                y = (np.eye(n) - cfg.epsilon * induced_laplacian(g, acts[k - 1])) @ y
                ys = p_bar @ ys
            energy[r] += y @ y
            shadow[r] += ys @ ys
    return cfg.sigma2 * energy, cfg.sigma2 * shadow


def mean_field_disagreement(g: UndirectedGraph, cfg: RidlConfig, t: int) -> float:
    """E[d(x~_t)] = sigma^2 tr(Omega C_t) for x~ <- E[P] x~ + n from 0,
    with the noise covariance propagated exactly:
    C_0 = 0, C_{s+1} = E[P] C_s E[P] + I."""
    p_bar = expected_p(g, cfg)
    c = np.zeros((g.n, g.n))
    for _ in range(t):
        c = p_bar @ c @ p_bar + np.eye(g.n)
    return cfg.sigma2 * float(np.trace(omega_projector(g.n) @ c))


def mean_field_limit(g: UndirectedGraph, cfg: RidlConfig) -> float:
    """lim_t E[d(x~_t)] = sigma^2 tr(Omega C) for x~ <- E[P] x~ + n, with
    C = E[P] C E[P] + I on 1^perp from one dense solve:
    I - E[P]^2 = D (2 I - D), D = eps p^2 L_bar, written without
    cancellation, plus 11^T/N to make it invertible on the consensus
    vector, which Omega then removes."""
    n = g.n
    d = cfg.epsilon * cfg.p**2 * laplacian(g)
    system = d @ (2.0 * np.eye(n) - d) + np.full((n, n), 1.0 / n)
    omega = omega_projector(n)
    return cfg.sigma2 * float(np.trace(np.linalg.solve(system, omega)))


def finite_horizon_index(g: UndirectedGraph, cfg: RidlConfig, t: int) -> float:
    """E[d(x_t)] / N for x <- P x + n from x(0) = 0, with the disagreement
    covariance propagated exactly: Sigma_0 = 0,
    Sigma_{s+1} = Sigma_s - S(Sigma_s) + Omega with S(X) = X - E[P X P].
    ``stein_operator`` is written for symmetric arguments and amplifies an
    antisymmetric part, so each step is symmetrized: without it rounding
    asymmetry grows until the trace diverges after a few hundred steps."""
    stein = stein_operator(g, cfg)
    omega = omega_projector(g.n)
    sigma = np.zeros((g.n, g.n))
    for _ in range(t):
        sigma = sigma - stein(sigma) + omega
        sigma = 0.5 * (sigma + sigma.T)
    return cfg.sigma2 * float(np.trace(sigma)) / g.n


def _summary(d_final: np.ndarray, d_mf: np.ndarray, g: UndirectedGraph, cfg: RidlConfig,
             sim: SimConfig) -> dict:
    """The control-variate ``j_hat`` and ``std_error``, whose known mean is
    the shadow's infinite-horizon one, ``mean_field_limit``; the uncorrected
    ``j_hat_raw`` and ``std_error_raw``, and ``mf_corr`` of per-replication
    values ``d_final`` with shadows ``d_mf``; ``bias_bound``, ``nu_max``
    to the power T, and ``converged``."""
    n, m = g.n, sim.ensemble

    def mean_and_se(values):
        se = float(values.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        return float(values.mean()), se

    j_hat, std_error = mean_and_se((d_final - d_mf + mean_field_limit(g, cfg)) / n)
    j_hat_raw, std_error_raw = mean_and_se(d_final / n)
    bias_bound = nu_max(g, cfg) ** sim.horizon
    if m > 1 and d_final.std() > 0.0 and d_mf.std() > 0.0:
        mf_corr = float(np.corrcoef(d_final, d_mf)[0, 1])
    else:
        mf_corr = math.nan
    return {"j_hat": j_hat, "std_error": std_error, "j_hat_raw": j_hat_raw,
            "std_error_raw": std_error_raw, "bias_bound": bias_bound,
            "converged": bias_bound < BURN_IN_CHECK, "mf_corr": mf_corr}


def dense_estimate(g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig) -> dict:
    """The library's reverse-time estimate with dense update matrices:
    the same seeds and draw order, one replication at a time, and the
    mean-field control variate's known mean from ``mean_field_limit``."""
    seeds = np.random.SeedSequence(sim.seed).spawn(sim.ensemble)
    return _summary(*_dense_reverse(seeds, g, cfg, sim), g, cfg, sim)


def dense_forward_estimate(g: UndirectedGraph, cfg: RidlConfig, sim: SimConfig,
                           law: str = "gaussian") -> dict:
    """Monte Carlo estimate from the forward noisy dynamics
    x <- P x + n from x(0) = 0, with the noise n drawn from ``law`` (see
    ``_unit_draws``) and scaled to variance sigma^2, and its mean-field
    shadow on the same noise: d(x_T) per replication, whole-horizon draws
    per replication (activations, then noise) from the same seeds as the
    library."""
    seeds = np.random.SeedSequence(sim.seed).spawn(sim.ensemble)
    return _summary(*_dense_dynamics(seeds, g, cfg, sim, law), g, cfg, sim)


def step(x: np.ndarray, p_sample: StochasticMatrixSample, noise: np.ndarray) -> np.ndarray:
    """One update with a sampled dense matrix: P x + n."""
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
