"""Independent oracles used by the tests.

These deliberately avoid the library code paths they check: effective
resistance comes from pseudoinverse pairwise resistances instead of the
spectral sum, the expected update matrices come from brute-force
pattern enumeration instead of the closed forms, and the exact index
comes from the dense N^2 x N^2 second-moment operator (assembled from
Bernoulli moments or by summing all 2^N activation patterns, with the
disagreement projector in any of three places) and an LU solve, instead
of the library's matrix-free Stein solve.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack as _lapack

from ridlnoise import NumericalError, UndirectedGraph, laplacian, pseudoinverse_psd
from ridlnoise.linalg import _as_square_float
from ridlnoise.ridl import RidlConfig, expected_p, induced_laplacian, omega_projector

# The three algebraically equivalent placements of the disagreement
# projector inside the second-moment operator; all yield the same noise
# index.
K_VARIANTS = ("pop", "popo", "ppo")

KRON_DIM_CAP = 16384  # max rows/cols of a Kronecker product
DENSE_N_CAP = 64      # largest N for the N^2 x N^2 operator (8 N^4 bytes)
ENUM_N_CAP = 14       # largest N for 2^N pattern enumeration
RCOND_MIN = 1e-12     # reject solves with condition estimate > 1e12


class SingularMatrixError(NumericalError):
    """Linear solve rejected; carries the condition-number diagnostic."""


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
        nbrs = g.neighbor_lists()
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


def _expected_p_kron_p(g: UndirectedGraph, cfg: RidlConfig) -> np.ndarray:
    """E[P (x) P] = I - eps p^2 (I (x) L + L (x) I) + eps^2 E[L (x) L]."""
    n = g.n
    lbar = laplacian(g)
    e, p = cfg.epsilon, cfg.p
    out = cfg.epsilon**2 * expected_l_kron_l(g, p)
    out -= e * p**2 * (np.kron(np.eye(n), lbar) + np.kron(lbar, np.eye(n)))
    out[np.diag_indices_from(out)] += 1.0
    return out


def _apply_variant(
    e_pp: np.ndarray, p_bar: np.ndarray, n: int, variant: str
) -> np.ndarray:
    """Insert the disagreement projector into E[P (x) P].

    Uses P H = H for doubly stochastic P, so right-multiplying by
    (Omega (x) I), (Omega (x) Omega), or (I (x) Omega) reduces to cheap
    Kronecker subtractions.
    """
    h = np.full((n, n), 1.0 / n)
    if variant == "pop":  # E[P Omega (x) P]
        return e_pp - np.kron(h, p_bar)
    if variant == "ppo":  # E[P (x) P Omega]
        return e_pp - np.kron(p_bar, h)
    if variant == "popo":  # E[P Omega (x) P Omega]
        return e_pp - np.kron(h, p_bar) - np.kron(p_bar, h) + np.kron(h, h)
    raise ValueError(f"unknown operator variant {variant!r}; use one of {K_VARIANTS}")


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
    if g.n > n_cap:
        raise ValueError(
            f"n={g.n} exceeds the exact-operator cap {n_cap}; "
            "use the spectral bounds instead"
        )
    e_pp = _expected_p_kron_p(g, cfg)
    return _apply_variant(e_pp, expected_p(g, cfg), g.n, variant)


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


def dense_noise_index(k_op: np.ndarray, sigma2: float, n: int) -> float:
    """Exact index: (sigma^2/N) * (vec(I)^T (I - K)^{-1} vec(I) - 1).

    Evaluated as an LU solve against the dense N^2 x N^2 operator K; a
    near-singular system raises :class:`SingularMatrixError`.
    """
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    n_sq = n * n
    if k_op.shape != (n_sq, n_sq):
        raise ValueError(f"operator shape {k_op.shape} does not match n={n}")
    a = -k_op.copy()
    a[np.diag_indices_from(a)] += 1.0
    rhs = np.eye(n).ravel()
    y = solve(a, rhs)
    j = (sigma2 / n) * (float(rhs @ y) - 1.0)
    if not np.isfinite(j) or (sigma2 > 0.0 and j <= 0.0):
        raise NumericalError(f"exact index evaluated to {j}, outside (0, inf)")
    return j


def dense_exact(g: UndirectedGraph, cfg: RidlConfig, method: str = "moments",
                variant: str = "pop") -> float:
    """Exact index through the dense operator, assembled from moments or
    by enumeration, with the projector placed as ``variant`` says."""
    if method == "moments":
        k_op = k_operator_moments(g, cfg, variant=variant)
    else:
        k_op = k_operator_enumeration(g, cfg, variant=variant)
    return dense_noise_index(k_op, cfg.sigma2, g.n)


def apply_dense(k_op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K acting on an N x N matrix through the column-stacking vec."""
    n = x.shape[0]
    return (k_op @ x.ravel(order="F")).reshape((n, n), order="F")
