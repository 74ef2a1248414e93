"""Steady-state mean-square noise index of randomized consensus.

Additive noise keeps the node states from agreeing; the index is the
steady-state expected squared distance from the consensus projection,
normalized by the node count. This module evaluates it three ways:

* ``exact_noise_index``  from the steady-state disagreement covariance,
  the solution of the Stein equation Sigma = E[P Sigma P] + Omega,
  found by preconditioned conjugate gradients on N x N matrices,
* ``ridl_bounds``        lower/upper bounds from the spectra of E[P] and
  E[P^2], written directly on the Laplacian spectrum of the underlying
  graph,
* ``resistance_bounds``  an outer sandwich in terms of the average
  effective resistance, which exposes the growth rate in N.

The generic bounds on any E[P] and E[P^2], the per-family closed forms
(star, path, complete) and their large-N limits are independent
cross-checks of these and live with the tests, in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .graphs import (
    Eigenvalues,
    UndirectedGraph,
    average_effective_resistance,
    laplacian_eigenpairs,
    laplacian_spectrum,
    spectrum_disconnected,
)
from .ridl import RidlConfig, omega_projector, stein_operator

__all__ = [
    "ExactIndex",
    "NoiseReport",
    "exact_noise_index",
    "ridl_bounds",
    "resistance_bounds",
    "compute_noise_report",
]

# Conjugate-gradient stopping rule of the exact solve: the residual
# target is relative to ||Omega||_F + a ||X||_F, with a = 2 eps p^2
# lambda_max the size of X -> X - E[P X P]. It is a backward error, so
# it stays above the rounding floor of the operator apply however large
# the index grows.
_CG_RTOL = 1e-13
_CG_MAX_ITER = 500
# slack on the sandwich inequalities every report is checked against,
# times max(1, |J|)
_SANDWICH_SLACK = 1e-9


@dataclass(frozen=True)
class NoiseReport:
    """All computed index values for one (graph, config) pair.

    ``j_exact`` is absent when the caller asked for the bounds only;
    the bounds are always present. ``method_tags`` records how each
    number was produced.
    """

    j_exact: float | None
    j_lb: float
    j_ub: float
    j_res_lb: float
    j_res_ub: float
    r_ave: float
    lambda2: float
    lambda_n: float
    method_tags: dict


class ExactIndex(NamedTuple):
    """The exact index and the certificate of the solve behind it:
    the conjugate-gradient iteration count and the final residual
    ||Omega - X + E[P X P]||_F / (||Omega||_F + a ||X||_F), with
    a = 2 eps p^2 lambda_max."""

    j: float
    iterations: int
    residual: float


def exact_noise_index(g: UndirectedGraph, cfg: RidlConfig) -> ExactIndex:
    """Exact index J = sigma^2 tr(Sigma) / N.

    Sigma, the steady-state disagreement covariance per unit noise
    variance, solves the Stein equation Sigma = E[P Sigma P] + Omega.
    X -> X - E[P X P] is self-adjoint in the trace inner product and
    positive definite on the disagreement subspace of a connected graph,
    so conjugate gradients on N x N matrices solve it. The preconditioner
    is the mean-field inverse R -> V [(V^T R V) / (1 - mu_i mu_j)] V^T,
    with V the Laplacian eigenvectors and mu = 1 - eps p^2 lambda the
    eigenvalues of E[P]; it drops the consensus direction and is exact
    at p = 1.

    Raises :class:`NumericalError` for a disconnected graph (the equation
    is singular) and when the residual target is not met within the
    iteration budget.
    """
    spectrum = laplacian_eigenpairs(g)
    lam, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    n = g.n
    if spectrum_disconnected(lam):
        raise NumericalError(
            "the Stein equation is singular: the graph is disconnected, so "
            "disagreement does not decay"
        )
    # 1 - mu_i mu_j with mu = 1 - delta, written without cancellation
    delta = cfg.epsilon * cfg.p**2 * lam[1:]
    gain = np.zeros((n, n))
    gain[1:, 1:] = 1.0 / (delta[:, None] + delta[None, :] - np.outer(delta, delta))
    a_norm = 2.0 * float(delta[-1])  # bounds max_ij (1 - mu_i mu_j)
    apply = stein_operator(g, cfg)

    def precondition(r: np.ndarray) -> np.ndarray:
        return vecs @ ((vecs.T @ r @ vecs) * gain) @ vecs.T

    omega = omega_projector(n)
    omega_norm = np.linalg.norm(omega)

    def relative(r: np.ndarray, x: np.ndarray) -> float:
        return float(np.linalg.norm(r) / (omega_norm + a_norm * np.linalg.norm(x)))

    x = np.zeros((n, n))
    r = omega
    direction = None
    for iterations in range(1, _CG_MAX_ITER + 1):
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        direction = z if direction is None else z + (rz_next / rz) * direction
        rz = rz_next
        q = apply(direction)
        alpha = rz / float(np.vdot(direction, q))
        x = x + alpha * direction
        r = r - alpha * q
        if relative(r, x) <= _CG_RTOL:
            # the recurrence drifts from the true residual: confirm it,
            # and restart from the true one if it falls short
            r = omega - apply(x)
            residual = relative(r, x)
            if residual <= _CG_RTOL:
                break
            direction = None
    else:
        raise NumericalError(
            f"conjugate gradients missed the residual target {_CG_RTOL:.0e} in "
            f"{_CG_MAX_ITER} iterations (residual {relative(r, x):.3e})"
        )
    j = cfg.sigma2 * float(np.trace(x)) / n
    if not np.isfinite(j) or (cfg.sigma2 > 0.0 and j <= 0.0):
        raise NumericalError(f"exact index evaluated to {j}, outside (0, inf)")
    return ExactIndex(j=j, iterations=iterations, residual=residual)


def ridl_bounds(
    laplacian_spectrum: Eigenvalues, cfg: RidlConfig
) -> tuple[float, float]:
    """Index bounds for RIDL updates written on the Laplacian spectrum:

    j_lb = sigma^2/(eps p^2 N) * sum 1/(2 lam - eps p^2 lam^2)
    j_ub = sigma^2/(eps p^2 N) * sum 1/(2 (1 + eps p - eps) lam - eps p lam^2)

    over the nonzero Laplacian eigenvalues of the connected underlying
    graph.
    """
    lam = laplacian_spectrum.eigenvalues
    n = lam.shape[0]
    if spectrum_disconnected(lam):
        raise ValueError("underlying graph is disconnected; bounds are infinite")
    e, p, s2 = cfg.epsilon, cfg.p, cfg.sigma2
    tail = lam[1:]
    den_lb = 2.0 * tail - e * p**2 * tail**2
    den_ub = 2.0 * (1.0 + e * p - e) * tail - e * p * tail**2
    for den in (den_lb, den_ub):
        if den.min() <= 0.0:
            raise NumericalError(
                f"nonpositive bound denominator at eigenvalue "
                f"{tail[np.argmin(den)]:.12g}; step size eps={e} is too large"
            )
    pref = s2 / (e * p**2 * n)
    return pref * float(np.sum(1.0 / den_lb)), pref * float(np.sum(1.0 / den_ub))


def resistance_bounds(r_ave: float, cfg: RidlConfig) -> tuple[float, float]:
    """Outer sandwich in terms of the average effective resistance:

    sigma^2/(2 p^2) * R_ave/eps  <=  J  <=  sigma^2/(2 p^3 (1-k)) * R_ave/eps
    """
    if r_ave <= 0.0:
        raise ValueError(f"average effective resistance must be positive, got {r_ave}")
    e, p, s2, k = cfg.epsilon, cfg.p, cfg.sigma2, cfg.k
    lb = s2 / (2.0 * p**2) * (r_ave / e)
    ub = s2 / (2.0 * p**3 * (1.0 - k)) * (r_ave / e)
    return lb, ub


def compute_noise_report(
    g: UndirectedGraph, cfg: RidlConfig, exact: bool = True
) -> NoiseReport:
    """Assemble every index value for one configuration.

    The exact index is computed when ``exact`` is true; bounds are always
    present. A bounds-only report reads the graph's Laplacian eigenvalues
    alone; an exact one asks for the eigenpairs first, so that one
    eigensolve serves the bounds and the exact solve's preconditioner.
    The report is checked (finite, positive values and the sandwich
    inequalities, to the configured slack scaled by max(1, J)) before it
    is returned.
    """
    spec = laplacian_eigenpairs(g) if exact else laplacian_spectrum(g)
    j_lb, j_ub = ridl_bounds(spec, cfg)
    r_ave = average_effective_resistance(g)
    j_res_lb, j_res_ub = resistance_bounds(r_ave, cfg)
    tags = {
        "j_lb": "laplacian-spectrum",
        "j_ub": "laplacian-spectrum",
        "j_res_lb": "effective-resistance",
        "j_res_ub": "effective-resistance",
    }
    if exact:
        solve = exact_noise_index(g, cfg)
        j_exact = solve.j
        tags["j_exact"] = (
            f"stein-pcg[iterations={solve.iterations}, residual={solve.residual:.2e}]"
        )
    else:
        j_exact = None
        tags["j_exact"] = "absent (bounds only)"
    report = NoiseReport(
        j_exact=j_exact,
        j_lb=j_lb,
        j_ub=j_ub,
        j_res_lb=j_res_lb,
        j_res_ub=j_res_ub,
        r_ave=r_ave,
        lambda2=float(spec.eigenvalues[1]),
        lambda_n=float(spec.eigenvalues[-1]),
        method_tags=tags,
    )
    _validate_report(report, cfg)
    return report


def _validate_report(report: NoiseReport, cfg: RidlConfig) -> None:
    values = [report.j_lb, report.j_ub, report.j_res_lb, report.j_res_ub]
    if report.j_exact is not None:
        values.append(report.j_exact)
    if not all(np.isfinite(v) for v in values):
        raise NumericalError(f"non-finite index values in report: {values}")
    if cfg.sigma2 > 0.0 and min(values) <= 0.0:
        raise NumericalError(f"nonpositive index values in report: {values}")
    if report.j_exact is not None:
        j = report.j_exact
        slack = _SANDWICH_SLACK * max(1.0, abs(j))
        if not (report.j_lb - slack <= j <= report.j_ub + slack):
            raise NumericalError(
                f"spectral sandwich violated: {report.j_lb} <= {j} <= {report.j_ub}"
            )
        if not (report.j_res_lb - slack <= j <= report.j_res_ub + slack):
            raise NumericalError(
                f"resistance sandwich violated: "
                f"{report.j_res_lb} <= {j} <= {report.j_res_ub}"
            )
