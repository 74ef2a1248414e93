"""Steady-state mean-square noise index of randomized consensus.

Additive noise keeps the node states from agreeing; the index is the
steady-state expected squared distance from the consensus projection,
normalized by the node count. This module evaluates it three ways:

* ``exact_noise_index``  from the steady-state disagreement covariance,
  the solution of the Stein equation Sigma = E[P Sigma P] + Omega,
  found by preconditioned conjugate gradients on N x N matrices,
* ``generic_bounds``     lower/upper bounds from the spectra of E[P]
  and E[P^2] (any symmetric i.i.d. update sequence),
* ``ridl_bounds``        the same bounds specialized to RIDL updates,
  written directly on the Laplacian spectrum of the underlying graph,
* ``resistance_bounds``  an outer sandwich in terms of the average
  effective resistance, which exposes the growth rate in N.

Per-family closed forms (star, path, complete) and their large-N
behavior are provided as independent evaluators for cross-checking.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .graphs import UndirectedGraph, average_effective_resistance, laplacian_spectrum
from .linalg import SpectralData, sym_eigen
from .ridl import RidlConfig, omega_projector, stein_operator
from .tolerances import TOL

__all__ = [
    "ExactIndex",
    "NoiseReport",
    "ResistanceBounds",
    "PredictedScaling",
    "FAMILIES",
    "exact_noise_index",
    "generic_bounds",
    "ridl_bounds",
    "resistance_bounds",
    "star_closed_form_bounds",
    "path_closed_form_bounds",
    "complete_closed_form_bounds",
    "family_asymptotics",
    "compute_noise_report",
]

FAMILIES = ("star", "path", "grid2d", "grid3d", "complete")

# Conjugate-gradient stopping rule of the exact solve: the residual
# target is relative to ||Omega||_F + a ||X||_F, with a = 2 eps p^2
# lambda_max the size of X -> X - E[P X P]. It is a backward error, so
# it stays above the rounding floor of the operator apply however large
# the index grows.
_CG_RTOL = 1e-13
_CG_MAX_ITER = 500


@dataclass(frozen=True)
class ResistanceBounds:
    """Resistance-based sandwich, in both the eps form and the
    equivalent d_max * R_ave form (they agree when eps = k / d_max)."""

    lb: float
    ub: float
    lb_degree_form: float
    ub_degree_form: float


@dataclass(frozen=True)
class PredictedScaling:
    """Leading-order large-N behavior of the index for a graph family."""

    family: str
    growth: str  # "linear" or "bounded"
    slope: float | None = None  # per-node slope when growth is linear (star)
    predicted_value: float | None = None  # slope * n when a slope is known
    lb_limit: float | None = None  # large-N limit of the lower bound
    ub_limit: float | None = None  # large-N limit of the upper bound


@dataclass(frozen=True)
class NoiseReport:
    """All computed index values for one (graph, config) pair.

    ``j_exact`` is absent when the caller capped N below the graph's
    size; the bounds are always present. ``method_tags`` records how each
    number was produced, ``config`` echoes the inputs.
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
    config: dict


class ExactIndex(NamedTuple):
    """The exact index and the certificate of the solve behind it:
    the conjugate-gradient iteration count and the final residual
    ||Omega - X + E[P X P]||_F / (||Omega||_F + a ||X||_F), with
    a = 2 eps p^2 lambda_max."""

    j: float
    iterations: int
    residual: float


def exact_noise_index(
    g: UndirectedGraph, cfg: RidlConfig, spectrum: SpectralData | None = None
) -> ExactIndex:
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

    ``spectrum`` is the Laplacian spectrum of ``g`` with eigenvectors
    (``laplacian_spectrum(g, compute_vectors=True)``), computed when not
    given. Raises :class:`NumericalError` for a disconnected graph (the
    equation is singular) and when the residual target is not met within
    the iteration budget.
    """
    if spectrum is None:
        spectrum = laplacian_spectrum(g, compute_vectors=True)
    lam, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    n = g.n
    if n < 2 or lam[1] <= TOL.connectivity_rtol * max(float(lam[-1]), 1.0):
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


def _perron_excluded(eigenvalues: np.ndarray, label: str) -> np.ndarray:
    """Drop the single consensus eigenvalue (the largest, equal to 1)
    after an ascending sort; guard that it is simple."""
    lam = eigenvalues
    if abs(lam[-1] - 1.0) > 1e-8:
        raise NumericalError(
            f"largest eigenvalue of {label} is {lam[-1]:.12g}, expected 1"
        )
    if lam.shape[0] > 1 and lam[-2] >= 1.0 - TOL.perron_gap:
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
        if row_err > TOL.stochastic_atol:
            raise ValueError(f"{name} is not doubly stochastic (row-sum error {row_err:.3e})")
    lam_bar = _perron_excluded(sym_eigen(p_bar).eigenvalues, "E[P]")
    lam_bbar = _perron_excluded(sym_eigen(p_bbar).eigenvalues, "E[P^2]")
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


def ridl_bounds(
    laplacian_spectrum: SpectralData, cfg: RidlConfig
) -> tuple[float, float]:
    """Index bounds for RIDL updates written on the Laplacian spectrum:

    j_lb = sigma^2/(eps p^2 N) * sum 1/(2 lam - eps p^2 lam^2)
    j_ub = sigma^2/(eps p^2 N) * sum 1/(2 (1 + eps p - eps) lam - eps p lam^2)

    over the nonzero Laplacian eigenvalues of the connected underlying
    graph.
    """
    lam = laplacian_spectrum.eigenvalues
    n = lam.shape[0]
    thresh = TOL.connectivity_rtol * max(float(lam[-1]), 1.0)
    if n < 2 or lam[1] <= thresh:
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


def resistance_bounds(r_ave: float, cfg: RidlConfig) -> ResistanceBounds:
    """Outer sandwich in terms of the average effective resistance:

    sigma^2/(2 p^2) * R_ave/eps  <=  J  <=  sigma^2/(2 p^3 (1-k)) * R_ave/eps

    together with the equivalent d_max * R_ave form, which must agree
    exactly given eps = k / d_max.
    """
    if r_ave <= 0.0:
        raise ValueError(f"average effective resistance must be positive, got {r_ave}")
    e, p, s2, k = cfg.epsilon, cfg.p, cfg.sigma2, cfg.k
    lb = s2 / (2.0 * p**2) * (r_ave / e)
    ub = s2 / (2.0 * p**3 * (1.0 - k)) * (r_ave / e)
    lb_deg = s2 / (2.0 * p**2 * k) * cfg.d_max * r_ave
    ub_deg = s2 / (2.0 * p**3 * k * (1.0 - k)) * cfg.d_max * r_ave
    return ResistanceBounds(lb=lb, ub=ub, lb_degree_form=lb_deg, ub_degree_form=ub_deg)


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


def compute_noise_report(
    g: UndirectedGraph,
    cfg: RidlConfig,
    exact_cap: int | None = None,
    validate: bool = True,
) -> NoiseReport:
    """Assemble every index value for one configuration.

    The exact index is computed unless ``exact_cap`` is given and N
    exceeds it; bounds are always present. One Laplacian eigensolve
    serves the bounds and the exact solve's preconditioner. With
    ``validate`` the report enforces the sandwich inequalities (to the
    configured absolute slack) before it is returned.
    """
    want_exact = exact_cap is None or g.n <= exact_cap
    spec = laplacian_spectrum(g, compute_vectors=want_exact)
    j_lb, j_ub = ridl_bounds(spec, cfg)
    r_ave = average_effective_resistance(g, spec)
    res = resistance_bounds(r_ave, cfg)
    tags = {
        "j_lb": "laplacian-spectrum",
        "j_ub": "laplacian-spectrum",
        "j_res_lb": "effective-resistance",
        "j_res_ub": "effective-resistance",
    }
    if want_exact:
        exact = exact_noise_index(g, cfg, spec)
        j_exact = exact.j
        tags["j_exact"] = (
            f"stein-pcg[iterations={exact.iterations}, residual={exact.residual:.2e}]"
        )
    else:
        j_exact = None
        tags["j_exact"] = f"absent (n={g.n} beyond cap {exact_cap})"
    report = NoiseReport(
        j_exact=j_exact,
        j_lb=j_lb,
        j_ub=j_ub,
        j_res_lb=res.lb,
        j_res_ub=res.ub,
        r_ave=r_ave,
        lambda2=float(spec.eigenvalues[1]),
        lambda_n=float(spec.eigenvalues[-1]),
        method_tags=tags,
        config={
            "n": g.n,
            "d_max": g.d_max,
            "p": cfg.p,
            "epsilon": cfg.epsilon,
            "k": cfg.k,
            "sigma2": cfg.sigma2,
        },
    )
    if validate:
        _validate_report(report)
    return report


def _validate_report(report: NoiseReport) -> None:
    slack = TOL.sandwich_slack
    values = [report.j_lb, report.j_ub, report.j_res_lb, report.j_res_ub]
    if report.j_exact is not None:
        values.append(report.j_exact)
    if not all(np.isfinite(v) for v in values):
        raise NumericalError(f"non-finite index values in report: {values}")
    if report.config["sigma2"] > 0.0 and min(values) <= 0.0:
        raise NumericalError(f"nonpositive index values in report: {values}")
    if report.j_exact is not None:
        j = report.j_exact
        if not (report.j_lb - slack <= j <= report.j_ub + slack):
            raise NumericalError(
                f"spectral sandwich violated: {report.j_lb} <= {j} <= {report.j_ub}"
            )
        if not (report.j_res_lb - slack <= j <= report.j_res_ub + slack):
            raise NumericalError(
                f"resistance sandwich violated: "
                f"{report.j_res_lb} <= {j} <= {report.j_res_ub}"
            )
