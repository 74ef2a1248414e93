"""Steady-state mean-square noise index of randomized consensus.

Additive noise keeps the node states from agreeing; the index is the
steady-state expected squared distance from the consensus projection,
normalized by the node count. ``compute_noise_report`` evaluates it
four ways:

* ``exact_noise_index``  from the steady-state disagreement covariance,
  the solution of the Stein equation Sigma = E[P Sigma P] + Omega,
  found by conjugate gradients in the Laplacian eigenbasis, where the
  equation's mean-field part is entrywise, that stop once J itself is
  bracketed to a relative width of 1e-13 on the node-basis residual,
* ``ridl_bounds``        lower/upper bounds from the spectra of E[P] and
  E[P^2] on the Laplacian spectrum (``ridl.moment_spectra``),
* ``resistance_bounds``  an outer sandwich in terms of the average
  effective resistance, which exposes the growth rate in N,
* ``simulator.estimate_noise_index``  a Monte Carlo estimate, run when
  the report is given a ``SimConfig``.

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
    UndirectedGraph,
    average_effective_resistance,
    is_connected,
    laplacian_eigenpairs,
    laplacian_spectrum,
)
from .ridl import RidlConfig, _fluctuation, moment_spectra, omega_projector, stein_operator
from .simulator import SimConfig, SimEstimate, estimate_noise_index

__all__ = [
    "ExactIndex",
    "NoiseReport",
    "exact_noise_index",
    "ridl_bounds",
    "resistance_bounds",
    "compute_noise_report",
]

# The exact solve stops once the index is certified to this relative
# width: the true J lies in [j, j (1 + gap)] with gap at most this.
_J_GAP = 1e-13
_CG_MAX_ITER = 500
# slack on the sandwich inequalities every report is checked against,
# times max(1, |J|)
_SANDWICH_SLACK = 1e-9


@dataclass(frozen=True)
class NoiseReport:
    """All computed index values for one (graph, config) pair.

    The four bounds are always present: ``j_lb``/``j_ub`` from the
    Laplacian spectrum, ``j_res_lb``/``j_res_ub`` from the average
    effective resistance. ``exact`` is the exact solve's record, None
    when the caller asked for no exact solve, and ``estimate`` the
    Monte Carlo estimate, None when the caller gave no ``SimConfig``.
    """

    exact: ExactIndex | None
    estimate: SimEstimate | None
    j_lb: float
    j_ub: float
    j_res_lb: float
    j_res_ub: float
    r_ave: float
    lambda2: float
    lambda_n: float


class ExactIndex(NamedTuple):
    """The exact index and the certificate of the solve behind it.

    ``j`` is a lower bound on the index and ``gap`` the certified
    relative width above it: the true index lies in [j, j (1 + gap)].
    ``iterations`` counts the conjugate-gradient steps taken."""

    j: float
    iterations: int
    gap: float


def exact_noise_index(g: UndirectedGraph, cfg: RidlConfig) -> ExactIndex:
    """Exact index J = sigma^2 tr(Sigma) / N, certified to a relative
    width of 1e-13.

    Sigma, the steady-state disagreement covariance per unit noise
    variance, solves the Stein equation S(Sigma) = Omega with
    S(X) = X - E[P X P]. S is self-adjoint in the trace inner product and
    positive definite on the disagreement subspace of a connected graph,
    so conjugate gradients on N x N matrices solve it.

    They iterate on X^ = V^T X V, with V the Laplacian eigenvectors. There
    :func:`~ridlnoise.ridl.stein_operator`'s S = M - F is the mean-field
    part M(X) = X - E[P] X E[P], entrywise multiplication by 1 - mu_i mu_j
    with mu = 1 - eps p^2 lambda the eigenvalues of E[P], minus the
    fluctuation part F, which stays in the node basis:

        S^(X^) = (1 - mu mu^T) o X^ - V^T F(V X^ V^T) V,

    four N x N products per iteration beside F. F reads and writes only
    node pairs at distance at most 2, and is evaluated one of two ways by
    a property of the graph: a gather and a scatter-add over its triples
    when sum_v d_v^2 <= N^2 (paths, grids, the star), dense N x N products
    otherwise. The preconditioner is the mean-field inverse M^-1,
    entrywise 1 / (1 - mu_i mu_j) off the consensus mode, which it drops;
    it is exact at p = 1. Omega is diag(0, 1, ..., 1) in this basis.

    The solve stops on the index, not on the N x N residual. For an
    iterate X with residual R = Omega - S(X),

        tr(Sigma) = tr(X) + <X, R> + <R, S^-1 R>,

    the last term is at least 0 and at most <R, M^-1 R> / c, with c the
    margin S >= c M derived below. The loop stops once the
    recurrence's <R, M^-1 R> / c is below 1e-13 tr(X), then confirms the
    bracket on the true residual in the node basis,
    R = Omega - S(V X^ V^T) with S applied through the Laplacian, and
    restarts from it if the bracket is wider. The confirmation does not
    trust V: the eigenvectors LAPACK gives an eigensolved graph are
    orthonormal only to rounding, which moves the eigenbasis iteration's
    own J by up to 3e-12 on a path of 200 nodes. The returned ``j`` is
    sigma^2 / N (tr(X) + <X, R>), the lower end of the bracket.

    Raises :class:`NumericalError` for a disconnected graph (the equation
    is singular), found by :func:`~ridlnoise.graphs.is_connected` before
    any eigensolve, for a step size too large for the graph, and when the
    index is not certified within the iteration budget.
    """
    if not is_connected(g):
        raise NumericalError(
            "the Stein equation is singular: the graph is disconnected, so "
            "disagreement does not decay"
        )
    spectrum = laplacian_eigenpairs(g)
    lam, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    n = g.n
    delta, one_minus_mu_sq, one_minus_nu = moment_spectra(lam, cfg)
    # S >= c M on the disagreement subspace, M(X) = X - E[P] X E[P]: with
    # D = P - E[P], S = M - E[D X D], and <X, D X D> <= (|D X|^2 + |X D|^2)/2
    # bounds that term by X -> (G X + X G)/2, G = E[P^2] - E[P]^2 = diag(nu - mu^2)
    # in the Laplacian eigenbasis, where M is entrywise 1 - mu_i mu_j >=
    # (1 - mu_i^2 + 1 - mu_j^2)/2; so c = min_i (1 - nu_i)/(1 - mu_i^2) > 0 serves,
    # at most 1 since moment_spectra caps 1 - nu at 1 - mu^2.
    margin = float(np.min(one_minus_nu / one_minus_mu_sq))
    # M in the eigenbasis: entrywise 1 - mu_i mu_j with mu = 1 - delta
    # (delta = 0 on the consensus mode), written without cancellation
    d = np.concatenate(([0.0], delta))
    mean_field = d[:, None] + d[None, :] - np.outer(d, d)
    gain = np.zeros((n, n))
    gain[1:, 1:] = 1.0 / mean_field[1:, 1:]
    fluctuation = _fluctuation(g, cfg)
    stein = stein_operator(g, cfg)

    def apply(x: np.ndarray) -> np.ndarray:
        return mean_field * x - vecs.T @ fluctuation(vecs @ x @ vecs.T) @ vecs

    omega = omega_projector(n)
    x = np.zeros((n, n))
    # V^T Omega V = diag(0, 1, ..., 1)
    r = np.eye(n)
    r[0, 0] = 0.0
    direction = gain * r
    rz = float(np.vdot(r, direction))
    for iterations in range(1, _CG_MAX_ITER + 1):
        q = apply(direction)
        alpha = rz / float(np.vdot(direction, q))
        x = x + alpha * direction
        r = r - alpha * q
        z = gain * r
        rz_next = float(np.vdot(r, z))
        if rz_next <= _J_GAP * margin * float(np.trace(x)):
            # the recurrence drifts from the true residual, and the
            # eigenbasis of an eigensolved graph is orthonormal only to
            # rounding: confirm the bracket on the true residual in the
            # node basis, and restart from it if the bracket is wider
            x_node = vecs @ x @ vecs.T
            r_node = omega - stein(x_node)
            r = vecs.T @ r_node @ vecs
            z = gain * r
            rz_next = float(np.vdot(r, z))
            j_unit = float(np.trace(x_node) + np.vdot(x_node, r_node))
            gap = rz_next / (margin * j_unit)
            if 0.0 <= gap <= _J_GAP:
                break
            direction = z
        else:
            direction = z + (rz_next / rz) * direction
        rz = rz_next
    else:
        raise NumericalError(
            f"conjugate gradients did not certify J to {_J_GAP:.0e} in "
            f"{_CG_MAX_ITER} iterations (gap {rz / (margin * np.trace(x)):.3e})"
        )
    j = cfg.sigma2 * j_unit / n
    if not np.isfinite(j) or (cfg.sigma2 > 0.0 and j <= 0.0):
        raise NumericalError(f"exact index evaluated to {j}, outside (0, inf)")
    return ExactIndex(j=j, iterations=iterations, gap=gap)


def ridl_bounds(g: UndirectedGraph, cfg: RidlConfig) -> tuple[float, float]:
    """Index bounds for RIDL updates on the connected graph ``g``, from
    its Laplacian spectrum:

    j_lb = sigma^2/N * sum 1/(1 - mu_i^2),  j_ub = sigma^2/N * sum 1/(1 - nu_i)

    over the disagreement eigenvalues mu_i of E[P] and nu_i of E[P^2]
    (:func:`~ridlnoise.ridl.moment_spectra`). A disconnected ``g``
    (:func:`~ridlnoise.graphs.is_connected`) raises ValueError before its
    spectrum, the one record of :func:`~ridlnoise.graphs.laplacian_spectrum`,
    is read.
    """
    if not is_connected(g):
        raise ValueError("underlying graph is disconnected; bounds are infinite")
    lam = laplacian_spectrum(g).eigenvalues
    _, one_minus_mu_sq, one_minus_nu = moment_spectra(lam, cfg)
    pref = cfg.sigma2 / lam.shape[0]
    with np.errstate(over="ignore"):  # an infinite bound fails the report's check
        return (pref * float(np.sum(1.0 / one_minus_mu_sq)),
                pref * float(np.sum(1.0 / one_minus_nu)))


def resistance_bounds(r_ave: float, cfg: RidlConfig) -> tuple[float, float]:
    """Outer sandwich in terms of the average effective resistance:

    sigma^2/(2 p^2) * R_ave/eps  <=  J  <=  sigma^2/(2 p^3 (1-k)) * R_ave/eps
    """
    if r_ave <= 0.0:
        raise ValueError(f"average effective resistance must be positive, got {r_ave}")
    e, p, s2, k = cfg.epsilon, cfg.p, cfg.sigma2, cfg.k
    lb = s2 / (2.0 * p**2) * (r_ave / e)
    return lb, lb / (p * (1.0 - k))


def compute_noise_report(
    g: UndirectedGraph, cfg: RidlConfig, exact: bool = True, sim: SimConfig | None = None
) -> NoiseReport:
    """Assemble every index value for one configuration.

    The bounds are always present; the exact index is solved when
    ``exact`` is true, and the Monte Carlo estimate runs when ``sim`` is
    given. The exact solve, which iterates in the Laplacian eigenbasis,
    and the estimate's mean-field shadow both need the eigenvectors, so
    a report with either asks for the eigenpairs first, and one
    eigensolve serves the bounds too. A bounds-only report reads the
    eigenvalues alone; on a graph that LAPACK eigensolves, its lambda2,
    lambda_n, j_lb and j_ub may then differ in the last bits from those
    of a report with eigenpairs.

    The bounds are closed forms that scale like sigma^2 / (eps p^2), so
    one that is not finite, or not positive at sigma^2 > 0, is an input
    outside the floating-point range: ValueError, before any solve. The
    exact index is then checked against both sandwiches, to a slack of
    1e-9 max(1, J), and a violation raises :class:`NumericalError`.
    """
    spec = laplacian_eigenpairs(g) if exact or sim is not None else laplacian_spectrum(g)
    j_lb, j_ub = ridl_bounds(g, cfg)
    r_ave = average_effective_resistance(g)
    j_res_lb, j_res_ub = resistance_bounds(r_ave, cfg)
    bounds = np.array([j_lb, j_ub, j_res_lb, j_res_ub])
    finite = np.isfinite(bounds).all()
    if not finite or (cfg.sigma2 > 0.0 and bounds.min() <= 0.0):
        raise ValueError(
            f"sigma2 = {cfg.sigma2:.6g} with eps * p^2 = {cfg.epsilon * cfg.p**2:.6g} "
            f"makes the index bounds {'underflow to 0' if finite else 'overflow'}"
        )
    report = NoiseReport(
        exact=exact_noise_index(g, cfg) if exact else None,
        # positional: bench/spans.py reads a traced call's first three arguments
        estimate=estimate_noise_index(g, cfg, sim) if sim is not None else None,
        j_lb=j_lb,
        j_ub=j_ub,
        j_res_lb=j_res_lb,
        j_res_ub=j_res_ub,
        r_ave=r_ave,
        lambda2=float(spec.eigenvalues[1]),
        lambda_n=float(spec.eigenvalues[-1]),
    )
    _validate_report(report)
    return report


def _validate_report(report: NoiseReport) -> None:
    """Check the exact index against both sandwiches, the independent
    check on every exact value."""
    if report.exact is None:
        return
    j = report.exact.j
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
