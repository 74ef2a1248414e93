"""Dense numerical substrate: the symmetric eigensolvers.

Matrices are plain float64 ``numpy.ndarray`` values. There are two
entry points, each returning a record that carries its own certificate:

* ``sym_eigvals`` computes eigenvalues only. Its certificate is the
  pair of power-sum identities sum(lambda) = tr(A) and
  sum(lambda^2) = ||A||_F^2, checked against values the caller knows
  from the matrix's structure (for a graph Laplacian, 2m and
  sum(d_i^2) + 2m). It costs O(N) beyond the solve.
* ``sym_eigen`` computes eigenpairs. Its certificate is the residual
  max_i ||A v_i - lambda_i v_i|| / ||A||, from one product A V.

Both solve with LAPACK's divide-and-conquer ``syevd`` through
``numpy.linalg`` (``eigvalsh`` and ``eigh``), so they run on numpy's
OpenBLAS, the same library as every other dense product in the package.
scipy bundles a second OpenBLAS with its own thread pool, which its
LAPACK wrappers would load; with two pools on a machine with few cores,
each pool's idle workers spin while the other pool works. A LAPACK
failure to converge raises :class:`NumericalError`.

Both certificates are relative to ``max(||A||_2, 1)`` and must stay
within ``TOL.eigen_residual``; a failed check raises
:class:`NumericalError`. Bounds-only rows and Monte Carlo estimates get
the first, through ``graphs.laplacian_spectrum``; rows with the exact
index get the second, through ``graphs.laplacian_eigenpairs``, because
the exact solve's preconditioner needs the eigenvectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tolerances import TOL

__all__ = [
    "Eigenvalues",
    "SpectralData",
    "sym_eigvals",
    "sym_eigen",
]


@dataclass(frozen=True)
class Eigenvalues:
    """Eigenvalues sorted ascending and the relative error of their
    certificate."""

    eigenvalues: np.ndarray
    residual: float


@dataclass(frozen=True)
class SpectralData(Eigenvalues):
    """Eigenpairs: ascending eigenvalues, orthonormal eigenvectors (as
    columns), and the max relative eigenpair residual."""

    eigenvectors: np.ndarray


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
    if skew > TOL.symmetry_rtol * scale:
        raise ValueError(
            f"{name} is not symmetric: max asymmetry {skew:.3e} "
            f"exceeds {TOL.symmetry_rtol:.0e} * scale"
        )


def _syevd(a: np.ndarray, compute_vectors: bool):
    """LAPACK ``syevd`` on ``a``: eigenvalues, or (eigenvalues,
    eigenvectors) when ``compute_vectors``."""
    try:
        return np.linalg.eigh(a) if compute_vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError, which callers read as bad input
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


def sym_eigvals(a: np.ndarray, trace: float, frobenius_sq: float) -> Eigenvalues:
    """Eigenvalues only of a symmetric matrix (validated to relative
    tolerance 1e-12), ascending, certified by the power sums: the
    errors |sum(lambda) - ``trace``| / (N s) and
    |sum(lambda^2) - ``frobenius_sq``| / (N s^2), with s = max(||A||_2, 1),
    must stay within ``TOL.eigen_residual``, else
    :class:`NumericalError`. ``trace`` and ``frobenius_sq`` are tr(A)
    and ||A||_F^2 as the caller knows them."""
    a = _as_square_float(a)
    _require_symmetric(a)
    w = _syevd(a, compute_vectors=False)
    n = max(w.shape[0], 1)
    scale = max(float(np.abs(w).max(initial=0.0)), 1.0)
    residual = max(
        abs(float(w.sum()) - trace) / (n * scale),
        abs(float(w @ w) - frobenius_sq) / (n * scale * scale),
    )
    if not residual <= TOL.eigen_residual:
        raise NumericalError(
            f"eigenvalue power-sum residual {residual:.3e} exceeds {TOL.eigen_residual:.0e}"
        )
    return Eigenvalues(eigenvalues=w, residual=residual)


def sym_eigen(a: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix (validated to
    relative tolerance 1e-12), ascending, with a residual certificate;
    raises :class:`NumericalError` when the certificate exceeds
    ``TOL.eigen_residual``."""
    a = _as_square_float(a)
    _require_symmetric(a)
    w, v = _syevd(a, compute_vectors=True)
    # certificate: max_i ||A v_i - w_i v_i|| / ||A||_2
    norm_a = float(np.abs(w).max(initial=0.0))
    res_cols = np.linalg.norm(a @ v - v * w, axis=0)
    residual = float(res_cols.max(initial=0.0) / max(norm_a, 1.0))
    if not residual <= TOL.eigen_residual:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds {TOL.eigen_residual:.0e}"
        )
    return SpectralData(eigenvalues=w, eigenvectors=v, residual=residual)
