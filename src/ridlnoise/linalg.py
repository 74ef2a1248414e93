"""Dense numerical substrate: the symmetric eigensolver and the PSD
pseudoinverse.

Matrices are plain float64 ``numpy.ndarray`` values. Eigen decompositions
return a :class:`SpectralData` record that carries a residual certificate,
checked against ``TOL.eigen_residual``, so downstream spectral formulas
and the exact solve's preconditioner can trust the eigenpairs they
consume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .tolerances import TOL

__all__ = [
    "SpectralData",
    "sym_eigen",
    "pseudoinverse_psd",
]


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues sorted ascending, orthonormal eigenvectors (as
    columns), and the max relative eigenpair residual."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


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


def sym_eigen(a: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix (validated to
    relative tolerance 1e-12), ascending, with a residual certificate;
    raises :class:`NumericalError` when the certificate exceeds
    ``TOL.eigen_residual``."""
    a = _as_square_float(a)
    _require_symmetric(a)
    w, v = scipy.linalg.eigh(a)
    # certificate: max_i ||A v_i - w_i v_i|| / ||A||_2
    norm_a = float(np.abs(w).max(initial=0.0))
    res_cols = np.linalg.norm(a @ v - v * w, axis=0)
    residual = float(res_cols.max(initial=0.0) / max(norm_a, 1.0))
    if not residual <= TOL.eigen_residual:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds {TOL.eigen_residual:.0e}"
        )
    return SpectralData(eigenvalues=w, eigenvectors=v, residual=residual)


def pseudoinverse_psd(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix via its
    spectral decomposition, zeroing eigenvalues below 1e-9 * lambda_max."""
    a = _as_square_float(a)
    _require_symmetric(a)
    spec = sym_eigen(a)
    w, v = spec.eigenvalues, spec.eigenvectors
    lam_max = float(w.max(initial=0.0))
    cutoff = TOL.pinv_cutoff_rtol * max(lam_max, 0.0)
    keep = w > cutoff
    inv_w = np.zeros_like(w)
    inv_w[keep] = 1.0 / w[keep]
    return (v * inv_w) @ v.T
