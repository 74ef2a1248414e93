"""Central numerical tolerances and budgets.

Every threshold the library uses lives in this single record, so that
the code and its documentation cite one value.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # input validation
    symmetry_rtol: float = 1e-12      # max |A - A^T| relative to max |A|

    # eigensolver certificate
    eigen_residual: float = 1e-8      # max_i ||A v_i - lam_i v_i|| / max(||A||, 1)

    # spectral decision thresholds
    connectivity_rtol: float = 1e-9   # lambda_2 threshold, relative to lambda_N

    # agreement target (runtime sanity check of every report)
    sandwich_slack: float = 1e-9      # slack on bound inequalities, times max(1, |J|)

    # random graph generation
    er_max_resamples: int = 1000      # connectivity resampling budget


TOL = Tolerances()
