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
    stochastic_atol: float = 1e-9     # row sums of a doubly stochastic matrix

    # eigensolver certificate
    eigen_residual: float = 1e-8      # max_i ||A v_i - lam_i v_i|| / max(||A||, 1)

    # spectral decision thresholds
    connectivity_rtol: float = 1e-9   # lambda_2 threshold, relative to lambda_N
    perron_gap: float = 1e-9          # second-largest eigenvalue must be < 1 - gap
    pinv_cutoff_rtol: float = 1e-9    # eigenvalue cutoff relative to lambda_max

    # agreement target (runtime sanity check of every report)
    sandwich_slack: float = 1e-9      # absolute slack on bound inequalities

    # random graph generation
    er_max_resamples: int = 1000      # connectivity resampling budget


TOL = Tolerances()
