"""Noise index of randomized consensus with randomly induced discretized
Laplacian (RIDL) update matrices.

Exact values via a matrix-free solve of the second-moment (Stein)
equation, spectral and effective-resistance bounds, and Monte Carlo
estimation, specialized to update matrices sampled by Bernoulli node
activation on an underlying graph.
"""

from .errors import NumericalError
from .graphs import (
    ErdosRenyiDraw,
    UndirectedGraph,
    average_effective_resistance,
    draw_erdos_renyi,
    is_connected,
    laplacian,
    laplacian_spectrum,
    make_complete,
    make_erdos_renyi,
    make_grid,
    make_path,
    make_star,
    read_edge_list,
    write_edge_list,
)
from .linalg import SpectralData, pseudoinverse_psd, sym_eigen
from .noise_index import (
    FAMILIES,
    ExactIndex,
    NoiseReport,
    PredictedScaling,
    ResistanceBounds,
    complete_closed_form_bounds,
    compute_noise_report,
    exact_noise_index,
    family_asymptotics,
    generic_bounds,
    path_closed_form_bounds,
    resistance_bounds,
    ridl_bounds,
    star_closed_form_bounds,
)
from .ridl import (
    ConsensusReport,
    RidlConfig,
    StochasticMatrixSample,
    check_consensus_conditions,
    expected_p,
    expected_p_squared,
    induced_laplacian,
    omega_projector,
    sample_activation,
    sample_ridl,
    stein_operator,
)
from .simulator import (
    NOISE_DISTRIBUTIONS,
    SimConfig,
    SimEstimate,
    default_horizon,
    disagreement,
    estimate_noise_index,
    step,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
