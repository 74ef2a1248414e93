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
    SpectralData,
    UndirectedGraph,
    average_effective_resistance,
    draw_erdos_renyi,
    is_connected,
    laplacian,
    laplacian_spectrum,
    make_complete,
    make_grid,
    make_path,
    make_star,
    read_edge_list,
    write_edge_list,
)
from .noise_index import (
    ExactIndex,
    NoiseReport,
    compute_noise_report,
    exact_noise_index,
    resistance_bounds,
    ridl_bounds,
)
from .ridl import RidlConfig, omega_projector, stein_operator
from .simulator import SimConfig, SimEstimate, estimate_noise_index

__version__ = "0.1.0"
