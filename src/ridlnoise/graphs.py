"""Underlying interaction graphs: generators, Laplacians, certified
Laplacian spectra, and effective resistance.

All graphs are simple and undirected (no self-loops, no multi-edges).
A graph is stored as its integer edge array only: an (m, 2) array of
pairs (i, j) with i < j in lexicographic order, canonicalised with array
operations when the graph is built, beside the degrees and d_max derived
from it. No N x N matrix is formed when a graph is built; the dense
Laplacian is filled from the edges where a caller needs it, for the
eigensolve and the exact solve's Stein operator. Randomized generators
take a caller-owned seeded generator so repeated runs are reproducible.

A graph keeps two Laplacian spectral records, each computed at most
once, each with its own certificate:

* the eigenvalues (``laplacian_spectrum``), which are all the bounds and
  the effective resistance need. A values-only solve, certified by the
  power sums sum(lambda) = tr L = 2m and
  sum(lambda^2) = ||L||_F^2 = sum(d_i^2) + 2m; it costs O(N) beyond the
  solve.
* the eigenpairs (``laplacian_eigenpairs``), which the exact solve's
  preconditioner and the Monte Carlo shadow ask for, certified by the
  residual max_i ||L v_i - lambda_i v_i|| from one product L V.

Once the eigenpairs exist, the eigenvalue record is taken from them, so
a graph is eigensolved once. Both certificates are relative to
max(||L||_2, 1) and must stay within ``_EIGEN_RESIDUAL``; a failed check,
or a LAPACK failure to converge, raises :class:`NumericalError`. Both
solves run LAPACK's divide-and-conquer ``syevd`` through ``numpy.linalg``
(``eigvalsh`` and ``eigh``), on numpy's OpenBLAS, the same library as
every other dense product in the package. scipy bundles a second
OpenBLAS with its own thread pool, which its LAPACK wrappers would load;
with two pools on a machine with few cores, each pool's idle workers
spin while the other pool works.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NumericalError

__all__ = [
    "UndirectedGraph",
    "ErdosRenyiDraw",
    "Eigenvalues",
    "SpectralData",
    "make_star",
    "make_path",
    "make_grid",
    "make_complete",
    "draw_erdos_renyi",
    "laplacian",
    "laplacian_spectrum",
    "laplacian_eigenpairs",
    "spectrum_disconnected",
    "is_connected",
    "average_effective_resistance",
    "read_edge_list",
    "write_edge_list",
]

# bound on both spectral certificates, relative to max(||L||_2, 1)
_EIGEN_RESIDUAL = 1e-8
# a graph is disconnected when lambda_2 <= this times max(lambda_N, 1)
_CONNECTIVITY_RTOL = 1e-9
# connectivity resampling budget of ``draw_erdos_renyi``
_ER_MAX_RESAMPLES = 1000


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


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Simple undirected graph on nodes 0..n-1.

    ``edges`` is an (m, 2) int64 array of pairs (i, j) with i < j, rows
    in lexicographic order; ``degrees`` counts the edges at each node,
    and ``d_max`` is the maximum degree. The certified Laplacian
    eigenvalues and eigenpairs are computed on first use and kept.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray
    d_max: int

    @cached_property
    def _eigenpairs(self) -> SpectralData:
        lap = laplacian(self)
        w, v = _syevd(np.linalg.eigh, lap)
        # certificate: max_i ||L v_i - w_i v_i|| / max(||L||_2, 1)
        norm = float(np.abs(w).max(initial=0.0))
        res_cols = np.linalg.norm(lap @ v - v * w, axis=0)
        residual = float(res_cols.max(initial=0.0) / max(norm, 1.0))
        if not residual <= _EIGEN_RESIDUAL:
            raise NumericalError(
                f"eigensolver residual {residual:.3e} exceeds {_EIGEN_RESIDUAL:.0e}"
            )
        return SpectralData(eigenvalues=w, eigenvectors=v, residual=residual)

    @cached_property
    def _eigenvalues(self) -> Eigenvalues:
        # the exact solve's eigenpairs, when already computed, serve here too
        pairs = self.__dict__.get("_eigenpairs")
        if pairs is not None:
            return pairs
        w = _syevd(np.linalg.eigvalsh, laplacian(self))
        # certificate: the power sums tr L = sum d_i = 2m and
        # ||L||_F^2 = sum d_i^2 + 2m, relative to N s and N s^2 with
        # s = max(||L||_2, 1)
        two_m = 2.0 * self.edges.shape[0]
        deg = self.degrees.astype(np.float64)
        n = max(w.shape[0], 1)
        scale = max(float(np.abs(w).max(initial=0.0)), 1.0)
        residual = max(
            abs(float(w.sum()) - two_m) / (n * scale),
            abs(float(w @ w) - (float(deg @ deg) + two_m)) / (n * scale * scale),
        )
        if not residual <= _EIGEN_RESIDUAL:
            raise NumericalError(
                f"eigenvalue power-sum residual {residual:.3e} exceeds {_EIGEN_RESIDUAL:.0e}"
            )
        return Eigenvalues(eigenvalues=w, residual=residual)


def _syevd(solver, lap: np.ndarray):
    """``solver`` (``numpy.linalg.eigh`` or ``eigvalsh``, both LAPACK
    ``syevd``) applied to ``lap``, a failure to converge raised as
    :class:`NumericalError`."""
    try:
        return solver(lap)
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError, which callers read as bad input
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


@dataclass(frozen=True)
class ErdosRenyiDraw:
    """An Erdos-Renyi sample plus how many attempts connectivity took."""

    graph: UndirectedGraph
    attempts: int


def _build(n: int, edges) -> UndirectedGraph:
    """Graph on n nodes from an array-like of (i, j) pairs in any order
    and orientation, duplicates allowed."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    bad = (i == j) | (i < 0) | (i >= n) | (j < 0) | (j >= n)
    if bad.any():
        # report the first offending pair in input order
        bi, bj = (int(v) for v in pairs[np.argmax(bad)])
        if bi == bj:
            raise ValueError(f"self-loop at node {bi} is not allowed")
        raise ValueError(f"edge ({bi},{bj}) out of range for n={n}")
    # one scalar key lo * n + hi per pair: sorted unique keys are the
    # lexicographically sorted canonical edges
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    lo, hi = np.divmod(keys, n)
    degrees = np.bincount(np.concatenate((lo, hi)), minlength=n).astype(np.int64)
    d_max = int(degrees.max(initial=0))
    return UndirectedGraph(n=n, edges=np.column_stack((lo, hi)), degrees=degrees, d_max=d_max)


def make_star(n: int) -> UndirectedGraph:
    """Star graph: node 0 is the hub, connected to every other node."""
    if n < 3:
        raise ValueError(f"star graph needs n >= 3, got {n}")
    leaves = np.arange(1, n)
    return _build(n, np.column_stack((np.zeros_like(leaves), leaves)))


def make_path(n: int) -> UndirectedGraph:
    """Path graph with edges (i, i+1)."""
    if n < 2:
        raise ValueError(f"path graph needs n >= 2, got {n}")
    return _build(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))


def make_grid(dims: list[int] | tuple[int, ...]) -> UndirectedGraph:
    """Cartesian grid graph in 1 to 3 dimensions, each side >= 2.

    Node (c_1, ..., c_k) maps to the row-major flat index; neighbors
    differ by one along a single axis.
    """
    dims = tuple(int(d) for d in dims)
    if not (1 <= len(dims) <= 3):
        raise ValueError(f"grid dimensionality must be 1..3, got {len(dims)}")
    if any(d < 2 for d in dims):
        raise ValueError(f"grid sides must be >= 2, got {dims}")
    n = math.prod(dims)
    index = np.arange(n).reshape(dims)
    edges = []
    for axis in range(len(dims)):
        # each node paired with its successor along this axis
        src = np.delete(index, -1, axis=axis)
        dst = np.delete(index, 0, axis=axis)
        edges.append(np.column_stack((src.ravel(), dst.ravel())))
    return _build(n, np.concatenate(edges))


def make_complete(n: int) -> UndirectedGraph:
    """Complete graph on n >= 2 nodes."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return _build(n, np.column_stack(np.triu_indices(n, k=1)))


def draw_erdos_renyi(
    n: int, p_er: float, rng: np.random.Generator | int
) -> ErdosRenyiDraw:
    """Sample G(n, p_er), resampling until connected.

    Each unordered pair is present independently with probability
    ``p_er``; fresh draws come from the same seeded stream, so a fixed
    seed yields the same sequence of attempts. Fails with a diagnostic
    once the budget of ``_ER_MAX_RESAMPLES`` (1000) attempts is
    exhausted (p_er too small for connectivity at this n).
    """
    if n < 2:
        raise ValueError(f"Erdos-Renyi graph needs n >= 2, got {n}")
    if not (0.0 < p_er <= 1.0):
        raise ValueError(f"edge probability must be in (0, 1], got {p_er}")
    rng = np.random.default_rng(rng)
    iu, ju = np.triu_indices(n, k=1)
    for attempt in range(1, _ER_MAX_RESAMPLES + 1):
        mask = rng.random(iu.shape[0]) < p_er
        g = _build(n, np.column_stack((iu[mask], ju[mask])))
        if is_connected(g):
            return ErdosRenyiDraw(graph=g, attempts=attempt)
    raise RuntimeError(
        f"no connected Erdos-Renyi draw in {_ER_MAX_RESAMPLES} attempts "
        f"(n={n}, p_er={p_er}); increase p_er"
    )


def laplacian(g: UndirectedGraph) -> np.ndarray:
    """Combinatorial Laplacian D - A of the graph, a dense N x N array
    filled from the edges."""
    lap = np.diag(g.degrees.astype(np.float64))
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    lap[lo, hi] = -1.0
    lap[hi, lo] = -1.0
    return lap


def laplacian_spectrum(g: UndirectedGraph) -> Eigenvalues:
    """Ascending Laplacian eigenvalues, certified; the same record on
    every call for the same graph.

    Bounds-only rows get eigenvalues alone, from a values-only solve
    certified by the power sums sum(lambda) = 2m and
    sum(lambda^2) = sum(d_i^2) + 2m. Rows with the exact index or a Monte
    Carlo estimate ask for :func:`laplacian_eigenpairs` first; this record
    is then those eigenpairs, carrying their A V residual certificate,
    and no second solve runs."""
    return g._eigenvalues


def laplacian_eigenpairs(g: UndirectedGraph) -> SpectralData:
    """Ascending Laplacian eigenpairs with the residual certificate
    max_i ||L v_i - lambda_i v_i|| / ||L||; the same record on every call
    for the same graph. The exact solve's preconditioner and the Monte
    Carlo shadow need the eigenvectors."""
    return g._eigenpairs


def spectrum_disconnected(lam: np.ndarray) -> bool:
    """Whether the graph with ascending Laplacian eigenvalues ``lam`` is
    disconnected: fewer than two nodes, or lambda_2 at most
    ``_CONNECTIVITY_RTOL`` * max(lambda_N, 1)."""
    return lam.shape[0] < 2 or lam[1] <= _CONNECTIVITY_RTOL * max(float(lam[-1]), 1.0)


def is_connected(g: UndirectedGraph) -> bool:
    """Reachability of every node from node 0, one frontier of the
    breadth-first search at a time: both ends of every edge that leaves
    the reached set are marked reached."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    while True:
        leaving = seen[lo] != seen[hi]
        if not leaving.any():
            return bool(seen.all())
        seen[lo[leaving]] = True
        seen[hi[leaving]] = True


def average_effective_resistance(g: UndirectedGraph) -> float:
    """Average effective resistance (1/N) * sum_{i>=2} 1/lambda_i of the
    Laplacian; requires a connected graph."""
    lam = laplacian_spectrum(g).eigenvalues
    if spectrum_disconnected(lam):
        raise ValueError(
            f"graph is disconnected (lambda_2 = {lam[1] if g.n > 1 else 0.0:.3e})"
        )
    return float(np.sum(1.0 / lam[1:]) / g.n)


def write_edge_list(g: UndirectedGraph, path: str | Path) -> None:
    """Serialize as text: first line "n m", then one "i j" line per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in g.edges.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> UndirectedGraph:
    """Parse the "n m" edge-list format written by :func:`write_edge_list`.
    Every token must be an integer within the platform's index range
    (``sys.maxsize``); an error names the file and the token's line."""
    values = []
    for line, text in enumerate(Path(path).read_text().splitlines(), 1):
        for token in text.split():
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(
                    f"edge-list file {path}, line {line}: {token!r} is not an integer"
                ) from None
            if abs(values[-1]) > sys.maxsize:
                raise ValueError(
                    f"edge-list file {path}, line {line}: {token} is too large for this platform"
                )
    if len(values) < 2:
        raise ValueError(f"edge-list file {path} is missing the 'n m' header")
    n, m = values[0], values[1]
    if len(values) != 2 + 2 * m:
        raise ValueError(
            f"edge-list file {path} declares {m} edges but carries "
            f"{(len(values) - 2) // 2} pairs"
        )
    it = iter(values[2:])
    return _build(n, list(zip(it, it)))
