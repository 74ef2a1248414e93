"""Underlying interaction graphs: generators, Laplacians, spectra, and
effective resistance.

All graphs are simple and undirected (no self-loops, no multi-edges).
The primary form is the integer edge array: an (m, 2) array of pairs
(i, j) with i < j in lexicographic order, canonicalised with array
operations when the graph is built. The dense adjacency, the degrees
and d_max are derived from it once, at the same time; the package
targets desk-scale sizes where a dense adjacency and full spectra are
cheap. Randomized generators take a caller-owned seeded generator so
repeated runs are reproducible.

A graph keeps two Laplacian spectral records, each computed at most
once: the eigenvalues (``laplacian_spectrum``), which are all the
bounds and the effective resistance need, and the eigenpairs
(``laplacian_eigenpairs``), which only the exact solve's
preconditioner asks for. Once the eigenpairs exist, the eigenvalue
record is taken from them, so a graph is eigensolved once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import Eigenvalues, SpectralData, sym_eigen, sym_eigvals
from .tolerances import TOL

__all__ = [
    "UndirectedGraph",
    "ErdosRenyiDraw",
    "make_star",
    "make_path",
    "make_grid",
    "make_complete",
    "draw_erdos_renyi",
    "laplacian",
    "laplacian_spectrum",
    "laplacian_eigenpairs",
    "is_connected",
    "average_effective_resistance",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Simple undirected graph on nodes 0..n-1.

    ``edges`` is an (m, 2) int64 array of pairs (i, j) with i < j, rows
    in lexicographic order; ``adjacency`` is the symmetric 0/1 matrix
    derived from it, ``degrees`` its row sums, and ``d_max`` the maximum
    degree. The Laplacian eigenvalues and eigenpairs are computed on
    first use and kept.
    """

    n: int
    edges: np.ndarray
    adjacency: np.ndarray
    degrees: np.ndarray
    d_max: int

    @cached_property
    def _eigenpairs(self) -> SpectralData:
        return sym_eigen(laplacian(self))

    @cached_property
    def _eigenvalues(self) -> Eigenvalues:
        # the exact solve's eigenpairs, when already computed, serve here too
        pairs = self.__dict__.get("_eigenpairs")
        if pairs is not None:
            return pairs
        # tr L = sum d_i = 2m and ||L||_F^2 = sum d_i^2 + 2m
        two_m = 2.0 * self.edges.shape[0]
        deg = self.degrees.astype(np.float64)
        return sym_eigvals(laplacian(self), two_m, float(deg @ deg) + two_m)


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
    adj = np.zeros((n, n), dtype=np.float64)
    adj[lo, hi] = 1.0
    adj[hi, lo] = 1.0
    degrees = np.bincount(np.concatenate((lo, hi)), minlength=n).astype(np.int64)
    d_max = int(degrees.max(initial=0))
    return UndirectedGraph(
        n=n, edges=np.column_stack((lo, hi)), adjacency=adj, degrees=degrees, d_max=d_max
    )


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
    once the ``TOL.er_max_resamples`` budget is exhausted (p_er too small
    for connectivity at this n).
    """
    if n < 2:
        raise ValueError(f"Erdos-Renyi graph needs n >= 2, got {n}")
    if not (0.0 < p_er <= 1.0):
        raise ValueError(f"edge probability must be in (0, 1], got {p_er}")
    rng = np.random.default_rng(rng)
    iu, ju = np.triu_indices(n, k=1)
    for attempt in range(1, TOL.er_max_resamples + 1):
        mask = rng.random(iu.shape[0]) < p_er
        g = _build(n, np.column_stack((iu[mask], ju[mask])))
        if is_connected(g):
            return ErdosRenyiDraw(graph=g, attempts=attempt)
    raise RuntimeError(
        f"no connected Erdos-Renyi draw in {TOL.er_max_resamples} attempts "
        f"(n={n}, p_er={p_er}); increase p_er"
    )


def laplacian(g: UndirectedGraph) -> np.ndarray:
    """Combinatorial Laplacian D - A of the graph."""
    return np.diag(g.degrees.astype(np.float64)) - g.adjacency


def laplacian_spectrum(g: UndirectedGraph) -> Eigenvalues:
    """Ascending Laplacian eigenvalues, certified; the same record on
    every call for the same graph.

    Bounds-only rows and Monte Carlo estimates get eigenvalues alone,
    from a values-only solve certified by the power sums
    sum(lambda) = 2m and sum(lambda^2) = sum(d_i^2) + 2m. Rows with the
    exact index ask for :func:`laplacian_eigenpairs` first; this record
    is then those eigenpairs, carrying their A V residual certificate,
    and no second solve runs."""
    return g._eigenvalues


def laplacian_eigenpairs(g: UndirectedGraph) -> SpectralData:
    """Ascending Laplacian eigenpairs with the residual certificate
    max_i ||L v_i - lambda_i v_i|| / ||L||; the same record on every call
    for the same graph. Only the exact solve's preconditioner needs the
    eigenvectors."""
    return g._eigenpairs


def is_connected(g: UndirectedGraph) -> bool:
    """Reachability of every node from node 0, one frontier of the
    breadth-first search at a time."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = g.adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def average_effective_resistance(g: UndirectedGraph) -> float:
    """Average effective resistance (1/N) * sum_{i>=2} 1/lambda_i of the
    Laplacian; requires a connected graph."""
    lam = laplacian_spectrum(g).eigenvalues
    thresh = TOL.connectivity_rtol * max(float(lam[-1]), 1.0)
    if g.n < 2 or lam[1] <= thresh:
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
    """Parse the "n m" edge-list format written by :func:`write_edge_list`."""
    text = Path(path).read_text()
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError(f"edge-list file {path} is missing the 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise ValueError(
            f"edge-list file {path} declares {m} edges but carries "
            f"{(len(tokens) - 2) // 2} pairs"
        )
    it = iter(tokens[2:])
    edges = [(int(i), int(j)) for i, j in zip(it, it)]
    return _build(n, edges)
