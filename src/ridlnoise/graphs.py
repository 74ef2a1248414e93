"""Underlying interaction graphs: generators, Laplacians, spectra, and
effective resistance.

All graphs are simple and undirected (no self-loops, no multi-edges) and
stored densely; the package targets desk-scale sizes where full spectra
are cheap. Randomized generators take a caller-owned seeded generator so
repeated runs are reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import SpectralData, sym_eigen
from .tolerances import TOL

__all__ = [
    "UndirectedGraph",
    "ErdosRenyiDraw",
    "make_star",
    "make_path",
    "make_grid",
    "make_complete",
    "make_erdos_renyi",
    "draw_erdos_renyi",
    "laplacian",
    "laplacian_spectrum",
    "is_connected",
    "average_effective_resistance",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Simple undirected graph on nodes 0..n-1.

    ``edges`` is a lexicographically sorted tuple of (i, j) pairs with
    i < j; ``adjacency`` is the symmetric 0/1 matrix, ``degrees`` its row
    sums, and ``d_max`` the maximum degree. The Laplacian spectrum is
    computed on first use and kept, so a graph is eigensolved once.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: np.ndarray
    degrees: np.ndarray
    d_max: int

    def neighbor_lists(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs

    @cached_property
    def _spectrum(self) -> SpectralData:
        return sym_eigen(laplacian(self))


@dataclass(frozen=True)
class ErdosRenyiDraw:
    """An Erdos-Renyi sample plus how many attempts connectivity took."""

    graph: UndirectedGraph
    attempts: int


def _build(n: int, edges) -> UndirectedGraph:
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    canon = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        canon.add((min(i, j), max(i, j)))
    edge_tuple = tuple(sorted(canon))
    adj = np.zeros((n, n), dtype=np.float64)
    for i, j in edge_tuple:
        adj[i, j] = 1.0
        adj[j, i] = 1.0
    degrees = adj.sum(axis=1).astype(np.int64)
    d_max = int(degrees.max(initial=0))
    return UndirectedGraph(n=n, edges=edge_tuple, adjacency=adj, degrees=degrees, d_max=d_max)


def make_star(n: int) -> UndirectedGraph:
    """Star graph: node 0 is the hub, connected to every other node."""
    if n < 3:
        raise ValueError(f"star graph needs n >= 3, got {n}")
    return _build(n, [(0, i) for i in range(1, n)])


def make_path(n: int) -> UndirectedGraph:
    """Path graph with edges (i, i+1)."""
    if n < 2:
        raise ValueError(f"path graph needs n >= 2, got {n}")
    return _build(n, [(i, i + 1) for i in range(n - 1)])


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
    edges = []
    for coords in itertools.product(*(range(d) for d in dims)):
        idx = int(np.ravel_multi_index(coords, dims))
        for axis, side in enumerate(dims):
            if coords[axis] + 1 < side:
                nxt = list(coords)
                nxt[axis] += 1
                edges.append((idx, int(np.ravel_multi_index(nxt, dims))))
    return _build(n, edges)


def make_complete(n: int) -> UndirectedGraph:
    """Complete graph on n >= 2 nodes."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return _build(n, itertools.combinations(range(n), 2))


def draw_erdos_renyi(
    n: int,
    p_er: float,
    rng: np.random.Generator | int,
    require_connected: bool = True,
    max_resamples: int = TOL.er_max_resamples,
) -> ErdosRenyiDraw:
    """Sample G(n, p_er); optionally resample until connected.

    Each unordered pair is present independently with probability
    ``p_er``; fresh draws come from the same seeded stream, so a fixed
    seed yields the same sequence of attempts. Fails with a diagnostic
    once the resampling budget is exhausted (p_er too small for
    connectivity at this n).
    """
    if n < 2:
        raise ValueError(f"Erdos-Renyi graph needs n >= 2, got {n}")
    if not (0.0 < p_er <= 1.0):
        raise ValueError(f"edge probability must be in (0, 1], got {p_er}")
    rng = np.random.default_rng(rng)
    iu, ju = np.triu_indices(n, k=1)
    for attempt in range(1, max_resamples + 1):
        mask = rng.random(iu.shape[0]) < p_er
        g = _build(n, zip(iu[mask], ju[mask]))
        if not require_connected or is_connected(g):
            return ErdosRenyiDraw(graph=g, attempts=attempt)
    raise RuntimeError(
        f"no connected Erdos-Renyi draw in {max_resamples} attempts "
        f"(n={n}, p_er={p_er}); increase p_er or the resampling budget"
    )


def make_erdos_renyi(
    n: int,
    p_er: float,
    rng: np.random.Generator | int,
    require_connected: bool = True,
    max_resamples: int = TOL.er_max_resamples,
) -> UndirectedGraph:
    """Sample G(n, p_er), resampling to connectivity by default."""
    return draw_erdos_renyi(n, p_er, rng, require_connected, max_resamples).graph


def laplacian(g: UndirectedGraph) -> np.ndarray:
    """Combinatorial Laplacian D - A of the graph."""
    return np.diag(g.degrees.astype(np.float64)) - g.adjacency


def laplacian_spectrum(g: UndirectedGraph) -> SpectralData:
    """Ascending Laplacian eigenpairs with residual certificate; the same
    record on every call for the same graph."""
    return g._spectrum


def is_connected(g: UndirectedGraph) -> bool:
    """Breadth-first reachability of every node from node 0."""
    if g.n == 1:
        return True
    nbrs = g.neighbor_lists()
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    nxt.append(v)
        frontier = nxt
    return count == g.n


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
    lines.extend(f"{i} {j}" for i, j in g.edges)
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
