"""Underlying interaction graphs: generators, Laplacians, certified
Laplacian spectra, and effective resistance.

All graphs are simple and undirected (no self-loops, no multi-edges).
A graph is stored as its integer edge array only: an (m, 2) array of
pairs (i, j) with i < j in lexicographic order; the degrees and d_max
are derived from it on first use. The named makers and Erdos-Renyi
draws write that array in order; ``_build`` canonicalises outside input
(edge-list files) with array operations. No N x N matrix is formed when
a graph is built; the dense Laplacian is filled from the edges where a
caller needs it, for an eigensolve, the eigenpair certificate and the
exact solve's Stein operator. Randomized generators take a caller-owned
seeded generator so repeated runs are reproducible.

A graph keeps two Laplacian spectral records, each computed at most
once, each with its own certificate:

* the eigenvalues (``laplacian_spectrum``), which are all the bounds and
  the effective resistance need, certified by the power sums
  sum(lambda) = tr L = 2m and sum(lambda^2) = ||L||_F^2 = sum(d_i^2) + 2m;
  the certificate costs O(N).
* the eigenpairs (``laplacian_eigenpairs``), which the exact solve's
  eigenbasis iteration and the Monte Carlo shadow ask for, certified by the
  residual max_i ||L v_i - lambda_i v_i|| from one product L V.

Once the eigenpairs exist, the eigenvalue record is taken from them, so
a graph's spectrum is computed once. Both certificates are relative to
max(||L||_2, 1) and must stay within ``_EIGEN_RESIDUAL``; a failed check,
or a LAPACK failure to converge, raises :class:`NumericalError`. Whether
the graph is connected is decided once too, exactly and before any
spectrum (``is_connected``).

The star, path, grid (1 to 3 axes) and complete graphs of the named
makers have their spectra in closed form (``_closed_form``), recorded in
the graph's ``family`` when it is built:

* path and grid: eigenvalues sum_axes 4 sin^2(pi k / 2 n_a), and
  eigenvectors the Kronecker products of the axes' DCT-II columns
  (Strang, "The discrete cosine transform", SIAM Review 1999);
* star: eigenvalues {0, 1 (N - 2 times), N}; complete: {0, N (N - 1
  times)}; eigenvectors the constant vector, Helmert columns (on the
  leaves of the star, on every node of the complete graph), and the
  star's hub vector.

Values-only records of these graphs need no N x N matrix, so their
bounds reach N = 10^5. Every other graph (Erdos-Renyi draws, edge-list
files) is eigensolved by LAPACK's divide-and-conquer ``syevd`` through
``numpy.linalg`` (``eigvalsh`` and ``eigh``), on numpy's OpenBLAS, the
same library as every other dense product in the package. scipy bundles
a second OpenBLAS with its own thread pool, which its LAPACK wrappers
would load; with two pools on a machine with few cores, each pool's idle
workers spin while the other pool works.
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
    "is_connected",
    "average_effective_resistance",
    "read_edge_list",
    "write_edge_list",
]

# bound on both spectral certificates, relative to max(||L||_2, 1)
_EIGEN_RESIDUAL = 1e-8
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
    in lexicographic order. ``family`` names the closed form of the
    Laplacian spectrum: ``("star",)``, ``("complete",)`` or
    ``("grid", n_1, ..., n_k)`` for paths and grids, and None for a graph
    that is eigensolved. The rest is derived from the edges on first use
    and kept: ``degrees`` (the edges at each node), ``d_max`` (their
    maximum), the certified Laplacian eigenvalues and eigenpairs,
    whether the graph is connected, and the triples (v, u, w) with u and w
    neighbours of v that the exact solve's fluctuation term reads on a
    sparse graph.
    """

    n: int
    edges: np.ndarray
    family: tuple | None = None

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64, copy=False)

    @cached_property
    def d_max(self) -> int:
        return int(self.degrees.max(initial=0))

    @cached_property
    def _connected(self) -> bool:
        if self.n < 2:
            return False
        if self.family is not None:  # the named makers build connected graphs only
            return True
        # one frontier of the breadth-first search from node 0 at a time:
        # both ends of every edge that leaves the reached set are reached
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        while True:
            leaving = seen[lo] != seen[hi]
            if not leaving.any():
                return bool(seen.all())
            seen[lo[leaving]] = True
            seen[hi[leaving]] = True

    @cached_property
    def _triples(self) -> tuple[np.ndarray, np.ndarray]:
        # every triple (v, u, w) with u and w neighbours of v, u = w
        # included: sum_v d_v^2 of them. Returned as the flat indices
        # (rows vv, vw, uv, uw) of the four entries of an N x N matrix that
        # the triple reads and writes, and whether u = w.
        n = self.n
        src = np.concatenate((self.edges[:, 0], self.edges[:, 1]))
        dst = np.concatenate((self.edges[:, 1], self.edges[:, 0]))
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        deg = self.degrees
        # arc (v, u) pairs with each of the d_v arcs (v, w) that start at v
        reps = deg[src]
        first = np.repeat(np.arange(src.shape[0]), reps)
        within = np.arange(first.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
        v, u = src[first], dst[first]
        w = dst[(np.cumsum(deg) - deg)[v] + within]
        return np.stack((v * n + v, v * n + w, u * n + v, u * n + w)), u == w

    @cached_property
    def _eigenpairs(self) -> SpectralData:
        lap = laplacian(self)
        if self.family is None:
            w, v = _syevd(np.linalg.eigh, lap)
        else:
            w, v = _closed_form(self, vectors=True)
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
        # the eigenpairs, when already computed, serve here too
        pairs = self.__dict__.get("_eigenpairs")
        if pairs is not None:
            return pairs
        if self.family is None:
            w = _syevd(np.linalg.eigvalsh, laplacian(self))
        else:
            w, _ = _closed_form(self, vectors=False)
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


def _closed_form(g: UndirectedGraph, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The ascending Laplacian eigenvalues of a graph with a ``family``,
    and its orthonormal eigenvectors as columns when ``vectors`` is true
    (else None), from the formulas in the module docstring."""
    kind, *sides = g.family
    n = g.n
    if kind == "grid":
        # the product of the axes' paths: eigenvalues add, eigenvectors
        # are Kronecker products in row-major node order
        w, v = np.zeros(1), np.ones((1, 1))
        for m in sides:
            k = np.arange(m)
            w = (w[:, None] + 4.0 * np.sin(np.pi * k / (2 * m)) ** 2).ravel()
            if vectors:
                # DCT-II columns cos(pi k (j + 1/2) / m), orthonormal
                dct = np.cos(np.pi * np.outer(np.arange(m) + 0.5, k) / m)
                dct *= np.where(k == 0, math.sqrt(1.0 / m), math.sqrt(2.0 / m))
                v = np.kron(v, dct)
        order = np.argsort(w, kind="stable")
        return w[order], v[:, order] if vectors else None
    if kind == "star":
        w = np.concatenate(([0.0], np.ones(n - 2), [float(n)]))
    else:  # complete
        w = np.full(n, float(n))
        w[0] = 0.0
    if not vectors:
        return w, None
    v = np.empty((n, n))
    v[:, 0] = 1.0 / math.sqrt(n)
    v[:, 1:] = _helmert(n)
    if kind == "star":
        # the hub takes the Helmert's last row: columns 1..n-2 then lie on
        # the leaves (eigenvalue 1), and column n-1 is the hub vector
        # (-(n - 1), 1, ..., 1) (eigenvalue n)
        v = np.roll(v, 1, axis=0)
    return w, v


def _helmert(n: int) -> np.ndarray:
    """The n - 1 columns orthogonal to the constant vector of the order-n
    Helmert matrix: column k (1 <= k < n) holds 1 in rows 0..k-1, -k in
    row k and 0 below, divided by sqrt(k (k + 1))."""
    i = np.arange(n)[:, None]
    k = np.arange(1, n)[None, :]
    h = np.where(i < k, 1.0, 0.0) - k * (i == k)
    return h / np.sqrt(k * (k + 1.0))


@dataclass(frozen=True)
class ErdosRenyiDraw:
    """An Erdos-Renyi sample plus how many attempts connectivity took."""

    graph: UndirectedGraph
    attempts: int


def _build(n: int, edges) -> UndirectedGraph:
    """Graph on n nodes from an array-like of (i, j) pairs in any order
    and orientation, duplicates allowed: the canonicalisation of outside
    input, such as an edge-list file."""
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
    return _graph(n, *np.divmod(keys, n))


def _graph(n: int, lo, hi, family: tuple | None = None) -> UndirectedGraph:
    """The graph record of canonical edges (lo[e], hi[e]), lo < hi in
    lexicographic order."""
    edges = np.column_stack((lo, hi)).astype(np.int64, copy=False)
    return UndirectedGraph(n=n, edges=edges, family=family)


def make_star(n: int) -> UndirectedGraph:
    """Star graph: node 0 is the hub, connected to every other node."""
    if n < 3:
        raise ValueError(f"star graph needs n >= 3, got {n}")
    return _graph(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), ("star",))


def make_path(n: int) -> UndirectedGraph:
    """Path graph with edges (i, i+1)."""
    if n < 2:
        raise ValueError(f"path graph needs n >= 2, got {n}")
    return make_grid((n,))


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
    node = np.arange(n)
    coords = np.unravel_index(node, dims)
    # each node's successor along every axis, the last axis (stride 1)
    # first: row-major selection then gives the lexicographic edge order
    axes = range(len(dims) - 1, -1, -1)
    hi = np.column_stack([node + math.prod(dims[a + 1:]) for a in axes])
    has = np.column_stack([coords[a] < dims[a] - 1 for a in axes])
    lo = np.broadcast_to(node[:, None], hi.shape)
    return _graph(n, lo[has], hi[has], ("grid", *dims))


def make_complete(n: int) -> UndirectedGraph:
    """Complete graph on n >= 2 nodes."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    lo, hi = np.triu_indices(n, k=1)
    return _graph(n, lo, hi, ("complete",))


def draw_erdos_renyi(
    n: int, p_er: float, rng: np.random.Generator | int
) -> ErdosRenyiDraw:
    """Sample G(n, p_er), resampling until connected.

    Each unordered pair is present independently with probability
    ``p_er``; fresh draws come from the same seeded stream, so a fixed
    seed yields the same sequence of attempts. Raises ValueError once
    the budget of ``_ER_MAX_RESAMPLES`` (1000) attempts is exhausted
    (p_er too small for connectivity at this n).
    """
    if n < 2:
        raise ValueError(f"Erdos-Renyi graph needs n >= 2, got {n}")
    if not (0.0 < p_er <= 1.0):
        raise ValueError(f"edge probability must be in (0, 1], got {p_er}")
    rng = np.random.default_rng(rng)
    # triu_indices rows are canonical (i < j, lexicographic); a mask keeps their order
    iu, ju = np.triu_indices(n, k=1)
    for attempt in range(1, _ER_MAX_RESAMPLES + 1):
        mask = rng.random(iu.shape[0]) < p_er
        g = _graph(n, iu[mask], ju[mask])
        if is_connected(g):
            return ErdosRenyiDraw(graph=g, attempts=attempt)
    raise ValueError(
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

    Bounds-only rows get eigenvalues alone, certified by the power sums
    sum(lambda) = 2m and sum(lambda^2) = sum(d_i^2) + 2m. They are the
    closed forms of the star, path, grid and complete graphs built by the
    named makers, with no N x N matrix, and a values-only LAPACK solve of
    the dense Laplacian for any other graph. A
    :func:`~ridlnoise.noise_index.compute_noise_report` with the exact
    index or a Monte Carlo estimate asks for :func:`laplacian_eigenpairs`
    first; this record is then those eigenpairs, carrying their L V
    residual certificate, and no second solve runs."""
    return g._eigenvalues


def laplacian_eigenpairs(g: UndirectedGraph) -> SpectralData:
    """Ascending Laplacian eigenpairs with the residual certificate
    max_i ||L v_i - lambda_i v_i|| / ||L||; the same record on every call
    for the same graph. The star, path, grid and complete graphs of the
    named makers take them in closed form (DCT-II products, Helmert
    columns); any other graph is eigensolved by LAPACK. The exact solve's
    eigenbasis iteration and the Monte Carlo shadow need the eigenvectors, so
    :func:`~ridlnoise.noise_index.compute_noise_report` asks for them
    before the bounds when it runs either, and one solve serves all."""
    return g._eigenpairs


def is_connected(g: UndirectedGraph) -> bool:
    """Whether every node is reachable from every other, decided once per
    graph and kept on it: False below two nodes, True for the connected
    graphs of the named makers (a ``family``), and a breadth-first search
    on the edges for any other graph. The exact index, the bounds, the
    effective resistance and the Monte Carlo estimate read it before any
    spectrum, and an Erdos-Renyi draw keeps its answer."""
    return g._connected


def average_effective_resistance(g: UndirectedGraph) -> float:
    """Average effective resistance (1/N) * sum_{i>=2} 1/lambda_i of the
    Laplacian; requires a connected graph."""
    if not is_connected(g):
        raise ValueError("graph is disconnected")
    lam = laplacian_spectrum(g).eigenvalues
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
