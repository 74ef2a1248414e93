import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridlnoise import (
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
from ridlnoise import graphs
from ridlnoise.graphs import _build, laplacian_eigenpairs

from oracles import (
    dense_adjacency,
    make_erdos_renyi,
    neighbor_lists,
    pairwise_resistance_average,
    reference_build,
    reference_laplacian,
)


def star_spectrum(n):
    return np.array([0.0] + [1.0] * (n - 2) + [float(n)])


def path_spectrum(n):
    return np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))


def grid_spectrum(dims):
    axis_spectra = [2.0 - 2.0 * np.cos(np.pi * np.arange(d) / d) for d in dims]
    sums = [sum(combo) for combo in itertools.product(*axis_spectra)]
    return np.sort(np.array(sums))


def complete_spectrum(n):
    return np.array([0.0] + [float(n)] * (n - 1))


def erdos_renyi_draw(n):
    return draw_erdos_renyi(n, 0.3, 3).graph


class TestGenerators:
    def test_star_shape(self):
        g = make_star(4)
        assert g.d_max == 3
        assert sorted(g.degrees.tolist()) == [1, 1, 1, 3]
        assert np.allclose(
            laplacian_spectrum(g).eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-10
        )

    def test_star3_equals_path3(self):
        assert np.allclose(
            laplacian_spectrum(make_star(3)).eigenvalues, [0.0, 1.0, 3.0], atol=1e-10
        )

    def test_star10_spectrum(self):
        g = make_star(10)
        assert np.allclose(
            laplacian_spectrum(g).eigenvalues, star_spectrum(10), atol=1e-10
        )

    def test_star_rejects_small(self):
        with pytest.raises(ValueError):
            make_star(2)

    def test_path_shapes(self):
        g = make_path(5)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]
        assert g.d_max == 2
        assert np.allclose(
            laplacian_spectrum(g).eigenvalues, path_spectrum(5), atol=1e-10
        )

    def test_path3_spectrum(self):
        assert np.allclose(
            laplacian_spectrum(make_path(3)).eigenvalues, [0.0, 1.0, 3.0], atol=1e-10
        )

    def test_path2_is_single_edge(self):
        g = make_path(2)
        assert np.allclose(laplacian_spectrum(g).eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_path_rejects_small(self):
        with pytest.raises(ValueError):
            make_path(1)

    def test_grid_2x2(self):
        g = make_grid([2, 2])
        assert g.n == 4 and g.d_max == 2
        assert np.allclose(
            laplacian_spectrum(g).eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-10
        )

    def test_grid_1d_is_path(self):
        assert np.array_equal(make_grid([3]).edges, make_path(3).edges)

    @pytest.mark.parametrize("dims", [[3, 3], [2, 5], [4, 4], [2, 2, 2], [3, 3, 3]])
    def test_grid_cosine_spectrum(self, dims):
        g = make_grid(dims)
        assert np.allclose(
            laplacian_spectrum(g).eigenvalues, grid_spectrum(dims), atol=1e-10
        )

    def test_grid_interior_degree(self):
        assert make_grid([3, 3]).d_max == 4
        assert make_grid([3, 3, 3]).d_max == 6

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            make_grid([2, 2, 2, 2])
        with pytest.raises(ValueError):
            make_grid([1, 3])

    def test_complete(self):
        g = make_complete(3)
        assert np.allclose(
            laplacian_spectrum(g).eigenvalues, [0.0, 3.0, 3.0], atol=1e-10
        )
        g7 = make_complete(7)
        assert np.allclose(
            laplacian_spectrum(g7).eigenvalues, complete_spectrum(7), atol=1e-10
        )

    def test_complete_rejects_small(self):
        with pytest.raises(ValueError):
            make_complete(1)

    @pytest.mark.parametrize("n", list(range(3, 101, 7)) + [100])
    def test_closed_form_spectra_match_solver(self, n):
        assert np.allclose(
            laplacian_spectrum(make_star(n)).eigenvalues, star_spectrum(n), atol=1e-10
        )
        assert np.allclose(
            laplacian_spectrum(make_path(n)).eigenvalues, path_spectrum(n), atol=1e-10
        )
        assert np.allclose(
            laplacian_spectrum(make_complete(n)).eigenvalues,
            complete_spectrum(n),
            atol=1e-10,
        )

    @pytest.mark.parametrize(
        "g",
        [make_star(6), make_path(7), make_grid([3, 4]), make_complete(5),
         make_erdos_renyi(12, 0.5, 3)],
        ids=["star", "path", "grid", "complete", "er"],
    )
    def test_structural_invariants(self, g):
        adj = dense_adjacency(g.n, g.edges)
        assert np.array_equal(laplacian(g), np.diag(g.degrees.astype(float)) - adj)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert np.array_equal(g.degrees, adj.sum(axis=1).astype(int))
        assert g.d_max == g.degrees.max()
        assert 2 * len(g.edges) == g.degrees.sum()

    def test_build_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError):
            _build(3, [(0, 0)])
        with pytest.raises(ValueError):
            _build(3, [(0, 3)])


def edge_digest(g):
    """First 16 hex digits of the SHA-256 of the edges as little-endian
    int64 (i, j) rows."""
    rows = np.ascontiguousarray(np.asarray(g.edges).reshape(-1, 2), dtype="<i8")
    return hashlib.sha256(rows.tobytes()).hexdigest()[:16]


@st.composite
def edge_lists(draw):
    """Valid pairs on 1..12 nodes in either orientation, with repeats."""
    n = draw(st.integers(min_value=1, max_value=12))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    base = draw(st.lists(pair, max_size=40))
    repeats = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    reversed_ = [(j, i) for i, j in draw(st.lists(st.sampled_from(base), max_size=10))] \
        if base else []
    return n, draw(st.permutations(base + repeats + reversed_))


class TestEdgeArrayBuild:
    """The edge-array construction gives the same graphs as the set-based
    one it replaced (``oracles.reference_build``), and the generators and
    seeded Erdos-Renyi draws give the same edges as before."""

    @staticmethod
    def assert_same_graph(new, old):
        assert new.n == old.n
        assert new.edges.dtype == np.int64 and new.edges.shape == (len(old.edges), 2)
        assert new.edges.tolist() == [list(e) for e in old.edges]
        lap, ref = laplacian(new), reference_laplacian(old)
        assert lap.dtype == ref.dtype and lap.shape == ref.shape
        assert lap.tobytes() == ref.tobytes()  # bit for bit, signed zeros included
        assert np.array_equal(new.degrees, old.degrees)
        assert new.degrees.dtype == old.degrees.dtype
        assert new.d_max == old.d_max and type(new.d_max) is int

    @given(edge_lists())
    def test_matches_set_based_build(self, case):
        n, edges = case
        self.assert_same_graph(_build(n, edges), reference_build(n, edges))

    @given(
        n=st.integers(min_value=1, max_value=6),
        edges=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=8),
    )
    def test_same_outcome_on_any_pairs(self, n, edges):
        try:
            old = reference_build(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as new_exc:
                _build(n, edges)
            assert str(new_exc.value) == str(exc)
        else:
            self.assert_same_graph(_build(n, edges), old)

    @pytest.mark.parametrize("n,edges,message", [
        (3, [(0, 1), (2, 2), (0, 5)], "self-loop at node 2 is not allowed"),
        (3, [(0, 1), (0, 3), (1, 1)], "edge (0,3) out of range for n=3"),
        (3, [(-1, 2)], "edge (-1,2) out of range for n=3"),
        (3, [(4, 4)], "self-loop at node 4 is not allowed"),
        (0, [], "node count must be positive, got 0"),
    ])
    def test_first_bad_pair_is_reported(self, n, edges, message):
        with pytest.raises(ValueError) as exc:
            _build(n, edges)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as old_exc:
            reference_build(n, edges)
        assert str(old_exc.value) == message

    # (n, p_er, seed, attempts, edge count, edge digest), recorded from the
    # set-based construction with the Python breadth-first connectivity check
    ER_GOLDEN = [
        (10, 0.1, 0, 41, 14, "647499ecfc328c47"),
        (10, 0.1, 1, 6, 10, "e728bb238f76a19e"),
        (10, 0.1, 2, 134, 11, "290f07a3e368202c"),
        (10, 0.1, 3, 116, 9, "2669f36033360cdb"),
        (10, 0.1, 4, 64, 9, "817e8fd59fec0540"),
        (10, 0.8, 0, 1, 35, "9b8186d75101e7bb"),
        (10, 0.8, 1, 1, 36, "887f8cf7f4c4ea94"),
        (10, 0.8, 2, 1, 36, "5c9b3425047e2d73"),
        (10, 0.8, 3, 1, 38, "32b12b2970212a56"),
        (10, 0.8, 4, 1, 33, "5ce6c89b13d55a98"),
        (30, 0.1, 0, 3, 49, "2c94e08420394aef"),
        (30, 0.1, 1, 7, 50, "a772580850d619b4"),
        (30, 0.1, 2, 5, 46, "8ed50ead729b3925"),
        (30, 0.1, 3, 1, 39, "7b73dbb547753434"),
        (30, 0.1, 4, 2, 41, "519967d4f4326b37"),
        (30, 0.8, 0, 1, 328, "128b8890276c00df"),
        (30, 0.8, 1, 1, 353, "a3a67e22b3eeb2b9"),
        (30, 0.8, 2, 1, 349, "90e7302dcc39e9ac"),
        (30, 0.8, 3, 1, 356, "d2477d8c8e7636a1"),
        (30, 0.8, 4, 1, 330, "d7870b5cb50cfc85"),
        (100, 0.1, 0, 1, 520, "bdb3a25aadd8c9fe"),
        (100, 0.1, 1, 1, 500, "006126daf29247e5"),
        (100, 0.1, 2, 1, 463, "402725243265665c"),
        (100, 0.1, 3, 1, 561, "5d395f2619d4d177"),
        (100, 0.1, 4, 1, 521, "3841c710d007c510"),
        (100, 0.8, 0, 1, 3936, "908b03f30b83ba89"),
        (100, 0.8, 1, 1, 3960, "8593f6adaff91ce9"),
        (100, 0.8, 2, 1, 3902, "d27ed5f25447cd05"),
        (100, 0.8, 3, 1, 3952, "cb81bc7d9145ce03"),
        (100, 0.8, 4, 1, 3937, "5870e947f1c09d27"),
    ]

    def test_erdos_renyi_golden_draws(self):
        assert any(attempts > 1 for _, _, _, attempts, _, _ in self.ER_GOLDEN)
        for n, p_er, seed, attempts, m, digest in self.ER_GOLDEN:
            draw = draw_erdos_renyi(n, p_er, seed)
            assert (draw.attempts, len(draw.graph.edges), edge_digest(draw.graph)) == (
                attempts, m, digest), (n, p_er, seed)

    @pytest.mark.parametrize("dims,m,digest", [
        ((2, 3), 7, "99de8d86d140dfd3"),
        ((4, 4), 24, "c68aeb05b1d0601c"),
        ((3, 3, 3), 54, "f71ca97d65c7d6c6"),
    ])
    def test_grid_golden_edges(self, dims, m, digest):
        g = make_grid(dims)
        assert (len(g.edges), edge_digest(g)) == (m, digest)

    @pytest.mark.parametrize("maker,n", [
        (make_star, 9), (make_path, 11), (make_complete, 8), (erdos_renyi_draw, 12),
    ])
    def test_generators_match_set_based_build(self, maker, n):
        g = maker(n)
        self.assert_same_graph(g, reference_build(n, g.edges.tolist()[::-1]))

    def test_erdos_renyi_draws_skip_build(self, monkeypatch):
        # the rows of triu_indices are canonical already, and a draw keeps them
        def spy(n, edges):
            raise AssertionError("draw_erdos_renyi canonicalised its edges")

        monkeypatch.setattr(graphs, "_build", spy)
        assert draw_erdos_renyi(10, 0.1, 0).attempts > 1

    @pytest.mark.parametrize("n,p_er,seed,attempts", [
        (10, 0.1, 0, 41), (10, 0.1, 2, 134), (10, 0.8, 4, 1), (30, 0.1, 1, 7), (100, 0.1, 3, 1),
    ])
    def test_erdos_renyi_draws_match_set_based_build(self, n, p_er, seed, attempts):
        draw = draw_erdos_renyi(n, p_er, seed)
        assert draw.attempts == attempts
        # the same pairs, reversed in order and orientation
        pairs = [(j, i) for i, j in draw.graph.edges.tolist()[::-1]]
        self.assert_same_graph(draw.graph, reference_build(n, pairs))


class TestLaplacian:
    def test_k2(self):
        assert np.array_equal(
            laplacian(make_complete(2)), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )

    def test_star4(self):
        lap = laplacian(make_star(4))
        assert np.array_equal(np.diag(lap), [3.0, 1.0, 1.0, 1.0])
        assert np.all(lap[0, 1:] == -1.0)

    def test_path3(self):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(laplacian(make_path(3)), expected)

    def test_spectrum_computed_once_per_graph(self):
        g = make_grid([3, 4])
        assert laplacian_spectrum(g) is laplacian_spectrum(g)
        assert laplacian_spectrum(make_grid([3, 4])) is not laplacian_spectrum(g)

    def test_eigenvalue_record_reuses_eigenpairs(self):
        g = make_grid([3, 4])
        pairs = laplacian_eigenpairs(g)
        assert laplacian_spectrum(g) is pairs
        assert laplacian_eigenpairs(g) is pairs
        assert pairs.eigenvectors.shape == (12, 12)

    @pytest.mark.parametrize(
        "g", [make_star(9), make_path(40), make_grid([4, 5]), make_complete(8),
              make_erdos_renyi(30, 0.3, 5)],
        ids=["star", "path", "grid", "complete", "er"],
    )
    def test_values_only_record_matches_eigenpairs(self, g):
        values = laplacian_spectrum(g)
        assert not hasattr(values, "eigenvectors")
        assert 0.0 <= values.residual <= 1e-12
        pairs = laplacian_eigenpairs(g)
        assert pairs is not values and laplacian_spectrum(g) is values
        assert np.allclose(values.eigenvalues, pairs.eigenvalues, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "g", [make_star(9), make_path(11), make_grid([4, 3]), make_complete(8)],
        ids=["star", "path", "grid", "complete"],
    )
    def test_row_sums_and_psd(self, g):
        lap = laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() == 0.0
        lam = laplacian_spectrum(g).eigenvalues
        assert lam[0] >= -1e-9
        assert abs(lam[0]) <= 1e-9


# every named family at N <= 200, grids with 1 to 3 axes
CLOSED_FORM_GRAPHS = [
    make_star(3), make_star(7), make_star(200), make_path(2), make_path(9), make_path(200),
    make_grid([2, 2]), make_grid([5, 7]), make_grid([14, 14]), make_grid([3, 5, 7]),
    make_grid([4, 4, 4]), make_grid([2, 10, 10]), make_complete(2), make_complete(9),
    make_complete(200),
]
CLOSED_FORM_IDS = ["star3", "star7", "star200", "path2", "path9", "path200", "grid2x2",
                   "grid5x7", "grid14x14", "grid3x5x7", "grid4x4x4", "grid2x10x10",
                   "complete2", "complete9", "complete200"]


class TestClosedFormSpectra:
    """The star, path, grid and complete makers' closed-form spectra agree
    with LAPACK's eigensolve of the same edges."""

    @pytest.mark.parametrize("g", CLOSED_FORM_GRAPHS, ids=CLOSED_FORM_IDS)
    def test_matches_eigh(self, g):
        lam, vecs = np.linalg.eigh(laplacian(g))
        values = laplacian_spectrum(g).eigenvalues
        pairs = laplacian_eigenpairs(g)
        scale = lam[-1]
        assert np.abs(values - lam).max() <= 1e-12 * scale
        assert np.abs(pairs.eigenvalues - lam).max() <= 1e-12 * scale
        v = pairs.eigenvectors
        assert np.abs(v.T @ v - np.eye(g.n)).max() <= 1e-12
        # the projector onto each distinct eigenvalue's eigenspace
        cuts = np.flatnonzero(np.diff(pairs.eigenvalues) > 1e-9 * scale) + 1
        for block in np.split(np.arange(g.n), cuts):
            ours, theirs = v[:, block], vecs[:, block]
            assert np.abs(ours @ ours.T - theirs @ theirs.T).max() <= 1e-10

    @pytest.mark.parametrize("g", CLOSED_FORM_GRAPHS, ids=CLOSED_FORM_IDS)
    def test_edges_are_the_canonical_form(self, g):
        # the same pairs, shuffled and half of them reversed
        rng = np.random.default_rng(g.n)
        pairs = g.edges[rng.permutation(len(g.edges))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip, ::-1]
        built = _build(g.n, pairs)
        assert g.edges.dtype == built.edges.dtype == np.int64
        assert np.array_equal(g.edges, built.edges)
        assert np.array_equal(g.degrees, built.degrees) and g.degrees.dtype == np.int64
        assert g.d_max == built.d_max
        assert built.family is None and g.family is not None

    def test_families(self):
        assert make_star(5).family == ("star",)
        assert make_path(5).family == ("grid", 5)
        assert make_grid([3, 4, 2]).family == ("grid", 3, 4, 2)
        assert make_complete(5).family == ("complete",)

    def test_bounds_spectrum_forms_no_dense_matrix(self, monkeypatch):
        def dense(g):
            raise AssertionError("dense Laplacian formed")

        monkeypatch.setattr(graphs, "laplacian", dense)
        for g in (make_star(500), make_path(500), make_grid([20, 25]), make_complete(500)):
            assert laplacian_spectrum(g).residual <= 1e-14


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(make_path(5))

    def test_two_disjoint_edges(self):
        assert not is_connected(_build(4, [(0, 1), (2, 3)]))

    def test_star50_spectral_crosscheck(self):
        g = make_star(50)
        assert is_connected(g)
        assert laplacian_spectrum(g).eigenvalues[1] > 1e-9

    @given(edge_lists())
    def test_matches_breadth_first_search(self, case):
        # every node reached from node 0, one neighbor list at a time
        g = _build(*case)
        nbrs = neighbor_lists(g)
        seen, queue = {0}, [0]
        while queue:
            for w in nbrs[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        # fewer than two nodes is not connected: no consensus to reach
        assert is_connected(g) == (len(seen) == g.n >= 2)

    def test_agrees_with_fiedler_value_on_er_samples(self):
        # G(20, p_er) samples, connected or not
        rng = np.random.default_rng(2024)
        iu, ju = np.triu_indices(20, k=1)
        checked = 0
        for p_er in (0.05, 0.2, 0.8):
            for _ in range(67):
                mask = rng.random(iu.shape[0]) < p_er
                g = _build(20, np.column_stack((iu[mask], ju[mask])))
                lam = laplacian_spectrum(g).eigenvalues
                spectral = lam[1] > 1e-9 * max(lam[-1], 1.0)
                assert is_connected(g) == spectral
                checked += 1
        assert checked >= 200


class TestErdosRenyi:
    def test_full_probability_is_complete(self):
        g = make_erdos_renyi(10, 1.0, 0)
        assert np.array_equal(g.edges, make_complete(10).edges)

    def test_seed_determinism(self):
        a = make_erdos_renyi(20, 0.8, 123)
        b = make_erdos_renyi(20, 0.8, 123)
        assert np.array_equal(a.edges, b.edges)

    def test_dense_draws_connect_first_try(self):
        for seed in range(100):
            draw = draw_erdos_renyi(100, 0.8, seed)
            assert draw.attempts == 1
            assert is_connected(draw.graph)

    def test_resampling_counts_attempts(self):
        # sparse draws at small n usually need several attempts
        draw = draw_erdos_renyi(12, 0.12, 7)
        # the draw's own search is kept on the accepted graph
        assert "_connected" in draw.graph.__dict__
        assert is_connected(draw.graph)
        assert draw.attempts >= 1

    def test_budget_exhaustion_is_diagnosed(self):
        with pytest.raises(ValueError, match="attempts"):
            draw_erdos_renyi(40, 0.01, 0)

    def test_rejects_fewer_than_two_nodes(self):
        with pytest.raises(ValueError, match="^Erdos-Renyi graph needs n >= 2, got 1$"):
            draw_erdos_renyi(1, 0.5, 0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            draw_erdos_renyi(10, 0.0, 0)
        with pytest.raises(ValueError):
            draw_erdos_renyi(10, 1.5, 0)


class TestEffectiveResistance:
    def test_complete_closed_form(self):
        # K_N: R_ave = (N-1)/N^2
        assert abs(average_effective_resistance(make_complete(3)) - 2.0 / 9.0) <= 1e-12

    def test_k2_value(self):
        assert abs(average_effective_resistance(make_complete(2)) - 0.25) <= 1e-12

    def test_path10_matches_pseudoinverse_oracle(self):
        g = make_path(10)
        assert abs(
            average_effective_resistance(g) - pairwise_resistance_average(g)
        ) <= 1e-10

    @pytest.mark.parametrize(
        "g",
        [make_star(30), make_path(30), make_grid([5, 6]), make_complete(30),
         make_grid([3, 3, 3]), make_erdos_renyi(25, 0.3, 9)],
        ids=["star", "path", "grid2d", "complete", "grid3d", "er"],
    )
    def test_spectral_equals_pairwise_average(self, g):
        assert abs(
            average_effective_resistance(g) - pairwise_resistance_average(g)
        ) <= 1e-10

    def test_disconnected_rejected(self):
        g = _build(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            average_effective_resistance(g)


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = make_grid([3, 4])
        path = tmp_path / "grid.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.n == g.n and np.array_equal(g2.edges, g.edges)

    def test_header_format(self, tmp_path):
        g = make_path(3)
        path = tmp_path / "p3.edges"
        write_edge_list(g, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "3 2"
        assert lines[1:] == ["0 1", "1 2"]

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError, match="declares"):
            read_edge_list(path)

    def test_non_integer_token_names_its_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 2\n0 1\n\n1 x\n")
        with pytest.raises(ValueError, match=r"bad.edges, line 4: 'x' is not an integer"):
            read_edge_list(path)
