import itertools

import numpy as np
import pytest

from ridlnoise import (
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
from ridlnoise.graphs import _build

from oracles import pairwise_resistance_average


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
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
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
        assert make_grid([3]).edges == make_path(3).edges

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
        adj = g.adjacency
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


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(make_path(5))

    def test_two_disjoint_edges(self):
        assert not is_connected(_build(4, [(0, 1), (2, 3)]))

    def test_star50_spectral_crosscheck(self):
        g = make_star(50)
        assert is_connected(g)
        assert laplacian_spectrum(g).eigenvalues[1] > 1e-9

    def test_agrees_with_fiedler_value_on_er_samples(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for p_er in (0.05, 0.2, 0.8):
            for _ in range(67):
                g = draw_erdos_renyi(20, p_er, rng, require_connected=False).graph
                lam = laplacian_spectrum(g).eigenvalues
                spectral = lam[1] > 1e-9 * max(lam[-1], 1.0)
                assert is_connected(g) == spectral
                checked += 1
        assert checked >= 200


class TestErdosRenyi:
    def test_full_probability_is_complete(self):
        g = make_erdos_renyi(10, 1.0, 0)
        assert g.edges == make_complete(10).edges

    def test_seed_determinism(self):
        a = make_erdos_renyi(20, 0.8, 123)
        b = make_erdos_renyi(20, 0.8, 123)
        assert a.edges == b.edges

    def test_dense_draws_connect_first_try(self):
        for seed in range(100):
            draw = draw_erdos_renyi(100, 0.8, seed)
            assert draw.attempts == 1
            assert is_connected(draw.graph)

    def test_resampling_counts_attempts(self):
        # sparse draws at small n usually need several attempts
        draw = draw_erdos_renyi(12, 0.12, 7, require_connected=True, max_resamples=500)
        assert is_connected(draw.graph)
        assert draw.attempts >= 1

    def test_budget_exhaustion_is_diagnosed(self):
        with pytest.raises(RuntimeError, match="attempts"):
            draw_erdos_renyi(40, 0.01, 0, require_connected=True, max_resamples=3)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            make_erdos_renyi(10, 0.0, 0)
        with pytest.raises(ValueError):
            make_erdos_renyi(10, 1.5, 0)


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
        assert g2.n == g.n and g2.edges == g.edges

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
