import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ridlnoise
from ridlnoise import NumericalError
from ridlnoise.graphs import (
    _build,
    laplacian,
    laplacian_eigenpairs,
    laplacian_spectrum,
    make_complete,
    make_path,
    make_star,
)

# the dense oracle's Kronecker product and LU solve, and the pseudoinverse
# behind the pairwise effective-resistance oracle
from oracles import SingularMatrixError, kron, pseudoinverse_psd, solve


def random_graph(rng, n_max=200):
    """A graph on 2..n_max nodes with a random edge density, not
    necessarily connected, with at least one edge."""
    n = int(rng.integers(2, n_max + 1))
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < rng.uniform(0.05, 0.9)
    mask[rng.integers(mask.shape[0])] = True
    return _build(n, np.column_stack((iu[mask], ju[mask])))


def copy_of(g):
    """The same graph as a fresh record, with no spectrum computed yet."""
    return _build(g.n, g.edges)


class TestSymEigen:
    """The certified eigenpair solve of a graph's Laplacian,
    ``laplacian_eigenpairs``."""

    def test_k2_laplacian(self):
        spec = laplacian_eigenpairs(make_complete(2))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_identity(self):
        # no edges: L = 0, and the eigenvectors are still an orthonormal basis
        spec = laplacian_eigenpairs(_build(5, []))
        assert np.array_equal(spec.eigenvalues, np.zeros(5))
        assert spec.residual == 0.0
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(5)).max() <= 1e-12

    def test_path4_known_spectrum(self):
        # closed form 2 - 2 cos(pi (i-1) / 4): {0, 2-sqrt(2), 2, 2+sqrt(2)}
        spec = laplacian_eigenpairs(make_path(4))
        expected = [0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
        assert np.allclose(spec.eigenvalues, expected, atol=1e-10)

    def test_ascending_order_and_certificates(self):
        g = random_graph(np.random.default_rng(0), n_max=30)
        spec = laplacian_eigenpairs(g)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert spec.residual <= 1e-8
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(g.n)).max() <= 1e-8

    def test_residual_certificate_enforced(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            w, v = eigh(a)
            return w, v + 1e-6 * np.random.default_rng(0).standard_normal(v.shape)

        # path 6 read from its edges, as from a file: eigensolved by LAPACK
        assert laplacian_eigenpairs(copy_of(make_path(6))).residual <= 1e-12
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalError, match="residual"):
            laplacian_eigenpairs(copy_of(make_path(6)))

    @staticmethod
    def assert_reconstructs(g):
        spec = laplacian_eigenpairs(g)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        scale = np.abs(spec.eigenvalues).max()
        assert np.abs(laplacian(g) - recon).max() <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_random(self, seed):
        self.assert_reconstructs(random_graph(np.random.default_rng(seed)))

    def test_reconstruction_bulk(self):
        # 100 random graphs, up to 200 nodes
        rng = np.random.default_rng(123)
        for _ in range(100):
            self.assert_reconstructs(random_graph(rng))


class TestKron:
    def test_identity_product(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_small_example(self):
        out = kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[2.0]]))
        assert np.array_equal(out, np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_vec_identity(self):
        # vec(A B C) = (C^T (x) A) vec(B), column-stacking vec
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
            lhs = (a @ b @ c).ravel(order="F")
            rhs = kron(c.T, a) @ b.ravel(order="F")
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_mixed_product(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            kron(np.eye(200), np.eye(200))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            kron(np.array([[np.inf]]), np.eye(2))


class TestSolve:
    def test_identity(self):
        assert np.allclose(solve(np.eye(3), np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_diagonal(self):
        assert np.allclose(solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_spd_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((20, 20))
        a = m @ m.T + 20 * np.eye(20)
        x_true = rng.standard_normal(20)
        x = solve(a, a @ x_true)
        assert np.abs(x - x_true).max() <= 1e-9

    def test_residual_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            rhs = rng.standard_normal(n)
            x = solve(a, rhs)
            assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs) * 1e3

    def test_singular_rejected_with_diagnostic(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError, match="rcond|pivot"):
            solve(a, np.array([1.0, 1.0]))


class TestSymEigvals:
    """The values-only Laplacian solve, ``laplacian_spectrum``, and its
    power-sum certificate sum(lambda) = 2m, sum(lambda^2) = sum(d^2) + 2m."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eigenpair_solve(self, seed):
        g = random_graph(np.random.default_rng(seed), n_max=150)
        values = laplacian_spectrum(g)
        assert np.all(np.diff(values.eigenvalues) >= 0)
        assert values.residual <= 1e-12
        scale = np.abs(values.eigenvalues).max()
        pairs = laplacian_eigenpairs(copy_of(g))
        assert np.abs(values.eigenvalues - pairs.eigenvalues).max() <= 1e-12 * scale

    def test_laplacian_power_sums(self):
        # star on 6 nodes: 2m = 10 and sum d^2 + 2m = 25 + 5 + 10
        values = laplacian_spectrum(make_star(6))
        assert np.allclose(values.eigenvalues, [0, 1, 1, 1, 1, 6], atol=1e-12)
        w = values.eigenvalues
        assert abs(w.sum() - 10.0) <= 1e-12 and abs(w @ w - 40.0) <= 1e-12

    def test_wrong_power_sums_rejected(self, monkeypatch):
        g = make_path(6)
        assert laplacian_spectrum(copy_of(g)).residual <= 1e-14
        eigvalsh = np.linalg.eigvalsh
        # the zero eigenvalue moved: a wrong sum (tr L is no longer 2m) with
        # a sum of squares inside the bound; then the top two moved apart:
        # the right sum and a wrong sum of squares
        for index, shift in (([0], [1e-5]), ([-2, -1], [-1e-5, 1e-5])):
            def shifted(a, index=index, shift=shift):
                w = eigvalsh(a)
                w[index] += shift
                return w

            monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
            with pytest.raises(NumericalError, match="power-sum"):
                laplacian_spectrum(copy_of(g))

    def test_perturbed_eigenvalues_rejected(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def perturbed(a):
            return eigvalsh(a) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(NumericalError, match="power-sum residual"):
            laplacian_spectrum(copy_of(make_path(30)))


# Runs in a fresh interpreter, so that no test's imports count.
_ONE_POOL_PROBE = """
import json, sys
import ridlnoise.cli
from ridlnoise import RidlConfig, compute_noise_report, make_path
for exact in (True, False):
    g = make_path(30)
    compute_noise_report(g, RidlConfig.for_graph(g, p=0.5, sigma2=1.0, k=0.8), exact=exact)
libs = set()
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.split("/")[-1]}
print(json.dumps({"scipy_linalg": "scipy.linalg" in sys.modules, "openblas": sorted(libs)}))
"""


class TestSingleBlasPool:
    """Every dense kernel runs on numpy's OpenBLAS: scipy's copy, with a
    thread pool of its own, is never loaded by an exact or a bounds-only
    report."""

    def test_one_openblas_loaded(self):
        src = str(Path(ridlnoise.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", _ONE_POOL_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        probe = json.loads(out)
        assert probe["scipy_linalg"] is False
        if sys.platform.startswith("linux"):
            assert len(probe["openblas"]) == 1, probe["openblas"]


class TestPseudoinversePsd:
    def test_k2_laplacian(self):
        lp = pseudoinverse_psd(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(lp, 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)

    def test_zero_matrix(self):
        assert np.array_equal(pseudoinverse_psd(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_k3_penrose_identity(self):
        lap = laplacian(make_complete(3))
        lp = pseudoinverse_psd(lap)
        assert np.abs(lap @ lp @ lap - lap).max() <= 1e-10

    @pytest.mark.parametrize("maker,n", [
        (make_path, 5), (make_star, 7), (make_complete, 10), (make_path, 20),
    ])
    def test_all_penrose_identities(self, maker, n):
        lap = laplacian(maker(n))
        lp = pseudoinverse_psd(lap)
        assert np.abs(lap @ lp @ lap - lap).max() <= 1e-9
        assert np.abs(lp @ lap @ lp - lp).max() <= 1e-9
        assert np.abs((lap @ lp).T - lap @ lp).max() <= 1e-9
        assert np.abs((lp @ lap).T - lp @ lap).max() <= 1e-9

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            pseudoinverse_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
