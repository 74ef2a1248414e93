import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ridlnoise
from ridlnoise import NumericalError, sym_eigen
from ridlnoise.linalg import sym_eigvals
from ridlnoise.graphs import laplacian, make_complete, make_path, make_star

# the dense oracle's Kronecker product and LU solve, and the pseudoinverse
# behind the pairwise effective-resistance oracle
from oracles import SingularMatrixError, kron, pseudoinverse_psd, solve


class TestSymEigen:
    def test_k2_laplacian(self):
        spec = sym_eigen(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_identity(self):
        spec = sym_eigen(np.eye(5))
        assert np.allclose(spec.eigenvalues, np.ones(5))

    def test_path4_known_spectrum(self):
        # closed form 2 - 2 cos(pi (i-1) / 4): {0, 2-sqrt(2), 2, 2+sqrt(2)}
        spec = sym_eigen(laplacian(make_path(4)))
        expected = [0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
        assert np.allclose(spec.eigenvalues, expected, atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_ascending_order_and_certificates(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 30))
        a = (a + a.T) / 2
        spec = sym_eigen(a)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert spec.residual <= 1e-8
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(30)).max() <= 1e-8

    def test_residual_certificate_enforced(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            w, v = eigh(a)
            return w, v + 1e-6 * np.random.default_rng(0).standard_normal(v.shape)

        lap = laplacian(make_path(6))
        assert sym_eigen(lap).residual <= 1e-12
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalError, match="residual"):
            sym_eigen(lap)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 201))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        spec = sym_eigen(a)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        scale = np.abs(spec.eigenvalues).max()
        assert np.abs(a - recon).max() <= 1e-8 * scale

    def test_reconstruction_bulk(self):
        # 100 random symmetric matrices, dimensions up to 200
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            spec = sym_eigen(a)
            recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
            assert np.abs(a - recon).max() <= 1e-8 * np.abs(spec.eigenvalues).max()


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


def power_sums(a):
    return float(np.trace(a)), float(np.vdot(a, a))


class TestSymEigvals:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eigenpair_solve(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 151))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        values = sym_eigvals(a, *power_sums(a))
        assert np.all(np.diff(values.eigenvalues) >= 0)
        assert values.residual <= 1e-12
        scale = np.abs(values.eigenvalues).max()
        assert np.abs(values.eigenvalues - sym_eigen(a).eigenvalues).max() <= 1e-12 * scale

    def test_laplacian_power_sums(self):
        # tr L = 2m and ||L||_F^2 = sum d^2 + 2m
        g = make_star(6)
        values = sym_eigvals(laplacian(g), 10.0, 25.0 + 5.0 + 10.0)
        assert np.allclose(values.eigenvalues, [0, 1, 1, 1, 1, 6], atol=1e-12)

    def test_wrong_power_sums_rejected(self):
        lap = laplacian(make_path(6))
        trace, frob = power_sums(lap)
        assert sym_eigvals(lap, trace, frob).residual <= 1e-14
        with pytest.raises(NumericalError, match="power-sum"):
            sym_eigvals(lap, trace + 1e-5, frob)
        with pytest.raises(NumericalError, match="power-sum"):
            sym_eigvals(lap, trace, frob - 1e-5)

    def test_perturbed_eigenvalues_rejected(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def perturbed(a):
            return eigvalsh(a) * (1.0 + 1e-6)

        lap = laplacian(make_path(30))
        sums = power_sums(lap)
        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(NumericalError, match="power-sum residual"):
            sym_eigvals(lap, *sums)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 1.0)


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
