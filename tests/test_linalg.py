import numpy as np
import pytest
import scipy.linalg

from ridlnoise import NumericalError, pseudoinverse_psd, sym_eigen
from ridlnoise.graphs import laplacian, make_complete, make_path, make_star

# the dense oracle's Kronecker product and LU solve
from oracles import SingularMatrixError, kron, solve


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
        eigh = scipy.linalg.eigh

        def perturbed(a):
            w, v = eigh(a)
            return w, v + 1e-6 * np.random.default_rng(0).standard_normal(v.shape)

        lap = laplacian(make_path(6))
        assert sym_eigen(lap).residual <= 1e-12
        monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
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
