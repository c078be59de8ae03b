import numpy as np
import pytest

from adaptnet import (lyapunov_quadrature_oracle, matrix_exponential,
                      solve_lyapunov_continuous)
from adaptnet.errors import StabilityError


def random_stable(rng, n, skew_scale=0.2):
    """Random matrix whose spectrum lies in the open right half-plane."""
    g = rng.standard_normal((n, n))
    sym = g @ g.T / n + 0.3 * np.eye(n)
    skew = rng.standard_normal((n, n))
    return sym + skew_scale * (skew - skew.T)


def random_psd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T / n


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3),
                           atol=1e-15)

    def test_diagonal(self):
        out = matrix_exponential(np.diag([1.0, 2.0]))
        assert np.allclose(out, np.diag([np.e, np.e ** 2]), rtol=1e-14)

    def test_nilpotent_series_terminates(self):
        out = matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_matches_eigendecomposition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        s = rng.standard_normal((n, n))
        s = s + s.T
        s *= 10.0 / max(np.linalg.norm(s, 2), 1e-12) * rng.random()
        vals, vecs = np.linalg.eigh(s)
        oracle = (vecs * np.exp(vals)) @ vecs.T
        out = matrix_exponential(s)
        rel = np.linalg.norm(out - oracle, "fro") / np.linalg.norm(oracle, "fro")
        assert rel < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_group_property(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.standard_normal((5, 5))
        prod = matrix_exponential(a) @ matrix_exponential(-a)
        assert np.allclose(prod, np.eye(5), atol=1e-10)


class TestContinuousLyapunov:
    def test_identity_pair(self):
        x = solve_lyapunov_continuous(np.eye(2), np.eye(2))
        assert np.allclose(x, 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal_entries(self):
        x = solve_lyapunov_continuous(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_half_hessian_weighting_gives_quarter_identity(self):
        h = np.diag([2.0, 4.0])
        x = solve_lyapunov_continuous(h, h / 2.0)
        assert np.allclose(x, 0.25 * np.eye(2), atol=1e-12)

    def test_unstable_matrix_rejected_with_extreme(self):
        with pytest.raises(StabilityError) as err:
            solve_lyapunov_continuous(-np.eye(2), np.eye(2))
        assert err.value.extreme == pytest.approx(-1.0)

    def test_marginally_stable_rotation_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov_continuous(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                      np.eye(2))

    def test_asymmetric_weighting_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov_continuous(np.eye(2), np.array([[1.0, 0.5],
                                                           [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_symmetry_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        h = random_stable(rng, n)
        sigma = np.eye(n) if seed % 2 else random_psd(rng, n)
        x = solve_lyapunov_continuous(h, sigma)
        assert np.abs(x - x.T).max() < 1e-12
        residual = np.linalg.norm(h.T @ x + x @ h - sigma, "fro")
        assert residual <= 1e-10 * np.linalg.norm(sigma, "fro")
        assert np.linalg.eigvalsh(x).min() >= -1e-12


class TestQuadratureOracle:
    def test_identity_pair(self):
        x = lyapunov_quadrature_oracle(np.eye(2), np.eye(2))
        assert np.allclose(x, 0.5 * np.eye(2), atol=1e-10)

    def test_diagonal_scalar_integrals(self):
        x = lyapunov_quadrature_oracle(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cross_solver_agreement(self, seed):
        rng = np.random.default_rng(seed)
        h = random_stable(rng, 5)
        sigma = random_psd(rng, 5)
        x_direct = solve_lyapunov_continuous(h, sigma)
        x_quad = lyapunov_quadrature_oracle(h, sigma)
        rel = (np.linalg.norm(x_direct - x_quad, "fro")
               / np.linalg.norm(x_direct, "fro"))
        assert rel < 1e-8

    def test_stiff_non_normal_at_automatic_resolution(self):
        # symmetric part's spectrum spread 100x, plus a skew part that makes
        # H non-normal; c06's tolerance must hold at the automatic horizon
        # and step count
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        skew = rng.standard_normal((5, 5))
        h = q @ np.diag(np.geomspace(0.1, 10.0, 5)) @ q.T + 0.2 * (skew - skew.T)
        lam = np.linalg.eigvals(h).real
        assert lam.max() / lam.min() > 40.0
        assert np.linalg.norm(h @ h.T - h.T @ h) > 1.0
        x_direct = solve_lyapunov_continuous(h, np.eye(5))
        x_quad = lyapunov_quadrature_oracle(h, np.eye(5))
        rel = (np.linalg.norm(x_direct - x_quad, "fro")
               / np.linalg.norm(x_direct, "fro"))
        assert rel < 1e-8
