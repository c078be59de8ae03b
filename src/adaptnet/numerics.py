"""Dense linear-algebra kernels for the steady-state analysis.

Lyapunov equations are solved by Kronecker vectorization, O(M^6).  No
package path calls the solver: ``theory.build_report`` uses the closed
forms for symmetric H_c (X = H_c^-1 / 2 for Sigma = I).  The solver and a
quadrature oracle, which evaluates the equivalent integral form, stay as
two independent routes that cross-check each other and those closed forms
(the acceptance battery's Lyapunov criterion, demo 02 and the theory
tests).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, StabilityError

_MIN_REAL = 1e-10
_RESIDUAL_REL = 1e-10

# degree-13 Pade numerator coefficients and its scaling threshold
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not m.size:
        raise ValueError("matrix is empty (0 x 0)")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def matrix_exponential(m) -> np.ndarray:
    """exp(m) by scaling-and-squaring with a degree-13 Pade approximant."""
    a = _square(m)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = 0
    if norm > _PADE13_THETA:
        s = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        a = a / (2.0 ** s)
    b = _PADE13_B
    eye = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


def _check_stable(hc: np.ndarray) -> float:
    """Minimum real part of the spectrum; must exceed _MIN_REAL."""
    min_real = float(np.linalg.eigvals(hc).real.min())
    if min_real <= _MIN_REAL:
        raise StabilityError(
            f"matrix is not stable enough (min real eigenvalue part "
            f"{min_real:.3e})",
            extreme=min_real,
        )
    return min_real


def _check_weighting(sigma: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(sigma).max()))
    if np.abs(sigma - sigma.T).max() > 1e-12 * scale:
        raise ValueError("weighting matrix must be symmetric")
    if np.linalg.eigvalsh(sigma).min() < -1e-10 * scale:
        raise ValueError("weighting matrix must be positive semi-definite")
    return 0.5 * (sigma + sigma.T)


def solve_lyapunov_continuous(hc, sigma) -> np.ndarray:
    """Unique X with H^T X + X H = Sigma, for H with spectrum in the open
    right half-plane and symmetric PSD Sigma.

    Solved through the vectorized system
    (I (x) H^T + H^T (x) I) vec(X) = vec(Sigma); the result is symmetrized
    and its residual verified to 1e-10 relative.
    """
    hc = _square(hc)
    sigma = _check_weighting(_square(sigma))
    if sigma.shape != hc.shape:
        raise ValueError("dimension mismatch between matrices")
    _check_stable(hc)
    n = hc.shape[0]
    eye = np.eye(n)
    k = np.kron(eye, hc.T) + np.kron(hc.T, eye)
    try:  # column-major vec(X)
        x = np.linalg.solve(k, sigma.ravel("F")).reshape((n, n), order="F")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"vectorized Lyapunov system is singular: {exc}")
    x = 0.5 * (x + x.T)
    sig_norm = np.linalg.norm(sigma, "fro")
    residual = np.linalg.norm(hc.T @ x + x @ hc - sigma, "fro")
    if residual > _RESIDUAL_REL * max(sig_norm, 1e-300):
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds "
            f"{_RESIDUAL_REL:.0e} * ||Sigma||_F"
        )
    return x


def lyapunov_quadrature_oracle(hc, sigma) -> np.ndarray:
    """Integral route to the same X: composite Simpson on
    integral_0^t_max exp(-H^T t) Sigma exp(-H t) dt.

    The horizon t_max is the point where ||exp(-H t_max)||^2 <= 1e-14
    (verified numerically, enlarging if needed); the even step count is
    sized for ~1e-9 relative quadrature error.
    """
    hc = _square(hc)
    sigma = _check_weighting(_square(sigma))
    min_real = _check_stable(hc)
    t_max = float(np.log(1e14) / (2.0 * min_real))
    while np.linalg.norm(matrix_exponential(-hc * t_max), 2) ** 2 > 1e-14:
        t_max *= 1.5
    norm = np.linalg.norm(hc, 2)
    steps = int(np.ceil(max(400.0, 60.0 * norm * t_max)))
    steps += steps % 2
    h = t_max / steps
    decay = matrix_exponential(-hc * h)
    term = sigma.copy()
    total = sigma.copy()  # weight 1 at t = 0
    for j in range(1, steps + 1):
        term = decay.T @ term @ decay
        weight = 1.0 if j == steps else (4.0 if j % 2 else 2.0)
        total += weight * term
    total *= h / 3.0
    return 0.5 * (total + total.T)
