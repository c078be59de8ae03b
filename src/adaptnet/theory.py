"""Closed-form steady-state predictions.

The central quantity is the first-order (in the step size) weighted
steady-state error of every agent,

    mse(Sigma) = mu_max * Tr{ X * sum_k p_k^2 R_v,k },
    H_c^T X + X H_c = Sigma,

identical across agents and identical, to first order, to the error of
the centralized recursion.  Higher-order remainder terms are deliberately
not modeled; reports carry a note to that effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .model import assumption_constants, network_hessian
from .numerics import solve_lyapunov_continuous, spectral_radius
from .policy import CombinationPolicy, PerronData, second_eigenvalue_magnitude

_APPROXIMATION_NOTE = (
    "first-order in the maximum step size; higher-order remainder omitted"
)


class OptimalWeights(NamedTuple):
    theta: np.ndarray
    msd: float


@dataclass(frozen=True)
class TheoryReport:
    """Bundle of closed-form predictions for one experiment."""

    hc: np.ndarray
    x: np.ndarray
    msd_first_order: float
    weighted_mse_hc_half: float
    rate: float
    mu_bound: float
    lambda2: float
    mu_max: float
    theta_opt: np.ndarray | None = None
    msd_opt: float | None = None


def _effective_noise(rv_blocks, p) -> np.ndarray:
    """(p^T (x) I) R_v (p (x) I) for block-diagonal R_v: sum_k p_k^2 R_v,k."""
    rv = np.asarray(rv_blocks, dtype=float)
    p = np.asarray(p, dtype=float)
    return np.einsum("k,kij->ij", p ** 2, rv)


def predict_weighted_mse(hc, rv_blocks, p, mu_max: float, sigma) -> float:
    """First-order steady-state weighted MSE, identical for every agent."""
    x = solve_lyapunov_continuous(hc, sigma)
    return float(mu_max * np.trace(x @ _effective_noise(rv_blocks, p)))


def predict_msd_identity(hc, rv_blocks, p, mu_max: float) -> float:
    """Sigma = I specialization through the analytic solution X = H_c^-1 / 2."""
    r_eff = _effective_noise(rv_blocks, p)
    return float(0.5 * mu_max * np.trace(np.linalg.solve(hc, r_eff)))


def convergence_rate(hc, mu_max: float) -> float:
    """Squared spectral radius of I - mu_max H_c: the per-step MSE contraction."""
    hc = np.asarray(hc, dtype=float)
    return float(spectral_radius(np.eye(hc.shape[0]) - mu_max * hc) ** 2)


def stable_step_bound(consts, p) -> float:
    """Largest safe mu_max: lambda_L / (||p||_1^2 (lambda_U^2 / 2 + 2 alpha))."""
    p_l1 = float(np.abs(np.asarray(p, dtype=float)).sum())
    return consts.lambda_l / (p_l1 ** 2 * (consts.lambda_u ** 2 / 2.0
                                           + 2.0 * consts.alpha))


def optimal_theta(h, rv_blocks, mu_max: float) -> OptimalWeights:
    """MSE-optimal Perron weights for agents sharing one Hessian.

    theta_k is proportional to 1 / Tr(H^-1 R_v,k); the attained MSD is
    (mu_max / 2) / sum_l Tr(H^-1 R_v,l)^-1.  Requires every agent's noise
    trace to be positive (a noiseless agent would take all the weight).
    """
    rv = np.asarray(rv_blocks, dtype=float)
    # Tr(H^-1 R_v,k) = sum_ij (H^-1)_ij (R_v,k)_ji: one inverse for all agents
    traces = np.einsum("ij,kji->k", np.linalg.inv(np.asarray(h, dtype=float)), rv)
    if (traces <= 1e-300).any():
        raise ValueError(
            "optimal weights are degenerate: some agent has zero noise trace"
        )
    inv = 1.0 / traces
    theta = inv / inv.sum()
    return OptimalWeights(theta=theta, msd=float(0.5 * mu_max / inv.sum()))


def optimal_theta_for_model(model, mu_max: float) -> OptimalWeights:
    """Optimal weights from a model, after checking the shared-Hessian premise."""
    h0 = 2.0 * model.r_u[0]
    scale = max(1.0, float(np.abs(h0).max()))
    # max_k |H_k - H_0| with H_k = 2 R_u,k, through one (N, M, M) temporary
    if 2.0 * abs(model.r_u - model.r_u[0]).max() > 1e-12 * scale:
        raise ContractError(
            "optimal weights assume identical Hessians across agents"
        )
    return optimal_theta(h0, model.rv_blocks(), mu_max)


def build_report(model, policy: CombinationPolicy,
                 perron: PerronData) -> TheoryReport:
    """Assemble every closed-form prediction for one configuration."""
    p = perron.p
    hc = network_hessian(model, p)
    rv = model.rv_blocks()
    consts = assumption_constants(model, p)  # raises if H_c is singular
    # H_c is symmetric (LinearModel enforces symmetric R_u), so Sigma = I
    # gives X = H_c^-1 / 2 and Sigma = H_c / 2 gives X = I / 4
    x = np.linalg.inv(hc)
    x = 0.25 * (x + x.T)
    msd = predict_msd_identity(hc, rv, p, perron.mu_max)
    weighted = float(0.25 * perron.mu_max * np.trace(_effective_noise(rv, p)))
    try:
        theta_opt, msd_opt = optimal_theta_for_model(model, perron.mu_max)
    except (ContractError, ValueError):
        theta_opt = msd_opt = None
    return TheoryReport(
        hc=hc,
        x=x,
        msd_first_order=msd,
        weighted_mse_hc_half=weighted,
        rate=convergence_rate(hc, perron.mu_max),
        mu_bound=stable_step_bound(consts, p),
        lambda2=second_eigenvalue_magnitude(policy.a),
        mu_max=perron.mu_max,
        theta_opt=theta_opt,
        msd_opt=msd_opt,
    )


def _db(x: float | None):
    if x is None or x <= 0.0:
        return None
    return float(10.0 * np.log10(x))


def report_to_json(report: TheoryReport) -> dict:
    """Linear-unit scalars plus dB convenience fields."""
    return {
        "msd_first_order": report.msd_first_order,
        "msd_first_order_db": _db(report.msd_first_order),
        "weighted_mse_hc_half": report.weighted_mse_hc_half,
        "weighted_mse_hc_half_db": _db(report.weighted_mse_hc_half),
        "rate": report.rate,
        "mu_bound": report.mu_bound,
        "mu_max": report.mu_max,
        "lambda2": report.lambda2,
        "hc": report.hc.tolist(),
        "x": report.x.tolist(),
        "theta_opt": None if report.theta_opt is None else report.theta_opt.tolist(),
        "msd_opt": report.msd_opt,
        "msd_opt_db": _db(report.msd_opt),
        "approximation": _APPROXIMATION_NOTE,
    }
