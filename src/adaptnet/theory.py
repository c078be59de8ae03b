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
from .model import (_agent_sum, _block_slices, assumption_constants,
                    network_hessian)
from .numerics import _square
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


def convergence_rate(hc, mu_max: float) -> float:
    """Squared spectral radius of I - mu_max H_c, the per-step MSE
    contraction: max_i (1 - mu_max lambda_i)^2 over the eigenvalues of the
    symmetric H_c."""
    lam = np.linalg.eigvalsh(_square(hc))
    return float(((1.0 - mu_max * lam) ** 2).max())


def stable_step_bound(consts, p) -> float:
    """Largest safe mu_max: lambda_L / (||p||_1^2 (lambda_U^2 / 2 + 2 alpha))."""
    p_l1 = float(np.abs(np.asarray(p, dtype=float)).sum())
    return consts.lambda_l / (p_l1 ** 2 * (consts.lambda_u ** 2 / 2.0
                                           + 2.0 * consts.alpha))


def _spread_from_first(r) -> float:
    """max_k |r_k - r_0| entrywise, as max(max_k r_k - r_0, r_0 - min_k r_k):
    rounding is monotone, so this is abs(r - r[0]).max() bit for bit, with
    no (N, M, M) temporary."""
    return float(max((r.max(axis=0) - r[0]).max(),
                     (r[0] - r.min(axis=0)).max()))


def optimal_theta_for_model(model, mu_max: float) -> OptimalWeights:
    """MSE-optimal Perron weights for agents sharing one Hessian H.

    theta_k is proportional to 1 / Tr(H^-1 R_v,k); the attained MSD is
    (mu_max / 2) / sum_l Tr(H^-1 R_v,l)^-1.  Raises ``ContractError`` when
    the agents' Hessians differ, and ``ValueError`` when some agent's noise
    trace is zero (a noiseless agent would take all the weight).
    """
    r = model.r_u
    h0 = 2.0 * r[0]
    scale = max(1.0, float(np.abs(h0).max()))
    # max_k |H_k - H_0| with H_k = 2 R_u,k
    if 2.0 * _spread_from_first(r) > 1e-12 * scale:
        raise ContractError(
            "optimal weights assume identical Hessians across agents"
        )
    # Tr(H^-1 R_v,k) = sum_ij (H^-1)_ij (R_v,k)_ji from one inverse, each
    # R_v,k = 4 sigma_k^2 R_u,k formed a bounded slice of agents at a time
    hinv = np.linalg.inv(h0)
    four_s2 = 4.0 * model.sigma_n2[:, None, None]
    traces = np.concatenate([
        np.einsum("ij,kji->k", hinv, four_s2[s] * r[s])
        for s in _block_slices(*r.shape[:2])])
    if (traces <= 1e-300).any():
        raise ValueError(
            "optimal weights are degenerate: some agent has zero noise trace"
        )
    inv = 1.0 / traces
    return OptimalWeights(theta=inv / inv.sum(),
                          msd=float(0.5 * mu_max / inv.sum()))


def build_report(model, policy: CombinationPolicy, perron: PerronData,
                 optimal: OptimalWeights | None = None) -> TheoryReport:
    """Assemble every closed-form prediction for one configuration.

    ``optimal``: the weights ``optimal_theta_for_model(model,
    perron.mu_max)`` already returned, reused instead of a second solve.
    Every sum over the agents is an M x M sum formed from ``model.r_u``.
    """
    p = perron.p
    hc = network_hessian(model, p)
    consts = assumption_constants(model, p)  # raises if H_c is singular
    # H_c is symmetric (LinearModel enforces symmetric R_u), so Sigma = I
    # gives X = H_c^-1 / 2 and Sigma = H_c / 2 gives X = I / 4
    x = np.linalg.inv(hc)
    x = 0.25 * (x + x.T)
    # sum_k p_k^2 R_v,k with R_v,k = 4 sigma_k^2 R_u,k: each term formed as
    # (R_u,k 4 sigma_k^2) p_k^2, the terms summed in index order
    r_eff = _agent_sum(model.r_u, 4.0 * model.sigma_n2, p ** 2)
    msd = float(0.5 * perron.mu_max * np.trace(np.linalg.solve(hc, r_eff)))
    weighted = float(0.25 * perron.mu_max * np.trace(r_eff))
    if optimal is None:
        try:
            optimal = optimal_theta_for_model(model, perron.mu_max)
        except (ContractError, ValueError):
            pass
    theta_opt, msd_opt = optimal or (None, None)
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
