"""Closed-form steady-state predictions without running any simulation.

The steady-state weighted error of every agent is, to first order in the
step size,

    mse(Sigma) = mu_max * Tr{ X * sum_k p_k^2 R_v,k },   H^T X + X H = Sigma

where H is the p-weighted sum of the agents' Hessians and R_v,k =
4 sigma_k^2 R_u,k the gradient-noise covariances.  Two independent routes
compute X here, the vectorized linear solve and numerical quadrature of
the integral form; the report's closed forms (X = H^-1 / 2 for Sigma = I,
X = I / 4 for Sigma = H / 2) must agree with them.
"""

import numpy as np

from adaptnet import (LinearModel, assemble, assumption_constants,
                      build_metropolis, build_perron, build_report,
                      convergence_rate, lyapunov_quadrature_oracle,
                      report_to_json, ring, solve_lyapunov_continuous,
                      stable_step_bound)

# --- the two Lyapunov routes agree --------------------------------------
rng = np.random.default_rng(0)
g = rng.standard_normal((4, 4))
h = g @ g.T / 4 + 0.4 * np.eye(4)
sigma = np.eye(4)
x_solve = solve_lyapunov_continuous(h, sigma)
x_quad = lyapunov_quadrature_oracle(h, sigma)
gap = np.linalg.norm(x_solve - x_quad, "fro") / np.linalg.norm(x_solve, "fro")
print(f"linear-solve vs quadrature relative gap: {gap:.2e}")

# --- a 5-agent network with heterogeneous noise ---------------------------
n, m, mu = 5, 4, 1e-3
topo = ring(n)
policy = assemble("atc", build_metropolis(topo), support=topo)
model = LinearModel(
    w_star=rng.standard_normal(m),
    r_u=np.broadcast_to(np.eye(m), (n, m, m)).copy(),
    sigma_n2=np.array([0.002, 0.01, 0.05, 0.02, 0.1]),
)
perron = build_perron(policy, mu)
report = build_report(model, policy, perron)
hc = report.hc
# sum_k p_k^2 R_v,k, the network's effective gradient noise
r_eff = np.einsum("k,kij->ij", perron.p ** 2,
                  4.0 * model.sigma_n2[:, None, None] * model.r_u)

msd = mu * np.trace(solve_lyapunov_continuous(hc, np.eye(m)) @ r_eff)
print(f"\npredicted steady-state MSD: {msd:.3e} "
      f"({10 * np.log10(msd):.2f} dB), identical for every agent")
print("the report's identity-weighting closed form agrees:",
      np.isclose(report.msd_first_order, msd, atol=1e-12))

half = mu * np.trace(solve_lyapunov_continuous(hc, hc / 2.0) @ r_eff)
print(f"H/2-weighted error {half:.3e} vs its closed form "
      f"{report.weighted_mse_hc_half:.3e}")

# --- rate, stability bound, and the bundled report ------------------------
consts = assumption_constants(model, perron.p)
print(f"\nper-step MSE contraction: {convergence_rate(hc, mu):.6f}")
print(f"safe step-size bound:     {stable_step_bound(consts, perron.p):.3e} "
      f"(running at mu = {mu:.0e})")

block = report_to_json(report)
print("\nfull report fields:", sorted(block))
print(f"optimal weights would reach {block['msd_opt_db']:.2f} dB "
      f"vs {block['msd_first_order_db']:.2f} dB with uniform weights")
