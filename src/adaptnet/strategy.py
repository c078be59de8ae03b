"""One-step evolution engines.

Three recursions share the per-agent sample stream:

  distributed   phi_k = sum_l a1_lk w_l
                psi_k = sum_l a0_lk phi_l - mu_k shat_k(phi_k)
                w_k+  = sum_l a2_lk psi_l
  centralized   w+ = w - mu_max sum_k p_k shat_k(w)
  reference     w+ = w - mu_max sum_k p_k s_k(w)      (deterministic)

The stochastic gradient is always evaluated at the first-stage combine
phi_k.  Step functions take and return plain iterate arrays and are pure
given (w, rng); one network sample (every agent, agents in index order)
is consumed per call.  The distributed and centralized steps are the
kernels ``distributed_update`` and ``centralized_update``, which
``sim.run`` calls too.  The kernels take the agent axis first and any
trial axes trailing: the step functions pass iterates (N, M) and (M,),
``sim.run`` passes (N, M, T) and (M, T), so every combine is one
(N, N) @ (N, M*T) matrix product.  ``sim.run`` steps the deviation
w - w* on the noise v in place of d = u w* + v, which gives the same
recursion: the combiners are left-stochastic, and the gradient reads
only the residual d - u w.
The reference recursion is affine with the symmetric Jacobian H_c and
contracts towards w*, the network limit point, so
``reference_error_curve`` gives its whole error curve in closed form;
``step_reference`` is the one-step form it is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .model import network_hessian
from .policy import CombinationPolicy, PerronData


def transposed_combiners(policy: CombinationPolicy):
    """(c1, c0, c2): transposed factors, or None where a factor is identity.

    With a transposed factor C, the combine step for stacked rows W is the
    plain matrix product C @ W.
    """
    eye = np.eye(policy.a.shape[0])
    return tuple(
        None if np.array_equal(mat, eye) else np.ascontiguousarray(mat.T)
        for mat in (policy.a1, policy.a0, policy.a2)
    )


def _combine(c, x, out):
    """Combine step C @ X for stacked rows X (N, ...): one GEMM over the
    (N, prod(...)) view, written into ``out``."""
    flat = x.reshape(x.shape[0], -1)
    np.matmul(c, flat, out=out.reshape(flat.shape))
    return out


def distributed_update(w, combiners, mus, model, u, d, out=None, work=None):
    """Shared kernel for one distributed step; agent axis first, trial
    axes trailing.

    ``w`` has shape (N, M, *trials); ``u`` (N, M, *trials) and ``d``
    (N, *trials) are matching fresh samples.  The result goes to ``out``
    and the scaled gradient mu_k shat_k(phi_k) to ``work``, buffers shaped
    like ``w`` that must not overlap it; each is allocated when not given.
    The step size is folded into the gradient's residual (``scale``), not
    applied to the gradient in a pass of its own.
    """
    c1, c0, c2 = combiners
    out = np.empty_like(w) if out is None else out
    phi = w if c1 is None else _combine(c1, w, out)
    step = model.stochastic_gradient_network(phi, u, d, out=work, scale=mus)
    psi = phi if c0 is None else _combine(c0, phi, out)
    if c2 is None:
        return np.subtract(psi, step, out=out)
    return _combine(c2, np.subtract(psi, step, out=step), out)


def centralized_update(w, p, mu_max, model, u, d, out=None):
    """Shared kernel for one centralized step; trial axes trailing.

    ``w`` has shape (M, *trials); ``u``/``d`` are the matching network
    samples (N, M, *trials) and (N, *trials); ``out`` (shaped like ``w``)
    is an optional buffer.  The step sum_k mu_max p_k shat_k(w) is one
    contraction of u with the weighted residual
    (``stochastic_gradient_sum``): no per-agent gradient is stored.
    """
    step = model.stochastic_gradient_sum(w, u, d, np.multiply(mu_max, p))
    return np.subtract(w, step, out=out)


def step_distributed(w, policy: CombinationPolicy, perron: PerronData,
                     model, rng) -> np.ndarray:
    """Advance every agent's iterate, rows of ``w`` (N, M), by one
    combine/adapt/combine round."""
    w = np.asarray(w, dtype=float)
    if w.shape != (model.n_agents, model.m):
        raise ContractError(
            f"iterate shape {w.shape} does not match the model "
            f"({model.n_agents} agents, dimension {model.m})"
        )
    u, d = model.sample_network(rng)
    return distributed_update(w, transposed_combiners(policy), perron.mus,
                              model, u, d)


def step_centralized(w, perron: PerronData, model, rng) -> np.ndarray:
    """One step of the fusion-center recursion on all agents' fresh data."""
    w = np.asarray(w, dtype=float)
    if w.shape != (model.m,):
        raise ContractError(
            f"iterate shape {w.shape} does not match dimension {model.m}")
    u, d = model.sample_network(rng)
    return centralized_update(w, perron.p, perron.mu_max, model, u, d)


def step_reference(w, perron: PerronData, model) -> np.ndarray:
    """One deterministic step along the weighted true gradients."""
    w = np.asarray(w, dtype=float)
    grad = np.einsum("k,km->m", perron.p, model.true_gradient_all(w))
    return w - perron.mu_max * grad


def reference_error_curve(w0, perron: PerronData, model,
                          steps: int) -> np.ndarray:
    """Squared distances ||w* - w_i||^2, i = 1..steps, of the reference
    recursion started from ``w0`` (M,), in closed form.

    The recursion contracts towards the model's w*, the network limit
    point, by the symmetric H_c = sum_k p_k 2 R_u,k:
    w_i - w* = (I - mu_max H_c)^i (w_0 - w*).  With H_c = V diag(lam) V^T,
    rho = 1 - mu_max lam and c = V^T (w_0 - w*), the distance is
    sum_j (rho_j^i c_j)^2.  Past the stability bound the powers overflow
    to inf, without a warning.
    """
    lam, v = np.linalg.eigh(network_hessian(model, perron.p))
    rho = 1.0 - perron.mu_max * lam
    c = v.T @ (np.asarray(w0, dtype=float) - model.w_star)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = rho ** np.arange(1, steps + 1)[:, None] * c
        return np.einsum("ij,ij->i", gap, gap)
