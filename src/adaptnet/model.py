"""Streaming-data models for distributed least-mean-squares estimation.

Every agent observes scalar measurements d = u w* + n with its own
regressor covariance R_u,k and noise power sigma_n,k^2; all agents share
the unknown parameter vector w*.  The model exposes everything the
strategy and theory layers need, every form covering the whole network:
samples, stochastic and true gradients, the weighted network Hessian, the
constants appearing in the step-size bound, and the network limit point,
which is w* itself.  The gradient-noise covariance at w*, R_v,k =
4 sigma_n,k^2 R_u,k, is never stacked: ``theory`` forms its sums from
``r_u`` and ``sigma_n2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, ObservabilityError

_SYM_TOL = 1e-12
_SLICE_ENTRIES = 1 << 15  # entries of an (N, M, M) stack per bounded slice


@dataclass(frozen=True)
class AssumptionConstants:
    """Constants of the standard stochastic-gradient regularity conditions.

    lambda_l  strong-monotonicity constant of the weighted gradient sum
    lambda_u  Lipschitz constant of the individual gradients
    alpha     relative gradient-noise coefficient (conservative bound)
    sigma_v2  absolute gradient-noise floor
    """

    lambda_l: float
    lambda_u: float
    alpha: float
    sigma_v2: float

    def __post_init__(self):
        if self.lambda_l > self.lambda_u + 1e-12:
            raise ValueError("lambda_l cannot exceed lambda_u")


def noise_profile(n: int, seed: int, lo: float = 1e-3, hi: float = 1e-1,
                  anchor: bool = True) -> np.ndarray:
    """Heterogeneous noise variances, log-uniform in [lo, hi].

    With ``anchor`` (default) the draw is affinely rescaled in log-space so
    its extremes sit exactly at ``lo`` and ``hi``, pinning the dynamic range
    of the profile (10 log10(hi/lo) dB) independent of the seed.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    if not 0 < lo <= hi < np.inf:  # NaN fails too
        raise ValueError(f"need 0 < lo <= hi, both finite; got lo={lo}, hi={hi}")
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    if anchor and n > 1 and x.max() > x.min():
        x = (x - x.min()) / (x.max() - x.min())
    return 10.0 ** (np.log10(lo) + x * (np.log10(hi) - np.log10(lo)))


def _block_slices(n: int, m: int) -> list[slice]:
    """Slices of the agent axis of an (n, m, m) stack, each holding at most
    ``_SLICE_ENTRIES`` entries (or one block), so that a temporary formed
    slice by slice stays small whatever N is."""
    step = max(1, _SLICE_ENTRIES // (m * m))
    return [slice(i, i + step) for i in range(0, n, step)]


def _agent_sum(r, *weights) -> np.ndarray:
    """sum_k r_k w1_k w2_k ... of an (N, M, M) stack, each term multiplied
    left to right and the terms added agent by agent in index order,
    whatever r's layout: a stack broadcast over the agents (stride 0) gives
    the bits of its contiguous copy.  einsum's default order follows the
    strides; order "F" keeps the agent axis outermost.  With M = 1 the sum
    runs over the agents alone, in an association that depends on the
    operands, so the terms but for the last weight (N floats) are formed
    first, as a stack of stored terms would hold them.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1] == 1:
        for w in weights[:-1]:
            r = r * np.asarray(w)[:, None, None]
        r, weights = np.ascontiguousarray(r), weights[-1:]
    subscripts = ",".join(["kij"] + ["k"] * len(weights)) + "->ij"
    return np.einsum(subscripts, r, *weights, order="F",
                     out=np.empty(r.shape[1:]))


def _covariance_factor(r: np.ndarray) -> np.ndarray:
    """Square root F with F F^T = R; tolerates PSD-singular covariances."""
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(r)
        if vals.min() < -_SYM_TOL * max(1.0, vals.max(), 1.0):
            raise ModelError(
                f"covariance is indefinite (min eigenvalue {vals.min():.3e})"
            )
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass
class LinearModel:
    """Per-agent Gaussian linear regression sharing one parameter vector.

    w_star    (M,) shared parameter
    r_u       (N, M, M) per-agent regressor covariances, symmetric PSD
    sigma_n2  (N,) per-agent noise variances, nonnegative

    Each is stored as a read-only copy, so that no later edit skips the
    checks; a read-only r_u (a block broadcast over the agents) is kept.
    """

    w_star: np.ndarray
    r_u: np.ndarray
    sigma_n2: np.ndarray
    _factors: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.w_star = np.array(self.w_star, dtype=float)
        self.sigma_n2 = np.array(self.sigma_n2, dtype=float)
        r = np.asarray(self.r_u, dtype=float)
        self.r_u = r = r.copy() if r.flags.writeable else r
        for v in (self.w_star, self.r_u, self.sigma_n2):
            v.setflags(write=False)
        if self.w_star.ndim != 1:
            raise ModelError("w_star must be one-dimensional")
        m = self.w_star.size
        if not m:
            raise ModelError("w_star is empty: the dimension M must be at least 1")
        if r.ndim != 3 or r.shape[1:] != (m, m) or not len(r):
            raise ModelError(f"r_u must have shape (N, {m}, {m}) with N >= 1, "
                             f"not {r.shape}")
        n = len(r)
        if self.sigma_n2.shape != (n,):
            raise ModelError(f"sigma_n2 must have one entry per agent ({n}), "
                             f"not shape {self.sigma_n2.shape}")
        # per-block extremes: NaN and inf reach them, and max(hi, -lo) is
        # abs(R).max() exactly, with no (N, M, M) temporary
        hi, lo = r.max(axis=(1, 2)), r.min(axis=(1, 2))
        for name, values in (("w_star", self.w_star), ("r_u", (hi, lo)),
                             ("sigma_n2", self.sigma_n2)):
            if not np.isfinite(values).all():
                raise ModelError(f"{name} has non-finite entries")
        if (self.sigma_n2 < 0).any():
            raise ModelError("noise variances must be nonnegative")
        tol = _SYM_TOL * np.maximum(np.maximum(hi, -lo), 1.0)
        eye, identity = np.eye(m), True
        for s in _block_slices(n, m):
            d = r[s] - r[s].transpose(0, 2, 1)
            asym = np.abs(d, out=d).max(axis=(1, 2)) > tol[s]
            if asym.any():
                k = s.start + int(np.argmax(asym))
                raise ModelError(f"r_u[{k}] is not symmetric")
            identity = identity and bool((r[s] == eye).all())
        if identity:  # every factor would be I: regressors_from_raw skips it
            self._factors = None
            return
        try:
            self._factors = np.linalg.cholesky(r)
        except np.linalg.LinAlgError:  # a singular or indefinite block
            self._factors = np.stack([_covariance_factor(b) for b in r])

    # --- basic geometry -------------------------------------------------
    @property
    def n_agents(self) -> int:
        return self.r_u.shape[0]

    @property
    def m(self) -> int:
        return self.w_star.size

    @property
    def stream_width(self) -> int:
        """Standard normals consumed per network sample: N*M + N."""
        return self.n_agents * (self.m + 1)

    # --- sampling --------------------------------------------------------
    def regressors_from_raw(self, raw: np.ndarray):
        """Map raw standard normals (*steps, T, N*M + N) to the regressors
        u (*steps, N, M, T) and the scaled measurement noise v
        (*steps, N, T): any leading batch axes stay first, the last one
        trails the agent axes.  One sample (N*M + N,) maps to u (N, M) and
        v (N,).  The measurement is d = u w* + v (``sample_network``);
        ``sim.run`` steps the deviation from w*, whose gradients take v in
        place of d, and never forms d.

        Per network sample the stream is laid out regressors-first:
        N*M values for the regressors, then N for the measurement noise.
        Each step's u[s] and v[s] is one contiguous block, so a batch of
        steps (``sim.run``'s rows of T trials) is transformed in one call
        and stepped through slice by slice.
        """
        n, m = self.n_agents, self.m
        single = raw.ndim == 1
        # gather first, in the block's memory order (a batch of steps is one
        # run of rows per trial): transposing straight out of a strided
        # block (one trial's rows far apart) is several times slower
        rows = np.copy(raw[None] if single else raw, order="K")
        stream = np.swapaxes(rows, -1, -2).copy()  # (*steps, N*M + N, T)
        u = stream[..., : n * m, :].reshape(stream.shape[:-2] + (n, m, -1))
        if self._factors is not None:
            u = np.einsum("kij,...kjt->...kit", self._factors, u)
        v = stream[..., n * m:, :]
        v *= np.sqrt(self.sigma_n2)[:, None]
        return (u[..., 0], v[..., 0]) if single else (u, v)

    def sample_network(self, rng, size: tuple = ()):
        """Fresh samples for every agent, laid out as ``regressors_from_raw``
        lays them out, with the measurement d = u w* + v in place of v:
        u (N, M) and d (N,) for size (), u (N, M, T) and d (N, T) for
        size (T,)."""
        size = tuple(size)
        raw = rng.standard_normal(size + (self.stream_width,))
        # one sample goes through as a single trial, (1, N*M + N), so that
        # d is formed on the same (N, M, 1) arrays as a batch's
        u, v = self.regressors_from_raw(raw if size else raw[None])
        d = np.einsum("...kmt,m->...kt", u, self.w_star)
        d += v
        return (u, d) if size else (u[..., 0], d[..., 0])

    # --- gradients -------------------------------------------------------
    def stochastic_gradient_network(self, x, u, d, out=None,
                                    scale=1.0) -> np.ndarray:
        """Per-agent instantaneous gradients -2 u_k (d_k - u_k^T x_k),
        agent axis first, each multiplied by ``scale[k]`` (a scalar scales
        all).

        ``u`` is (N, M, *batch) and ``d`` (N, *batch); ``x`` holds the
        evaluation points, broadcastable to u's shape, so a shared iterate
        (M, *batch) is passed as ``x[None]``.  The scale is folded into the
        (N, *batch) residual, -2 scale_k r_k, before the one multiplication
        by u, and not applied to the gradients after it: the two round
        differently.  Writes into ``out`` when given.
        """
        if np.ndim(x) < u.ndim:  # einsum only stretches axes of length 1
            x = np.broadcast_to(x, u.shape)
        resid = d - np.einsum("km...,km...->k...", u, x)
        # doubling is exact, so -2 scale_k is formed first; the transposed
        # view puts the agent axis last, where an (N,) factor broadcasts
        np.multiply(resid.T, np.multiply(scale, -2.0), out=resid.T)
        return np.multiply(u, resid[:, None], out=out)

    def stochastic_gradient_sum(self, x, u, d, weights) -> np.ndarray:
        """sum_k weights_k shat_k(x) at a shared iterate ``x`` (M, *batch):
        one contraction of ``u`` (N, M, *batch) with the weighted residual
        -2 weights_k (d_k - u_k^T x), so no per-agent gradient is stored:
        its terms are those of ``stochastic_gradient_network`` with
        ``scale=weights``, added over the agents in einsum's order."""
        resid = d - np.einsum("km...,m...->k...", u, x)
        np.multiply(resid.T, np.multiply(weights, -2.0), out=resid.T)
        return np.einsum("km...,k...->m...", u, resid)

    def true_gradient_all(self, w) -> np.ndarray:
        """Stacked exact gradients 2 R_u,k (w - w*), shape (N, M)."""
        delta = np.asarray(w, dtype=float) - self.w_star
        return 2.0 * np.einsum("kij,j->ki", self.r_u, delta)


def network_hessian(model, p) -> np.ndarray:
    """Weighted gradient-Jacobian sum sum_k p_k H_k at the limit point,
    2 sum_k p_k R_u,k: scaling by 2 is exact, so this is the sum of the
    stacked 2 R_u,k bit for bit, with no (N, M, M) temporary."""
    return 2.0 * _agent_sum(model.r_u, np.asarray(p, dtype=float))


def _observable_hessian(model, p) -> tuple[np.ndarray, float]:
    """H_c and the least eigenvalue of its symmetric part; raises
    ``ObservabilityError`` when that eigenvalue is not positive."""
    hc = network_hessian(model, p)
    lam_l = float(np.linalg.eigvalsh(0.5 * (hc + hc.T)).min())
    if lam_l <= 1e-10:
        raise ObservabilityError(
            f"weighted Hessian sum is singular (min eigenvalue {lam_l:.3e}); "
            "the model is not jointly observable",
            extreme=lam_l,
        )
    return hc, lam_l


def assumption_constants(model, p) -> AssumptionConstants:
    """Regularity constants for the Gaussian linear model.

    lambda_u: 2 max_k lambda_max(R_u,k).
    lambda_l: minimum eigenvalue of the symmetrized network Hessian.
    alpha:    4 max_k (Tr(R)^2 + Tr(R^2)), the Gaussian fourth-moment bound
              on E||R - u^T u||^2 (conservative; feeds the step-size bound).
    sigma_v2: 4 max_k sigma_n,k^2 Tr(R_u,k) = max_k E||2 u^T n||^2.
    """
    r = model.r_u
    # a block broadcast over the agents (stride 0) is decomposed once
    lam_max = float(np.linalg.eigvalsh(r[0] if r.strides[0] == 0 else r).max())
    _, lam_l = _observable_hessian(model, p)
    traces = np.einsum("kii->k", r)
    sq_traces = np.einsum("kij,kji->k", r, r)
    alpha = 4.0 * float((traces ** 2 + sq_traces).max())
    sigma_v2 = 4.0 * float((model.sigma_n2 * traces).max())
    return AssumptionConstants(lambda_l=lam_l, lambda_u=2.0 * lam_max,
                               alpha=alpha, sigma_v2=sigma_v2)


def limit_point(model, p) -> np.ndarray:
    """The network limit point, the root of sum_k p_k s_k(w) = 0.

    Every agent's gradient 2 R_u,k (w - w*) vanishes at the shared w*, so
    w* is a root for every p, and the only one when H_c = sum_k p_k 2 R_u,k
    is positive definite; ``ObservabilityError`` is raised when it is not.
    """
    _observable_hessian(model, p)
    return model.w_star.copy()
