"""Independent reference values for the benchmark's output checks.

Nothing here imports the package.  ``simulate`` re-implements the Monte
Carlo recursions from their documented contract: per-trial streams seeded
by splitmix64(seed ^ trial * golden), each network sample laid out as the
N*M regressor normals followed by the N noise normals, regressors
u_k = F_k z_k with F_k F_k^T = R_k (Cholesky, or the eigen-factor when R_k
is singular), gradients at the first combine.  It draws its streams in
blocks of a different size than the package and sums in a different
order, so agreement is up to float reordering only.  ``theory_scalars``
gives the closed-form report for the two weight rules the workloads use
(optimal Hastings target, Metropolis) through an eigendecomposition instead
of the package's Kronecker Lyapunov solve.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 100  # deliberately not the package's block size


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(splitmix64((seed ^ (trial * _GOLDEN)) & _MASK))


def seeded_unit(seed: int, m: int) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(m)
    return v / np.linalg.norm(v)


def log_uniform(n: int, seed: int, lo=1e-3, hi=1e-1, anchor=True) -> np.ndarray:
    x = np.random.default_rng(seed).random(n)
    if anchor and n > 1 and x.max() > x.min():
        x = (x - x.min()) / (x.max() - x.min())
    return 10.0 ** (np.log10(lo) + x * (np.log10(hi) - np.log10(lo)))


def model_from_config(cfg: dict, n: int):
    """(w*, R (N, M, M), sigma^2 (N,)) from the config schema."""
    spec = cfg["model"]
    m = int(spec["m"])
    w_star = seeded_unit(int(spec["w_star"]["seed"]), m)
    r = spec.get("r_u", "identity")
    r_u = np.asarray(r, dtype=float) if not isinstance(r, str) else np.eye(m)
    r_u = np.broadcast_to(r_u, (n, m, m)).copy()
    s = spec["sigma_n2"]
    sigma2 = log_uniform(n, int(s["seed"]), float(s.get("lo", 1e-3)),
                         float(s.get("hi", 1e-1)), bool(s.get("anchor", True))) \
        if isinstance(s, dict) else np.asarray(s, dtype=float)
    return w_star, r_u, sigma2


def _factor(r: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(r)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def factors(r_u: np.ndarray):
    f = np.stack([_factor(r) for r in r_u])
    return None if np.array_equal(f, np.broadcast_to(np.eye(r_u.shape[1]), f.shape)) else f


def combiners(kind: str, a: np.ndarray):
    """(A1, A0, A2) of a preset, None standing for the identity."""
    return {"atc": (None, None, a), "cta": (a, None, None)}[kind]


def _combine(a, w):
    # phi_k = sum_l a_lk w_l over the agent axis of (T, N, M)
    return w if a is None else np.einsum("lk,tlm->tkm", a, w)


def simulate(*, kind, a, theta, w_star, r_u, sigma2, mu, seed, trials, iters,
             window=0.1, trial_ids=None) -> dict:
    """Paired-stream Monte Carlo of the distributed, centralized and
    reference recursions with a uniform step size ``mu``.

    ``trial_ids`` (default ``range(trials)``) sets the order in which trials
    are stacked, hence the order of every sum over trials.
    """
    a1, a0, a2 = combiners(kind, np.asarray(a, dtype=float))
    theta = np.asarray(theta, dtype=float)
    p = theta if a2 is None else a2 @ theta
    n, m = r_u.shape[0], r_u.shape[1]
    f = factors(r_u)
    scale = np.sqrt(sigma2)
    ids = list(range(trials)) if trial_ids is None else list(trial_ids)
    gens = [trial_stream(seed, t) for t in ids]
    t_count = len(ids)

    w = np.zeros((t_count, n, m))
    wc = np.zeros((t_count, m))
    msd = np.empty((iters, n))
    cent = np.empty(iters)
    off = np.empty((iters, n))
    first = iters - math.ceil(window * iters)
    acc = np.zeros((t_count, n))
    acc_c = np.zeros(t_count)
    for base in range(0, iters, _BLOCK):
        blk = min(_BLOCK, iters - base)
        raw = np.stack([g.standard_normal((blk, n * (m + 1))) for g in gens])
        for j in range(blk):
            i = base + j
            z = raw[:, j, :n * m].reshape(t_count, n, m)
            u = z if f is None else np.einsum("kab,tkb->tka", f, z)
            d = (u * w_star).sum(-1) + raw[:, j, n * m:] * scale
            phi = _combine(a1, w)
            e = d - (u * phi).sum(-1)
            w = _combine(a2, _combine(a0, phi) + 2.0 * mu * u * e[..., None])
            ec = d - (u * wc[:, None, :]).sum(-1)
            wc = wc + 2.0 * mu * np.einsum("k,tka->ta", p, u * ec[..., None])
            sq = ((w - w_star) ** 2).sum(-1)
            sq_c = ((wc - w_star) ** 2).sum(-1)
            msd[i] = sq.mean(0)
            cent[i] = sq_c.mean()
            dev = w - np.einsum("k,tka->ta", theta, w)[:, None, :]
            off[i] = (dev ** 2).sum(-1).mean(0)
            if i >= first:
                acc += sq
                acc_c += sq_c
    per_trial = acc / (iters - first)
    per_trial_c = acc_c / (iters - first)

    ref = np.zeros(m)
    ref_err = np.empty(iters)
    for i in range(iters):
        ref = ref - mu * 2.0 * np.einsum("k,kab,b->a", p, r_u, ref - w_star)
        ref_err[i] = ((w_star - ref) ** 2).sum()

    def se(v):
        return v.std(axis=0, ddof=1) / math.sqrt(v.shape[0])

    return {
        "steady_msd": per_trial.mean(0), "stderr": se(per_trial),
        "centralized": np.array([per_trial_c.mean(), se(per_trial_c)]),
        "msd": msd, "centralized_msd": cent, "reference_err": ref_err,
        "centroid_offset": off,
    }


def _lyapunov_sym(h: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """X with H X + X H = Sigma for symmetric positive-definite H."""
    lam, v = np.linalg.eigh(h)
    return v @ ((v.T @ sigma @ v) / (lam[:, None] + lam[None, :])) @ v.T


def theory_scalars(*, r_u, sigma2, mu, weights) -> dict:
    """Closed-form report for uniform step ``mu``.

    ``weights`` is "hastings_optimal" (Perron vector proportional to
    1 / Tr(H^-1 R_v,k)) or "metropolis" (symmetric, uniform Perron vector);
    every preset has p = theta.
    """
    n, m = r_u.shape[0], r_u.shape[1]
    rv = 4.0 * sigma2[:, None, None] * r_u
    hk = 2.0 * r_u
    shared = all(np.abs(hk[k] - hk[0]).max() <= 1e-12 * max(1.0, np.abs(hk[0]).max())
                 for k in range(n))
    opt_traces = (np.array([np.trace(np.linalg.solve(hk[0], rv[k])) for k in range(n)])
                  if shared else None)
    if weights == "hastings_optimal":
        theta = (1.0 / opt_traces) / (1.0 / opt_traces).sum()
    elif weights == "metropolis":
        theta = np.full(n, 1.0 / n)
    else:
        raise ValueError(weights)
    hc = np.einsum("k,kab->ab", theta, hk)
    r_eff = np.einsum("k,kab->ab", theta ** 2, rv)
    lam = np.linalg.eigvalsh(hc)
    alpha = 4.0 * max(np.trace(r) ** 2 + np.trace(r @ r) for r in r_u)
    lam_u = 2.0 * max(np.linalg.eigvalsh(r).max() for r in r_u)
    return {
        "theta": theta,
        "msd_first_order": float(mu * np.trace(_lyapunov_sym(hc, np.eye(m)) @ r_eff)),
        "weighted_mse_hc_half": float(mu * np.trace(_lyapunov_sym(hc, 0.5 * hc) @ r_eff)),
        "rate": float(np.max(np.abs(1.0 - mu * lam))) ** 2,
        "mu_bound": float(lam.min() / (theta.sum() ** 2 * (lam_u ** 2 / 2.0 + 2.0 * alpha))),
        "mu_max": mu,
        "msd_opt": None if opt_traces is None else float(0.5 * mu / (1.0 / opt_traces).sum()),
    }


def fitted_rate(series, start: int, end: int) -> float:
    """Per-step ratio of a log-linear least-squares fit on [start, end)."""
    x = np.arange(start, end, dtype=float)
    y = np.log(np.asarray(series[start:end], dtype=float))
    xm, ym = x.mean(), y.mean()
    return math.exp(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
