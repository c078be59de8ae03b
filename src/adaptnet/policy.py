"""Combination policies: left-stochastic weight matrices over a topology.

A policy is the triple (A1, A0, A2) of N x N left-stochastic matrices
applied around the gradient step.  The presets combine a single matrix A:

    consensus  -> (I, A, I)
    atc        -> (I, I, A)      adapt-then-combine
    cta        -> (A, I, I)      combine-then-adapt

All three give the same product A1 A0 A2 = A, whose Perron eigenvector
determines the network's limit point and steady-state error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConnectivityError, NumericalError, StructureError
from .numerics import _square
from .topology import Topology, _bfs_levels, is_connected

_COL_TOL = 1e-12
_PERRON_RESIDUAL = 1e-12

PRESETS = ("consensus", "atc", "cta")


@dataclass
class CombinationPolicy:
    """Immutable triple of left-stochastic matrices plus their product and
    its Perron vector ``theta``, solved once here; a non-primitive product
    raises ``StructureError``."""

    kind: str
    a1: np.ndarray
    a0: np.ndarray
    a2: np.ndarray
    a: np.ndarray
    support: Topology
    theta: np.ndarray = field(init=False)

    def __post_init__(self):
        self.theta = perron_vector(self.a)
        for m in (self.a1, self.a0, self.a2, self.a, self.theta):
            m.setflags(write=False)


@dataclass(frozen=True)
class PerronData:
    """Perron eigenvector of A and the step-size-weighted p vector.

    p_k = (mu_k / mu_max) * pi_k with pi = A2 theta.
    """

    theta: np.ndarray
    pi: np.ndarray
    p: np.ndarray
    mus: np.ndarray
    mu_max: float


def is_primitive(a: np.ndarray) -> bool:
    """True iff some power of the nonnegative square matrix A is entrywise positive.

    Exact test on the graph with an edge i -> j where a_ij > 0: it must be
    strongly connected (breadth-first search from node 0 reaches every
    node along the edges and against them) and aperiodic (the gcd over
    edges of level(i) + 1 - level(j), with the forward levels, is 1).
    O(N^2) to find the edges, then O(edges).  ``ValueError`` unless A is
    square, non-empty, finite and nonnegative.
    """
    a = _square(a)
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    i, j = np.nonzero(a > 0)
    level = _bfs_levels(len(a), i, j)
    if level.min() < 0 or _bfs_levels(len(a), j, i).min() < 0:
        return False
    return bool(np.gcd.reduce(level[i] + 1 - level[j]) == 1)


def perron_vector(a: np.ndarray) -> np.ndarray:
    """Positive unit-sum right eigenvector of a primitive matrix at eigenvalue 1.

    One linear solve of (A - I) theta = 0 with its last row replaced by
    1^T theta = 1, nonsingular for primitive left-stochastic A (the rows of
    A - I sum to zero).  Raises ``StructureError`` for non-primitive input
    and ``NumericalError`` unless ||A theta - theta||_inf <= 1e-12, theta > 0.
    """
    a = np.asarray(a, dtype=float)
    if not is_primitive(a):
        raise StructureError("matrix is not primitive")
    n = a.shape[0]
    system = a.copy()
    system.flat[:: n + 1] -= 1.0  # A - I
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        theta = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Perron system is singular: {exc}")
    residual = np.abs(a @ theta - theta).max()
    if not (residual <= _PERRON_RESIDUAL and (theta > 0).all()):
        raise NumericalError(f"Perron solve failed its check (residual "
                             f"{residual:.3e}, min entry {theta.min():.3e})")
    return theta


def second_eigenvalue_magnitude(a: np.ndarray) -> float:
    """|lambda_2(A)|: second largest eigenvalue magnitude; 0 for 1x1 input."""
    a = _square(a)
    if a.shape[0] == 1:
        return 0.0
    mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    return float(mags[1])


def _step_sizes(mus, n: int) -> np.ndarray:
    """An (n,) copy of a step-size profile given as one scalar or one step
    size per agent; ``ValueError`` unless every entry is finite and
    nonnegative and one is positive."""
    mus = np.asarray(mus, dtype=float)
    if mus.shape not in ((), (n,)):
        raise ValueError(f"got {mus.size} step sizes (shape {mus.shape}) for "
                         f"{n} agents: give one, or one per agent")
    mus = np.broadcast_to(mus, (n,)).copy()
    if not np.isfinite(mus).all():
        raise ValueError("step sizes must be finite")
    if (mus < 0).any():
        raise ValueError("step sizes must be nonnegative")
    if not mus.max() > 0.0:
        raise ValueError("at least one step size must be positive")
    return mus


def build_perron(policy: CombinationPolicy, mus) -> PerronData:
    """Perron data for an assembled policy and a step-size profile (one
    per agent, or a scalar for all), read-only as the policy is: the
    step-size-weighted network weights p_k = (mu_k/mu_max) (A2 theta)_k."""
    theta = policy.theta
    mus = _step_sizes(mus, theta.size)
    mu_max = float(mus.max())
    pi = policy.a2 @ theta
    p = (mus / mu_max) * pi
    for v in (mus, pi, p):
        v.setflags(write=False)
    return PerronData(theta=theta, pi=pi, p=p, mus=mus, mu_max=mu_max)


def build_hastings(topology: Topology, target) -> np.ndarray:
    """Left-stochastic matrix on the graph with prescribed Perron vector.

    Off-diagonal weights for l in N_k, l != k:

        a_lk = target_k^-1 / max(|N_k| target_k^-1, |N_l| target_l^-1)

    and the diagonal takes the column remainder.  The result satisfies
    detailed balance target_k a_lk = target_l a_kl, hence A target = target.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (topology.n,):
        raise ValueError("target length must equal the agent count")
    if not (np.isfinite(target) & (target > 0)).all():
        raise ValueError("target entries must be positive and finite")
    if not is_connected(topology):
        raise ConnectivityError("Hastings weights need a connected topology")
    # built as at[k, l] = a_lk so each diagonal remainder sums one contiguous
    # row, as a 1-D column sum does; the target ratio keeps Metropolis exact
    at = topology.adjacency()
    deg = at.sum(axis=0)
    np.fill_diagonal(at, 0.0)
    k, l = np.nonzero(at)
    at[k, l] = 1.0 / np.maximum(deg[k], deg[l] * (target[k] / target[l]))
    np.fill_diagonal(at, 1.0 - at.sum(axis=1))
    return np.ascontiguousarray(at.T)


def build_metropolis(topology: Topology) -> np.ndarray:
    """Uniform-target specialization: a_lk = 1 / max(|N_k|, |N_l|) off-diagonal."""
    return build_hastings(topology, np.full(topology.n, 1.0 / topology.n))


def build_uniform_averaging(topology: Topology) -> np.ndarray:
    """a_lk = 1/|N_k| for l in N_k: left-stochastic, generally not doubly."""
    adj = topology.adjacency()
    return adj * (1.0 / adj.sum(axis=0))


def _validated_factor(m: np.ndarray, topology: Topology, name: str) -> np.ndarray:
    m = np.array(m, dtype=float)  # a copy, clipped and renormalized in place
    n = topology.n
    if m.shape != (n, n):
        raise StructureError(f"{name} must be {n}x{n}")
    if (m < -_COL_TOL).any():
        raise StructureError(f"{name} has negative entries")
    np.clip(m, 0.0, None, out=m)
    cols = m.sum(axis=0)
    if not np.abs(cols - 1.0).max() <= _COL_TOL:  # NaN fails too
        raise StructureError(
            f"{name} is not left-stochastic (max column-sum error "
            f"{np.abs(cols - 1.0).max():.3e})"
        )
    outside = np.ones((n, n), dtype=bool)
    outside[topology._pairs] = False
    if (m[outside] > 0.0).any():
        raise StructureError(f"{name} assigns weight outside neighborhoods")
    m /= cols  # exact column renormalization
    return m


def assemble(kind: str, a: np.ndarray | None = None, *,
             support: Topology,
             a1: np.ndarray | None = None,
             a0: np.ndarray | None = None,
             a2: np.ndarray | None = None) -> CombinationPolicy:
    """Build a policy from a preset (consensus/atc/cta) or a custom triple.

    Presets place the single matrix ``a`` per the table in the module
    docstring.  The product A1 A0 A2 must be primitive on the support;
    the policy's Perron solve checks it.
    """
    eye = np.eye(support.n)
    if kind in PRESETS:
        if a is None:
            raise ValueError(f"preset {kind!r} needs the combination matrix a")
        a = _validated_factor(a, support, "a")  # I I A = I A I = A I I = A exactly
        triple = {
            "consensus": (eye, a, eye),
            "atc": (eye, eye, a),
            "cta": (a, eye, eye),
        }[kind]
    elif kind == "custom":
        if a1 is None or a0 is None or a2 is None:
            raise ValueError("custom policies need all of a1, a0, a2")
        triple = tuple(
            _validated_factor(m, support, name)
            for m, name in ((a1, "a1"), (a0, "a0"), (a2, "a2"))
        )
        a = triple[0] @ triple[1] @ triple[2]
    else:
        raise ValueError(f"unknown strategy kind {kind!r}")
    return CombinationPolicy(kind, *triple, a=a, support=support)


def policy_to_json(policy: CombinationPolicy, perron: PerronData) -> dict:
    """JSON form {"kind", "A" (row-major), "theta", "p"}."""
    return {
        "kind": policy.kind,
        "A": policy.a.tolist(),
        "theta": perron.theta.tolist(),
        "p": perron.p.tolist(),
    }
