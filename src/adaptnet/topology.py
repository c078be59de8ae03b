"""Communication graphs for multi-agent systems.

A topology is an undirected connected-or-not graph over ``n`` agents in
which every agent is its own neighbor (self-loops are stored explicitly
so that neighborhood sizes match the degree counts used by the
Hastings weight construction).  Agent indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConnectivityError

_MAX_RETRIES = 100


@dataclass(frozen=True)
class Topology:
    """Undirected graph over ``n`` agents, self-loops included.

    ``neighbors[k]`` is the sorted tuple of agents that agent ``k`` can
    hear from, always containing ``k`` itself.  ``_pairs`` holds the
    read-only index arrays (l, k) over every l in N_k, agent-major in
    neighbor-list order, built once on construction; it takes no part in
    equality or hashing.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    _pairs: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"agent count must be >= 1, got {self.n}")
        if len(self.neighbors) != self.n:
            raise ValueError("neighbor list length does not match agent count")
        object.__setattr__(
            self, "neighbors", tuple(tuple(sorted(set(s))) for s in self.neighbors)
        )
        hear = np.fromiter(chain.from_iterable(self.neighbors), dtype=np.intp)
        agent = np.repeat(np.arange(self.n), [len(h) for h in self.neighbors])
        hear.setflags(write=False)
        agent.setflags(write=False)
        object.__setattr__(self, "_pairs", (hear, agent))
        out = (hear < 0) | (hear >= self.n)
        if out.any():
            raise ValueError(f"agent index {hear[out][0]} out of range [0, {self.n})")
        code, back = agent * self.n + hear, hear * self.n + agent
        if not np.array_equal(code, np.sort(back)):  # code: agent-major, sorted
            i = np.argmin(np.isin(back, code))  # first l in N_k, k not in N_l
            raise ValueError(f"edge ({hear[i]}, {agent[i]}) is not symmetric")
        if np.count_nonzero(hear == agent) < self.n:  # at most one per agent
            k = np.setdiff1d(np.arange(self.n), agent[hear == agent])[0]
            raise ValueError(f"agent {k} is missing its self-loop")

    def degree(self, k: int) -> int:
        """Neighborhood size |N_k|, counting the agent itself."""
        return len(self.neighbors[k])

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges (i < j), self-loops excluded."""
        hear, agent = self._pairs
        return [(k, l) for k, l in zip(agent.tolist(), hear.tolist()) if l > k]

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix including the diagonal self-loops."""
        a = np.zeros((self.n, self.n))
        a[self._pairs] = 1.0
        return a


def from_edges(n: int, edges) -> Topology:
    """Build a topology from undirected edges, a sequence of (i, j) pairs or
    an (E, 2) integer array; self-loops are added."""
    if n < 1:
        raise ValueError(f"agent count must be >= 1, got {n}")
    ends = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.intp)
    if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
        raise ValueError("edges must be pairs of agent indices")
    out = ((ends < 0) | (ends >= n)).any(axis=1)
    if out.any():
        raise ValueError(f"edge {tuple(ends[out][0].tolist())} out of range for n={n}")
    # the codes k n + l of every l in N_k, sorted and without repeats
    code = np.sort(np.concatenate([ends @ [n, 1], ends @ [1, n], np.arange(n) * (n + 1)]))
    code = code[np.diff(code, prepend=-1) > 0]
    cuts = [0] + np.cumsum(np.bincount(code // n, minlength=n)).tolist()
    hear = (code % n).tolist()
    return Topology(n, tuple(tuple(hear[a:b]) for a, b in zip(cuts, cuts[1:])))


def ring(n: int) -> Topology:
    """Cycle graph: each agent hears its two cyclic neighbors and itself."""
    return from_edges(n, [(k, (k + 1) % n) for k in range(n)] if n > 1 else [])


def random_geometric(n: int, radius: float, seed: int) -> Topology:
    """Random geometric graph on the unit square.

    Agents are placed uniformly at random by ``numpy.random.default_rng(seed)``
    (one ``rng.random((n, 2))`` call per attempt) and joined whenever their
    Euclidean distance is at most ``radius``.  Disconnected placements are
    re-drawn from the same generator, up to 100 (``_MAX_RETRIES``) attempts.
    """
    if n < 1:
        raise ValueError(f"agent count must be >= 1, got {n}")
    if not 0.0 < radius < np.inf:  # NaN fails too
        raise ValueError(f"radius must be positive and finite, got {radius}")
    # radius >= sqrt(2) spans the unit square and yields a complete graph
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        pos = rng.random((n, 2))
        # |pos_i - pos_j| rounded as np.linalg.norm(..., axis=-1) rounds it
        dx, dy = (pos[:, None, c] - pos[None, :, c] for c in (0, 1))
        dx *= dx
        dy *= dy
        dx += dy
        dist = np.sqrt(dx, out=dx)
        topo = from_edges(n, np.argwhere(np.triu(dist <= radius, 1)))
        if is_connected(topo):
            return topo
    raise ConnectivityError(
        f"no connected placement found for n={n}, radius={radius} "
        f"after {_MAX_RETRIES} attempts"
    )


def _bfs_levels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Breadth-first levels from node 0 along the edges src[e] -> dst[e] of a
    graph on n nodes, -1 where unreached.  Sorted by source once, the edges
    are each read once, when their source joins the frontier.  Each new
    frontier is the newly reached nodes, each kept once: the one position
    whose write to ``slot`` landed, whichever a repeated index keeps."""
    count = np.bincount(src, minlength=n)
    end = np.cumsum(count)  # one past each node's last edge once sorted
    dst = dst[np.argsort(src)]
    ramp = np.arange(dst.size)  # a frontier reads at most every edge once
    level = np.full(n, -1)
    level[0] = 0
    slot = np.empty(n, dtype=np.intp)
    frontier, depth = np.zeros(1, dtype=np.intp), 0
    while frontier.size:
        depth += 1
        c = count[frontier]  # the frontier's out-edges, gathered in order
        shift = np.repeat(end[frontier] - c.cumsum(), c)
        reach = dst[shift + ramp[:shift.size]]
        new = reach[level[reach] < 0]
        level[new] = depth
        pos = ramp[:new.size]
        slot[new] = pos
        frontier = new[slot[new] == pos]
    return level


def is_connected(topology: Topology) -> bool:
    """Breadth-first search from agent 0 reaches every agent."""
    hear, agent = topology._pairs  # agent-major: sorted by source
    return bool(_bfs_levels(topology.n, agent, hear).min() >= 0)
