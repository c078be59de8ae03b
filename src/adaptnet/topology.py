"""Communication graphs for multi-agent systems.

A topology is an undirected connected-or-not graph over ``n`` agents in
which every agent is its own neighbor (self-loops are stored explicitly
so that neighborhood sizes match the degree counts used by the
Hastings weight construction).  Agent indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError

_MAX_RETRIES = 100


@dataclass(frozen=True)
class Topology:
    """Undirected graph over ``n`` agents, self-loops included.

    ``neighbors[k]`` is the sorted tuple of agents that agent ``k`` can
    hear from, always containing ``k`` itself.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"agent count must be >= 1, got {self.n}")
        if len(self.neighbors) != self.n:
            raise ValueError("neighbor list length does not match agent count")
        object.__setattr__(
            self, "neighbors", tuple(tuple(sorted(set(s))) for s in self.neighbors)
        )
        for k, hood in enumerate(self.neighbors):
            for l in hood:
                if not 0 <= l < self.n:
                    raise ValueError(f"agent index {l} out of range [0, {self.n})")
                if k not in self.neighbors[l]:
                    raise ValueError(f"edge ({l}, {k}) is not symmetric")
            if k not in hood:
                raise ValueError(f"agent {k} is missing its self-loop")

    def degree(self, k: int) -> int:
        """Neighborhood size |N_k|, counting the agent itself."""
        return len(self.neighbors[k])

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges (i < j), self-loops excluded."""
        out = []
        for k, hood in enumerate(self.neighbors):
            out.extend((k, l) for l in hood if l > k)
        return out

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix including the diagonal self-loops."""
        a = np.zeros((self.n, self.n))
        for k, hood in enumerate(self.neighbors):
            a[list(hood), k] = 1.0
        return a

    def is_connected(self) -> bool:
        return is_connected(self)


def from_edges(n: int, edges) -> Topology:
    """Build a topology from an undirected edge list; self-loops are added."""
    hoods = [{k} for k in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        hoods[i].add(j)
        hoods[j].add(i)
    return Topology(n, tuple(tuple(sorted(s)) for s in hoods))


def ring(n: int) -> Topology:
    """Cycle graph: each agent hears its two cyclic neighbors and itself."""
    if n < 1:
        raise ValueError(f"agent count must be >= 1, got {n}")
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
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    # radius >= sqrt(2) spans the unit square and yields a complete graph
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        pos = rng.random((n, 2))
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        topo = from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] <= radius]
        )
        if is_connected(topo):
            return topo
    raise ConnectivityError(
        f"no connected placement found for n={n}, radius={radius} "
        f"after {_MAX_RETRIES} attempts"
    )


def is_connected(topology: Topology) -> bool:
    """Breadth-first search from agent 0 reaches every agent."""
    seen = {0}
    frontier = [0]
    while frontier:
        k = frontier.pop()
        for l in topology.neighbors[k]:
            if l not in seen:
                seen.add(l)
                frontier.append(l)
    return len(seen) == topology.n
