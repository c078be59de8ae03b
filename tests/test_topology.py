import collections
import math

import numpy as np
import pytest

from adaptnet import (Topology, from_edges, is_connected, is_primitive,
                      random_geometric, ring)
from adaptnet.errors import ConnectivityError
from adaptnet.topology import _bfs_levels


def test_ring_single_agent():
    t = ring(1)
    assert t.n == 1
    assert t.neighbors[0] == (0,)


def test_ring_three_is_complete():
    t = ring(3)
    for k in range(3):
        assert t.neighbors[k] == (0, 1, 2)


def test_ring_five_cyclic_adjacency():
    t = ring(5)
    assert t.neighbors[0] == (0, 1, 4)
    assert all(t.degree(k) == 3 for k in range(5))


def test_ring_rejects_zero_agents():
    with pytest.raises(ValueError):
        ring(0)


def test_geometric_single_agent():
    t = random_geometric(1, 0.3, 7)
    assert t.neighbors == ((0,),)


def test_geometric_full_radius_gives_complete_graph():
    t = random_geometric(4, 1.5, 1)
    for k in range(4):
        assert t.neighbors[k] == (0, 1, 2, 3)


def test_geometric_seed42_matches_independent_regeneration():
    # oracle: replay the documented placement algorithm from scratch
    n, radius, seed = 30, 0.35, 42
    t = random_geometric(n, radius, seed)
    rng = np.random.default_rng(seed)
    expected = None
    for _ in range(100):
        pos = rng.random((n, 2))
        dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                 if dist[i, j] <= radius}
        # BFS connectivity on the candidate edge set
        adj = {k: set() for k in range(n)}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            expected = edges
            break
    assert expected is not None
    assert set(t.edges) == expected
    assert is_connected(t)


def geometric_neighbors_oracle(n, radius, seed):
    """Neighbor tuples of the documented placement, one pair at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        pos = rng.random((n, 2))
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        hoods = [{k} for k in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i, j] <= radius:
                    hoods[i].add(j)
                    hoods[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            for w in hoods[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == n:
            return tuple(tuple(sorted(h)) for h in hoods)
    raise AssertionError("no connected placement")


@pytest.mark.parametrize("n, radius, seed", [(2, 1.0, 0), (15, 0.4, 1),
                                             (60, 0.25, 2), (200, 0.13, 3)])
def test_geometric_neighbors_match_the_pairwise_oracle(n, radius, seed):
    neighbors = random_geometric(n, radius, seed).neighbors
    assert neighbors == geometric_neighbors_oracle(n, radius, seed)
    assert all(type(l) is int for hood in neighbors for l in hood)


def test_geometric_connectivity_failure_names_parameters():
    with pytest.raises(ConnectivityError, match=r"n=40.*radius=0.01"):
        random_geometric(40, 0.01, 0)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, -0.5])
def test_geometric_rejects_bad_radius_before_placing(radius, monkeypatch):
    def no_placement(*args):
        raise AssertionError("an agent was placed")
    monkeypatch.setattr(np.random, "default_rng", no_placement)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        random_geometric(5, radius, 0)


def reference_walk(topology):
    """Set of agents reached from agent 0 by a plain stack walk."""
    seen, stack = {0}, [0]
    while stack:
        for l in topology.neighbors[stack.pop()]:
            if l not in seen:
                seen.add(l)
                stack.append(l)
    return seen


def random_topologies(count, seed):
    """Topologies on 1..30 agents with 0..3N random edges: sparse ones are
    mostly disconnected, dense ones mostly connected."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 31))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n + 1)), 2))
        yield from_edges(n, edges[edges[:, 0] != edges[:, 1]])


def test_is_connected_matches_the_reference_walk():
    connected = 0
    for t in random_topologies(500, seed=3):
        want = len(reference_walk(t)) == t.n
        assert is_connected(t) == want, t
        connected += want
    assert 100 < connected < 400  # both answers occur


@pytest.mark.parametrize("topology, want", [
    (ring(1000), True), (random_geometric(200, 0.13, 3), True),
    (from_edges(1000, [(k, k + 1) for k in range(999) if k != 500]), False),
    (from_edges(3, [(1, 2)]), False)])
def test_is_connected_on_large_and_split_graphs(topology, want):
    assert is_connected(topology) is want
    assert (len(reference_walk(topology)) == topology.n) is want


def test_bfs_levels_are_shortest_directed_distances():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        src, dst = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n))))
        # reference: Bellman-Ford style relaxation on unit edge lengths
        dist = np.full(n, np.inf)
        dist[0] = 0
        for _ in range(n):
            np.minimum.at(dist, dst, dist[src] + 1)
        want = np.where(np.isinf(dist), -1, dist).astype(int)
        assert np.array_equal(_bfs_levels(n, src, dst), want)


def deque_levels(n, src, dst):
    """Plain breadth-first search over adjacency lists: the loop reference."""
    out = [[] for _ in range(n)]
    for k, l in zip(src.tolist(), dst.tolist()):
        out[k].append(l)
    level = [-1] * n
    level[0] = 0
    queue = collections.deque([0])
    while queue:
        k = queue.popleft()
        for l in out[k]:
            if level[l] < 0:
                level[l] = level[k] + 1
                queue.append(l)
    return np.array(level)


def edge_graphs():
    """(n, src, dst): ring, path, star, and seeded random directed graphs,
    one of them strongly connected with period 2."""
    hear, agent = ring(2000)._pairs
    yield 2000, agent, hear
    path = np.arange(49)
    yield 50, np.r_[path, path + 1], np.r_[path + 1, path]
    leaves = np.arange(1, 30)
    yield 30, np.r_[0 * leaves, leaves], np.r_[leaves, 0 * leaves]
    rng = np.random.default_rng(19)
    for n in (5, 40, 300):
        yield n, *rng.integers(0, n, size=(2, int(rng.integers(n, 4 * n))))
    # a directed Hamiltonian cycle plus random chords
    cycle = np.arange(300)
    chords = rng.integers(0, 300, size=(2, 200))
    yield 300, np.r_[cycle, chords[0]], np.r_[(cycle + 1) % 300, chords[1]]
    # an even cycle plus chords that all join even to odd nodes: period 2
    src = rng.integers(0, 60, size=150)
    dst = 2 * rng.integers(0, 30, size=150) + 1 - src % 2
    cycle = np.arange(60)
    yield 60, np.r_[cycle, src], np.r_[(cycle + 1) % 60, dst]


def test_bfs_levels_match_a_deque_search_and_primitivity_holds():
    primitive = periodic = 0
    for n, src, dst in edge_graphs():
        fwd = _bfs_levels(n, src, dst)
        back = _bfs_levels(n, dst, src)
        assert np.array_equal(fwd, deque_levels(n, src, dst))
        assert np.array_equal(back, deque_levels(n, dst, src))
        strong = bool(fwd.min() >= 0 and back.min() >= 0)
        gcd = math.gcd(*(fwd[src] + 1 - fwd[dst]).tolist())
        a = np.zeros((n, n))
        a[src, dst] = 1.0
        assert is_primitive(a) is (strong and gcd == 1)
        primitive += is_primitive(a)
        periodic += strong and gcd == 2
    # the ring and the chorded cycle; the path, the star and the even cycle
    assert primitive == 2 and periodic == 3


def test_is_connected_two_isolated_agents():
    assert not is_connected(from_edges(2, []))


def test_is_connected_ring():
    assert is_connected(ring(5))


@pytest.mark.parametrize("seed", range(10))
def test_generated_topologies_respect_invariants(seed):
    t = random_geometric(12, 0.5, seed)
    for k in range(t.n):
        hood = t.neighbors[k]
        assert k in hood
        assert all(0 <= l < t.n for l in hood)
        for l in hood:
            assert k in t.neighbors[l]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_rings_are_connected(n):
    assert is_connected(ring(n))


def test_validation_rejects_asymmetric_neighbors():
    with pytest.raises(ValueError, match="symmetric"):
        Topology(2, ((0, 1), (1,)))


def test_validation_rejects_missing_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Topology(2, ((1,), (0, 1)))


def test_validation_names_the_first_one_way_edge():
    # agent 2 is in N_1, but agent 1 is not in N_2
    with pytest.raises(ValueError, match=r"edge \(2, 1\) is not symmetric"):
        Topology(3, ((0, 1), (0, 1, 2), (2,)))


def test_validation_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="agent index 5 out of range"):
        Topology(2, ((0, 5), (1,)))


@pytest.mark.parametrize("edges", [[(0, 1.5)], [(0, 1, 2)], [(0, 3)]])
def test_from_edges_rejects_malformed_edges(edges):
    with pytest.raises(ValueError, match="edge"):
        from_edges(3, edges)


def test_adjacency_marks_every_neighborhood_column():
    t = from_edges(4, [(0, 1), (1, 2)])
    expected = np.zeros((4, 4))
    for k, hood in enumerate(t.neighbors):
        expected[list(hood), k] = 1.0
    assert np.array_equal(t.adjacency(), expected)


@pytest.mark.parametrize("topo", [ring(7), random_geometric(12, 0.5, 3),
                                  from_edges(5, [(0, 3), (3, 4), (1, 2)])],
                         ids=["ring", "random_geometric", "from_edges"])
def test_pairs_are_read_only_expansions_of_the_neighbors(topo):
    hear, agent = topo._pairs
    assert not hear.flags.writeable and not agent.flags.writeable
    expected = [(l, k) for k, hood in enumerate(topo.neighbors) for l in hood]
    assert list(zip(hear.tolist(), agent.tolist())) == expected
    # the arrays take no part in equality or hashing
    twin = Topology(topo.n, topo.neighbors)
    assert twin == topo and hash(twin) == hash(topo)
    assert "_pairs" not in repr(topo)
