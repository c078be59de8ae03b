import numpy as np
import pytest

from adaptnet import (assemble, build_hastings, build_metropolis, build_perron,
                      build_uniform_averaging, from_edges,
                      is_primitive, perron_vector, policy_to_json,
                      random_geometric, ring, second_eigenvalue_magnitude)
from adaptnet.errors import ConnectivityError, StructureError


def dense_perron_oracle(a):
    """Reference eigensolver route: eigenvector at the eigenvalue closest to 1."""
    vals, vecs = np.linalg.eig(a)
    idx = np.argmin(np.abs(vals - 1.0))
    v = np.real(vecs[:, idx])
    v = v / v.sum()
    return v


class TestPerronVector:
    def test_doubly_stochastic_gives_uniform(self):
        theta = perron_vector(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(theta, [0.5, 0.5], atol=1e-12)

    def test_two_by_two_hand_solution(self):
        # 0.8 t1 + 0.4 t2 = t1  =>  t1 = 2 t2, unit sum => [2/3, 1/3]
        theta = perron_vector(np.array([[0.8, 0.4], [0.2, 0.6]]))
        assert np.allclose(theta, [2 / 3, 1 / 3], atol=1e-12)

    def test_single_agent(self):
        assert np.allclose(perron_vector(np.eye(1)), [1.0])

    def test_non_primitive_rejected(self):
        with pytest.raises(StructureError):
            perron_vector(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_slow_mixing_ring_recovers_hastings_target(self):
        # spectral gap 1.2e-4: an iterative solve needs ~1e5 steps here
        target = np.linspace(1.0, 4.0, 300)
        target /= target.sum()
        theta = perron_vector(build_hastings(ring(300), target))
        assert np.abs(theta / target - 1.0).max() < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_eigensolver(self, seed):
        topo = random_geometric(4 + 2 * seed, 0.6, seed)
        rng = np.random.default_rng(seed)
        target = 0.5 + rng.random(topo.n)
        target /= target.sum()
        a = build_hastings(topo, target)
        theta = perron_vector(a)
        assert np.abs(theta - dense_perron_oracle(a)).max() < 1e-9


def wielandt_power_oracle(a):
    """Primitive iff A^(N^2 - 2N + 2) > 0 entrywise (Wielandt's bound)."""
    pattern = (np.asarray(a) > 0).astype(int)
    n = pattern.shape[0]
    power = pattern.copy()
    for _ in range(n * n - 2 * n + 1):
        power = np.minimum(power @ pattern, 1)
    return bool(power.all())


def strongly_connected_oracle(a):
    """(I + A)^k > 0 entrywise for some k >= N - 1, by repeated squaring."""
    n = a.shape[0]
    reach = (np.eye(n) + (np.asarray(a) > 0)).astype(int)
    for _ in range(n):
        reach = np.minimum(reach @ reach, 1)
    return bool(reach.all())


def random_patterns(count, seed):
    """Nonnegative N x N matrices, N in 1..8; a third of them N-cycles,
    half of those with one added chord, so periodic cases occur."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 9))
        if case % 3 == 0:
            order = rng.permutation(n)
            a = np.zeros((n, n))
            a[order, np.roll(order, 1)] = 1.0
            if case % 6 == 0:
                a[rng.integers(n), rng.integers(n)] = 1.0
        else:
            a = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.6))
        yield a


class TestIsPrimitive:
    def test_matches_wielandt_power_oracle(self):
        primitive = periodic = 0
        for a in random_patterns(2000, seed=0):
            want = wielandt_power_oracle(a)
            assert is_primitive(a) == want, a
            primitive += want
            periodic += strongly_connected_oracle(a) and not want
        # primitive, reducible and periodic irreducible cases all occur
        assert 200 < primitive < 1800 and periodic > 200

    def test_periodic_swap_is_not_primitive(self):
        assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_positive_matrix_is_primitive(self):
        assert is_primitive(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_metropolis_ring_matches_power_oracle(self):
        a = build_metropolis(ring(5))
        power = np.eye(5)
        positive_at = None
        for j in range(1, 28):  # Wielandt bound for n=5 is 17
            power = power @ a
            if (power > 0).all():
                positive_at = j
                break
        assert positive_at is not None
        assert is_primitive(a)


class TestComputeP:
    """p_k = (mu_k/mu_max) (A2 theta)_k, through build_perron."""

    def test_uniform_steps_identity_a2_returns_theta_exactly(self):
        # consensus keeps A2 = I, so pi is theta exactly
        a = np.array([[2 / 3, 2 / 3], [1 / 3, 1 / 3]])
        pol = assemble("consensus", a, support=ring(2))
        assert np.array_equal(pol.a2, np.eye(2))
        pd = build_perron(pol, [1e-3, 1e-3])
        assert np.array_equal(pd.p, pol.theta)
        assert np.allclose(pd.p, [2 / 3, 1 / 3], atol=1e-15)

    def test_heterogeneous_steps_scale_entries(self):
        pol = assemble("consensus", np.full((2, 2), 0.5), support=ring(2))
        pd = build_perron(pol, [1e-3, 5e-4])
        assert np.allclose(pd.p, [0.5, 0.25], atol=1e-15)
        assert pd.mu_max == 1e-3

    def test_atc_doubly_stochastic_uniform(self):
        topo = ring(4)
        pol = assemble("atc", build_metropolis(topo), support=topo)  # doubly
        pd = build_perron(pol, 1e-3)
        assert np.allclose(pd.pi, 0.25, atol=1e-12)
        assert np.allclose(pd.p, pol.theta, atol=1e-12)

    def test_zero_steps_rejected(self):
        pol = assemble("consensus", np.full((2, 2), 0.5), support=ring(2))
        with pytest.raises(ValueError):
            build_perron(pol, [0.0, 0.0])


def hastings_loop_oracle(topology, target):
    """The per-edge double loop: off-diagonal weights one edge at a time,
    then each diagonal entry as 1 minus its column's off-diagonal sum."""
    n = topology.n
    a = np.zeros((n, n))
    deg = np.array([topology.degree(k) for k in range(n)], dtype=float)
    for k in range(n):
        for l in topology.neighbors[k]:
            if l != k:
                a[l, k] = 1.0 / max(deg[k], deg[l] * (target[k] / target[l]))
        a[k, k] = 1.0 - a[:, k].sum()
    return a


class TestHastings:
    @pytest.mark.parametrize("n, radius", [(1, 0.5), (2, 1.5), (10, 0.6),
                                           (300, 0.15)])
    @pytest.mark.parametrize("graph", ["ring", "geometric"])
    def test_matches_the_per_edge_loop_bit_for_bit(self, graph, n, radius):
        topo = ring(n) if graph == "ring" else random_geometric(n, radius, n)
        target = 0.1 + np.random.default_rng(n).random(n)
        target /= target.sum()
        assert np.array_equal(build_hastings(topo, target),
                              hastings_loop_oracle(topo, target))
        uniform = np.full(n, 1.0 / n)
        assert np.array_equal(build_metropolis(topo),
                              hastings_loop_oracle(topo, uniform))

    def test_two_agent_hand_evaluation(self):
        a = build_hastings(ring(2), [2 / 3, 1 / 3])
        assert np.allclose(a, [[0.75, 0.5], [0.25, 0.5]], atol=1e-15)
        theta = np.array([2 / 3, 1 / 3])
        assert np.abs(a @ theta - theta).max() < 1e-15
        # detailed balance theta_k a_lk = theta_l a_kl
        assert np.isclose(theta[0] * a[1, 0], theta[1] * a[0, 1], atol=1e-15)

    def test_uniform_target_collapses_to_metropolis(self):
        for topo in (ring(5), random_geometric(9, 0.5, 3)):
            uniform = np.full(topo.n, 1.0 / topo.n)
            assert np.array_equal(build_hastings(topo, uniform),
                                  build_metropolis(topo))

    def test_single_agent(self):
        assert np.array_equal(build_hastings(ring(1), [1.0]), [[1.0]])

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            build_hastings(ring(3), [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            build_hastings(ring(3), [0.5, 0.5, bad])

    def test_disconnected_topology_rejected(self):
        with pytest.raises(ConnectivityError):
            build_hastings(from_edges(2, []), [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_targets_left_stochastic_with_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_geometric(3 + seed, 0.7, seed + 50)
        target = 0.2 + rng.random(topo.n)
        target /= target.sum()
        a = build_hastings(topo, target)
        assert np.abs(a.sum(axis=0) - 1.0).max() < 1e-12
        assert (a >= 0).all()
        assert is_primitive(a)
        assert np.abs(a @ target - target).max() < 1e-12
        # reversibility: target_k a_lk = target_l a_kl drives the fixed point
        balance = target[None, :] * a - (target[None, :] * a).T
        assert np.abs(balance).max() < 1e-15


class TestMetropolisAndUniform:
    def test_metropolis_ring3_all_thirds(self):
        assert np.allclose(build_metropolis(ring(3)), 1 / 3, atol=1e-15)

    def test_metropolis_disconnected_topology_rejected(self):
        with pytest.raises(ConnectivityError):
            build_metropolis(from_edges(3, [(0, 1)]))

    def test_metropolis_two_agent_path(self):
        assert np.allclose(build_metropolis(ring(2)), 0.5, atol=1e-15)

    def test_metropolis_ring5_all_thirds(self):
        a = build_metropolis(ring(5))
        for k in range(5):
            assert np.allclose(a[list(ring(5).neighbors[k]), k], 1 / 3,
                               atol=1e-15)

    def test_uniform_averaging_ring3(self):
        assert np.allclose(build_uniform_averaging(ring(3)), 1 / 3, atol=1e-15)

    def test_uniform_averaging_star_center_column(self):
        star = from_edges(3, [(0, 1), (0, 2)])
        a = build_uniform_averaging(star)
        assert np.allclose(a[:, 0], 1 / 3, atol=1e-15)

    def test_uniform_averaging_path_columns_sum_to_one(self):
        path = from_edges(3, [(0, 1), (1, 2)])
        a = build_uniform_averaging(path)
        assert np.allclose(a.sum(axis=0), 1.0, atol=1e-15)


class TestAssemble:
    @pytest.fixture
    def matrix_and_support(self):
        topo = ring(4)
        return build_metropolis(topo), topo

    def test_atc_places_matrix_last(self, matrix_and_support):
        a, topo = matrix_and_support
        pol = assemble("atc", a, support=topo)
        assert np.array_equal(pol.a1, np.eye(4))
        assert np.array_equal(pol.a0, np.eye(4))
        assert np.allclose(pol.a2, a)
        assert np.allclose(pol.a, a)

    def test_consensus_places_matrix_middle(self, matrix_and_support):
        a, topo = matrix_and_support
        pol = assemble("consensus", a, support=topo)
        assert np.allclose(pol.a0, a)
        assert np.array_equal(pol.a1, np.eye(4))
        assert np.array_equal(pol.a2, np.eye(4))

    def test_cta_places_matrix_first(self, matrix_and_support):
        a, topo = matrix_and_support
        pol = assemble("cta", a, support=topo)
        assert np.allclose(pol.a1, a)

    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta"])
    def test_preset_product_is_the_triple_product(self, kind):
        topo = random_geometric(12, 0.5, 4)
        target = np.linspace(1.0, 2.0, 12)
        pol = assemble(kind, build_hastings(topo, target / target.sum()),
                       support=topo)
        assert np.array_equal(pol.a, pol.a1 @ pol.a0 @ pol.a2)

    def test_theta_is_the_read_only_perron_vector(self):
        topo = from_edges(3, [(0, 1), (1, 2)])
        pol = assemble("cta", build_uniform_averaging(topo), support=topo)
        assert np.array_equal(pol.theta, perron_vector(pol.a))
        with pytest.raises(ValueError, match="read-only"):
            pol.theta[0] = 1.0

    def test_custom_non_primitive_product_rejected(self):
        topo = from_edges(2, [(0, 1)])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(StructureError):
            assemble("custom", support=topo, a1=swap, a0=np.eye(2), a2=np.eye(2))

    def test_off_neighborhood_weight_rejected(self):
        path = from_edges(3, [(0, 1), (1, 2)])
        dense = np.full((3, 3), 1 / 3)
        with pytest.raises(StructureError):
            assemble("atc", dense, support=path)

    def test_column_sums_validated(self, matrix_and_support):
        a, topo = matrix_and_support
        with pytest.raises(StructureError):
            assemble("atc", a * 1.001, support=topo)
        a = a.copy()
        a[0, 0] = np.nan
        with pytest.raises(StructureError, match="left-stochastic"):
            assemble("atc", a, support=topo)


class TestSecondEigenvalue:
    def test_rank_one_projector(self):
        assert second_eigenvalue_magnitude([[0.5, 0.5], [0.5, 0.5]]) < 1e-12

    def test_two_by_two_from_trace(self):
        # eigenvalues {1, 0.4} because the trace is 1.4
        val = second_eigenvalue_magnitude([[0.8, 0.4], [0.2, 0.6]])
        assert np.isclose(val, 0.4, atol=1e-12)

    def test_metropolis_ring4_circulant(self):
        # circulant eigenvalues (1 + 2 cos(2 pi j / 4)) / 3 -> |lambda_2| = 1/3
        val = second_eigenvalue_magnitude(build_metropolis(ring(4)))
        assert np.isclose(val, 1 / 3, atol=1e-12)


def test_policy_json_shape():
    topo = ring(3)
    pol = assemble("atc", build_metropolis(topo), support=topo)
    perron = build_perron(pol, 1e-3)
    obj = policy_to_json(pol, perron)
    assert obj["kind"] == "atc"
    assert np.asarray(obj["A"]).shape == (3, 3)
    assert np.isclose(sum(obj["theta"]), 1.0)
    assert len(obj["p"]) == 3
