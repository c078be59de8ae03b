import numpy as np
import pytest

from adaptnet import (AssumptionConstants, LinearModel, assumption_constants,
                      limit_point, network_hessian, noise_profile)
from adaptnet.errors import ModelError, ObservabilityError
from adaptnet.model import _block_slices, _covariance_factor


def make_model(m=2, n=2, r_u=None, sigma_n2=None, w_star=None):
    if r_u is None:
        r_u = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    if sigma_n2 is None:
        sigma_n2 = np.full(n, 0.1)
    if w_star is None:
        w_star = np.arange(1.0, m + 1.0)
    return LinearModel(w_star=w_star, r_u=np.asarray(r_u, dtype=float),
                       sigma_n2=np.asarray(sigma_n2, dtype=float))


def complementary_pair():
    """Two rank-1 agents, individually unidentifiable, jointly observable."""
    return make_model(r_u=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                      sigma_n2=[0.1, 0.1])


class TestNoiseProfile:
    def test_anchored_endpoints(self):
        prof = noise_profile(10, 7)
        assert prof.min() == pytest.approx(1e-3)
        assert prof.max() == pytest.approx(1e-1)
        assert ((prof >= 1e-3 - 1e-12) & (prof <= 1e-1 + 1e-12)).all()

    def test_deterministic(self):
        assert np.array_equal(noise_profile(6, 3), noise_profile(6, 3))

    def test_unanchored_stays_in_range(self):
        prof = noise_profile(50, 1, anchor=False)
        assert prof.min() >= 1e-3 and prof.max() <= 1e-1

    @pytest.mark.parametrize("lo, hi", [(1e-3, np.inf), (np.nan, 1e-1),
                                        (1e-3, np.nan), (np.inf, np.inf)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="both finite"):
            noise_profile(3, 0, lo=lo, hi=hi)


class TestValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ModelError, match="symmetric"):
            make_model(r_u=[[[1.0, 0.3], [0.0, 1.0]], np.eye(2)])

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ModelError, match="indefinite"):
            make_model(r_u=[np.diag([1.0, -0.5]), np.eye(2)])

    def test_negative_noise_rejected(self):
        with pytest.raises(ModelError):
            make_model(sigma_n2=[0.1, -0.1])

    def test_asymmetric_block_is_named(self):
        r_u = np.broadcast_to(np.eye(3), (10, 3, 3)).copy()
        r_u[7, 0, 2] += 1e-6
        with pytest.raises(ModelError, match=r"r_u\[7\] is not symmetric"):
            make_model(m=3, n=10, r_u=r_u)

    @pytest.mark.parametrize("field, value", [
        ("sigma_n2", [0.1, np.nan]), ("sigma_n2", [np.inf, 0.1]),
        ("w_star", [np.nan, 1.0]), ("r_u", [np.eye(2), np.diag([1.0, np.nan])]),
        ("r_u", [np.diag([np.inf, 1.0]), np.eye(2)]),
    ])
    def test_non_finite_input_names_its_field(self, field, value):
        with pytest.raises(ModelError, match=rf"{field}\b.*non-finite"):
            make_model(**{field: value})

    def test_factors_match_the_per_agent_factor(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((12, 4, 4))
        r_u = g @ g.transpose(0, 2, 1)
        r_u[::3] = g[::3, :, :1] @ g[::3, :, :1].transpose(0, 2, 1)  # rank 1
        for stack in (r_u[1:3], r_u):  # all definite, then mixed
            model = make_model(m=4, n=len(stack), r_u=stack)
            assert np.array_equal(
                model._factors, [_covariance_factor(r) for r in stack])

    def test_asymmetric_block_past_the_first_slice_is_named(self):
        n, m = 600, 16
        r_u = np.broadcast_to(np.eye(m), (n, m, m)).copy()
        r_u[450, 3, 9] += 1e-6
        assert _block_slices(n, m)[0].stop <= 450
        with pytest.raises(ModelError, match=r"r_u\[450\] is not symmetric"):
            make_model(m=m, n=n, r_u=r_u)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ModelError, match="dimension M must be at least 1"):
            LinearModel(w_star=np.zeros(0), r_u=np.zeros((2, 0, 0)),
                        sigma_n2=[0.1, 0.1])

    def test_shape_error_names_the_sizes(self):
        with pytest.raises(ModelError, match=r"\(N, 2, 2\).*\(3, 1, 1\)"):
            make_model(m=2, n=3, r_u=np.ones((3, 1, 1)))
        with pytest.raises(ModelError, match=r"one entry per agent \(3\)"):
            make_model(m=2, n=3, sigma_n2=[0.1, 0.1])

    @pytest.mark.parametrize("view", [False, True])
    def test_identity_model_keeps_no_factor_stack(self, view):
        r_u = np.broadcast_to(np.eye(3), (5, 3, 3))
        model = make_model(m=3, n=5, r_u=r_u if view else r_u.copy())
        assert model._factors is None
        assert model.r_u.strides[0] == (0 if view else 72)
        # skipping the transform is applying the identity factors
        factored = make_model(m=3, n=5)
        factored._factors = np.linalg.cholesky(r_u)
        raw = np.random.default_rng(2).standard_normal((4, 7, 20))
        for got, want in zip(model.regressors_from_raw(raw),
                             factored.regressors_from_raw(raw)):
            assert np.array_equal(got, want)

    def test_singular_psd_covariance_accepted(self):
        model = complementary_pair()
        u, d = model.sample_network(np.random.default_rng(0))
        # each rank-1 regressor lives on its own axis
        assert u[0, 1] == 0.0 and u[1, 0] == 0.0


class TestSampling:
    def test_degenerate_model_returns_zeros(self):
        model = make_model(r_u=[np.zeros((2, 2))], sigma_n2=[0.0], n=1)
        u, d = model.sample_network(np.random.default_rng(1))
        assert np.array_equal(u, [[0.0, 0.0]]) and np.array_equal(d, [0.0])

    def test_noiseless_measurement_is_exact(self):
        model = make_model(sigma_n2=[0.0, 0.0])
        u, d = model.sample_network(np.random.default_rng(2))
        assert np.abs(d - u @ model.w_star).max() <= 1e-15

    def test_monte_carlo_moments(self):
        model = make_model(sigma_n2=[0.1, 0.1])
        u, d = model.sample_network(np.random.default_rng(3), size=(100_000,))
        cov = np.einsum("kit,kjt->kij", u, u) / u.shape[-1]
        assert np.abs(cov[0] - np.eye(2)).max() < 0.05
        resid = d[0] - model.w_star @ u[0]
        assert np.var(resid) == pytest.approx(0.1, rel=0.05)

    def test_network_sampling_matches_raw_transform(self):
        model = make_model()
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        u1, d1 = model.sample_network(rng1, size=(4,))
        raw = rng2.standard_normal((4, model.stream_width))
        u2, d2 = model.regressors_from_raw(raw)
        assert np.array_equal(u1, u2) and np.array_equal(d1, d2)

    @pytest.mark.parametrize("r_u", [None, complementary_pair().r_u])
    def test_batch_of_steps_maps_step_by_step(self, r_u):
        # (steps, T, width) -> u (steps, N, M, T): each step's block is the
        # transform of that step alone, contiguous, even from a strided view
        model = make_model(r_u=r_u)
        block = np.random.default_rng(6).standard_normal(
            (4, 16, model.stream_width))
        steps = block[:, 5:8].swapaxes(0, 1)
        u, d = model.regressors_from_raw(steps)
        assert u.shape == (3, 2, 2, 4) and d.shape == (3, 2, 4)
        for s in range(3):
            u1, d1 = model.regressors_from_raw(block[:, 5 + s])
            assert np.array_equal(u[s], u1) and np.array_equal(d[s], d1)
            assert u[s].flags.c_contiguous and d[s].flags.c_contiguous


class TestGradients:
    def test_stochastic_gradient_zero_at_solution_noiseless(self):
        model = make_model(sigma_n2=[0.0, 0.0])
        u, d = model.sample_network(np.random.default_rng(4))
        grad = model.stochastic_gradient_network(model.w_star[None], u, d)
        assert grad.shape == (2, 2) and np.abs(grad).max() < 1e-12

    def test_stochastic_gradient_hand_value(self):
        # -2 u_k^T (d_k - u_k w) at w = 0, agent by agent
        model = make_model()
        u = np.array([[1.0, 0.0], [0.0, 2.0]])
        grad = model.stochastic_gradient_network(np.zeros((1, 2)), u,
                                                 np.array([1.0, 3.0]))
        assert np.allclose(grad, [[-2.0, 0.0], [0.0, -12.0]])

    def test_law_of_large_numbers(self):
        model = make_model(sigma_n2=[0.05, 0.05])
        rng = np.random.default_rng(6)
        w = np.array([0.3, -0.7])
        u, d = model.sample_network(rng, size=(100_000,))
        grads = model.stochastic_gradient_network(w[:, None], u, d)
        mean = grads[0].mean(axis=-1)
        stderr = grads[0].std(axis=-1) / np.sqrt(u.shape[-1])
        truth = model.true_gradient_all(w)[0]
        assert (np.abs(mean - truth) < 3 * stderr + 1e-12).all()

    def test_true_gradient_zero_at_solution(self):
        model = make_model()
        assert np.array_equal(model.true_gradient_all(model.w_star),
                              np.zeros((2, 2)))

    def test_true_gradient_identity_covariance(self):
        model = make_model()
        w = model.w_star + np.array([1.0, 0.0])
        assert np.allclose(model.true_gradient_all(w), [[2.0, 0.0], [2.0, 0.0]])

    def test_true_gradient_diagonal_covariance(self):
        model = make_model(r_u=[np.diag([1.0, 3.0]), np.eye(2)])
        w = model.w_star + np.array([1.0, 1.0])
        assert np.allclose(model.true_gradient_all(w), [[2.0, 6.0], [2.0, 2.0]])

    def test_true_gradient_matches_finite_differences(self):
        # J(w) = sigma^2 + (w - w*)^T R (w - w*), differentiated centrally
        model = make_model(r_u=[[[2.0, 0.5], [0.5, 1.0]], np.eye(2)])
        w = np.array([0.4, -1.2])
        eps = 1e-6

        def cost(x):
            delta = x - model.w_star
            return 0.1 + delta @ model.r_u[0] @ delta

        fd = np.array([
            (cost(w + eps * e) - cost(w - eps * e)) / (2 * eps)
            for e in np.eye(2)
        ])
        truth = model.true_gradient_all(w)[0]
        assert np.abs(fd - truth).max() < 1e-6 * max(1.0, np.abs(truth).max())


class TestNoiseCovariance:
    def test_empirical_covariance_at_solution(self):
        model = make_model(sigma_n2=[0.1, 0.1])
        rng = np.random.default_rng(8)
        u, d = model.sample_network(rng, size=(100_000,))
        noise = model.stochastic_gradient_network(model.w_star[:, None], u,
                                                  d)[0]
        emp = noise @ noise.T / noise.shape[-1]
        # R_v,k = 4 sigma_k^2 R_u,k
        expected = (4.0 * model.sigma_n2[:, None, None] * model.r_u)[0]
        assert np.abs(emp - expected).max() < 0.05 * np.abs(expected).max()


class TestHessians:
    def test_single_agent(self):
        model = make_model(n=1, r_u=[np.eye(2)])
        assert np.array_equal(network_hessian(model, [1.0]), 2.0 * np.eye(2))

    def test_weighted_sum(self):
        model = make_model(r_u=[np.eye(2), np.diag([1.0, 3.0])])
        hc = network_hessian(model, [0.5, 0.5])
        assert np.allclose(hc, np.diag([2.0, 4.0]))

    def test_weighted_sum_matches_the_stacked_hessians(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((30, 5, 5))
        model = make_model(m=5, n=30, r_u=g @ g.transpose(0, 2, 1))
        p = rng.random(30)
        p /= p.sum()
        stacked = np.stack([2.0 * r for r in model.r_u])
        assert np.array_equal(network_hessian(model, p),
                              np.einsum("k,kij->ij", p, stacked))
        lam_max = max(np.linalg.eigvalsh(r).max() for r in model.r_u)
        assert assumption_constants(model, p).lambda_u == 2.0 * lam_max

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 1), (30, 2), (40, 5),
                                      (300, 12)])
    def test_sum_is_bit_identical_for_stacks_and_broadcasts(self, n, m):
        # sum_k p_k (2 R_k) as einsum sums the stacked 2 R_k, for a random
        # stack and for one block broadcast over the agents
        rng = np.random.default_rng(n + m)
        g = rng.standard_normal((n, m, m))
        p = rng.random(n)
        p /= p.sum()
        block = g[0] @ g[0].T
        for r_u in (g @ g.transpose(0, 2, 1),
                    np.broadcast_to(block, (n, m, m))):
            want = np.einsum("k,kij->ij", p, 2.0 * np.ascontiguousarray(r_u))
            assert np.array_equal(network_hessian(make_model(
                m=m, n=n, r_u=r_u), p), want)

    def test_rank_deficient_pair_is_jointly_definite(self):
        hc = network_hessian(complementary_pair(), [0.5, 0.5])
        assert np.allclose(hc, np.eye(2))


class TestObservability:
    def test_all_zero_covariances(self):
        model = make_model(r_u=[np.zeros((2, 2))] * 2, sigma_n2=[0.0, 0.0])
        with pytest.raises(ObservabilityError) as exc:
            limit_point(model, [0.5, 0.5])
        assert exc.value.extreme == pytest.approx(0.0, abs=1e-15)

    def test_complementary_pair(self):
        # lambda_l is the least eigenvalue of H_c = 2 sum_k p_k R_u,k
        lam_l = assumption_constants(complementary_pair(),
                                     [0.5, 0.5]).lambda_l
        assert lam_l / 2 == pytest.approx(0.5)

    def test_single_singular_agent(self):
        model = make_model(n=1, r_u=[np.diag([1.0, 0.0])], sigma_n2=[0.1])
        with pytest.raises(ObservabilityError) as exc:
            limit_point(model, [1.0])
        assert exc.value.extreme == pytest.approx(0.0, abs=1e-15)


class TestAssumptionConstants:
    def test_single_agent_identity(self):
        m = 10
        model = make_model(m=m, n=1, r_u=[np.eye(m)], sigma_n2=[0.3],
                           w_star=np.zeros(m))
        consts = assumption_constants(model, [1.0])
        assert consts.lambda_u == pytest.approx(2.0)
        assert consts.lambda_l == pytest.approx(2.0)
        assert consts.sigma_v2 == pytest.approx(4 * 0.3 * m)
        assert consts.alpha == pytest.approx(4 * (m ** 2 + m))

    def test_two_agent_diagonal(self):
        model = make_model(r_u=[np.eye(2), np.diag([1.0, 3.0])])
        consts = assumption_constants(model, [0.5, 0.5])
        assert consts.lambda_l == pytest.approx(2.0)
        assert consts.lambda_u == pytest.approx(6.0)

    def test_noiseless_model_has_zero_floor(self):
        model = make_model(sigma_n2=[0.0, 0.0])
        consts = assumption_constants(model, [0.5, 0.5])
        assert consts.sigma_v2 == 0.0

    @pytest.mark.parametrize("n, m", [(1, 3), (100, 10), (300, 40)])
    def test_broadcast_stack_is_decomposed_once(self, n, m, monkeypatch):
        # one block broadcast over the agents: one M x M eigendecomposition,
        # and the constants of its contiguous copy bit for bit
        rng = np.random.default_rng(n + m)
        g = rng.standard_normal((m, m))
        r_u = np.broadcast_to(g @ g.T / m + np.eye(m), (n, m, m))
        sigma_n2 = rng.uniform(1e-3, 1e-1, n)
        p = rng.random(n)
        p /= p.sum()
        want = assumption_constants(
            make_model(m=m, n=n, r_u=r_u.copy(), sigma_n2=sigma_n2), p)
        view = make_model(m=m, n=n, r_u=r_u, sigma_n2=sigma_n2)
        assert view.r_u.strides[0] == 0
        shapes, eigvalsh = [], np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        got = assumption_constants(view, p)
        assert shapes and all(len(shape) == 2 for shape in shapes)
        assert got == want

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            AssumptionConstants(lambda_l=3.0, lambda_u=2.0, alpha=0.0,
                                sigma_v2=0.0)

    @pytest.mark.parametrize("centered", [True, False])
    def test_relative_noise_bound_holds(self, centered):
        # Gaussian closed form: E||shat - s||^2 at w equals
        # 4(||R d||^2 + Tr(R) d^T R d) + 4 sigma^2 Tr(R),  d = w* - w.
        # The computed constants are independent of w*, so the bound is
        # guaranteed for a limit point at the origin, and away from the
        # origin once ||w|| dominates ||w*||.
        w_star = np.zeros(2) if centered else np.array([0.3, -0.4])
        model = make_model(r_u=[[[2.0, 0.5], [0.5, 1.0]], np.eye(2)],
                           sigma_n2=[0.1, 0.02], w_star=w_star)
        consts = assumption_constants(model, [0.5, 0.5])
        rng = np.random.default_rng(11)
        if centered:
            floor = 0.0
        else:
            # ||w|| above which alpha ||w||^2 dominates the worst agent's
            # exact factor on ||w* - w||^2
            rel = max(
                np.linalg.eigvalsh(r).max() ** 2
                + np.trace(r) * np.linalg.eigvalsh(r).max()
                for r in model.r_u
            )
            floor = 1.1 * np.linalg.norm(w_star) / (
                np.sqrt(consts.alpha / (4 * rel)) - 1.0)
        for _ in range(100):
            w = rng.standard_normal(2) * rng.uniform(0.5, 3.0)
            if np.linalg.norm(w) < floor:
                w *= floor / np.linalg.norm(w)
            for k in range(2):
                r = model.r_u[k]
                delta = model.w_star - w
                exact = 4 * (np.sum((r @ delta) ** 2)
                             + np.trace(r) * delta @ r @ delta) \
                    + 4 * model.sigma_n2[k] * np.trace(r)
                assert exact <= consts.alpha * w @ w + consts.sigma_v2 + 1e-9

    def test_gaussian_bound_matches_monte_carlo_fourth_moment(self):
        model = make_model(n=1, r_u=[np.eye(2)], sigma_n2=[0.0])
        rng = np.random.default_rng(12)
        u, _ = model.sample_network(rng, size=(200_000,))
        dev = np.einsum("kit,kjt->tij", u, u) - np.eye(2)
        emp = np.mean(np.sum(dev ** 2, axis=(1, 2)))  # E ||R - u^T u||_F^2
        bound = np.trace(np.eye(2)) ** 2 + np.trace(np.eye(2))
        assert emp == pytest.approx(bound, rel=0.05)


class TestLimitPoint:
    def test_positive_definite_model(self):
        model = make_model()
        assert np.array_equal(limit_point(model, [0.5, 0.5]), model.w_star)

    def test_complementary_pair_recovers_shared_parameter(self):
        model = complementary_pair()
        assert np.array_equal(limit_point(model, [0.5, 0.5]), model.w_star)

    def test_singular_network_rejected(self):
        model = make_model(n=1, r_u=[np.diag([1.0, 0.0])], sigma_n2=[0.1])
        with pytest.raises(ObservabilityError):
            limit_point(model, [1.0])


class TestUnbiasedness:
    def test_mean_gradient_matches_truth_at_random_points(self):
        model = make_model(sigma_n2=[0.05, 0.2])
        rng = np.random.default_rng(13)
        for w_seed in range(5):
            w = np.random.default_rng(w_seed).standard_normal(2)
            u, d = model.sample_network(rng, size=(100_000,))
            grads = model.stochastic_gradient_network(w[:, None], u, d)
            for k in range(2):
                mean = grads[k].mean(axis=-1)
                stderr = grads[k].std(axis=-1) / np.sqrt(u.shape[-1])
                truth = model.true_gradient_all(w)[k]
                assert (np.abs(mean - truth) < 4 * stderr + 1e-12).all()

