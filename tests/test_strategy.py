import numpy as np
import pytest

from adaptnet import (LinearModel, SimConfig, assemble, build_metropolis,
                      build_perron, network_hessian, random_geometric,
                      reference_error_curve, ring, run, step_centralized,
                      step_distributed, step_reference)
from adaptnet import build_uniform_averaging, sim
from adaptnet.errors import ContractError
from adaptnet.sim import trial_seed
from adaptnet.strategy import (centralized_update, distributed_update,
                               transposed_combiners)


def lms_setup(n=4, m=3, mu=1e-3, sigma=0.1, kind="atc", seed=0):
    topo = random_geometric(n, 0.8, seed) if n > 2 else ring(n)
    policy = assemble(kind, build_metropolis(topo), support=topo)
    rng = np.random.default_rng(seed + 1)
    model = LinearModel(
        w_star=rng.standard_normal(m),
        r_u=np.broadcast_to(np.eye(m), (n, m, m)).copy(),
        sigma_n2=np.full(n, sigma),
    )
    perron = build_perron(policy, mu)
    return topo, policy, perron, model


class TestPresetEquivalence:
    """Each preset must reproduce its textbook single-matrix form."""

    @pytest.fixture
    def ingredients(self):
        topo, _, _, model = lms_setup(n=5, m=2, seed=3)
        a = build_metropolis(topo)
        rng = np.random.default_rng(7)
        w = rng.standard_normal((5, 2))
        u, d = model.sample_network(np.random.default_rng(8))
        return topo, a, model, w, u, d

    def _step(self, kind, topo, a, model, w, u, d, mu=1e-3):
        policy = assemble(kind, a, support=topo)
        perron = build_perron(policy, mu)
        rng = np.random.default_rng(8)  # replays the same samples
        return step_distributed(w, policy, perron, model, rng)

    def grad(self, model, x, u, d):
        return model.stochastic_gradient_network(x, u, d)

    def test_consensus_form(self, ingredients):
        topo, a, model, w, u, d = ingredients
        expected = a.T @ w - 1e-3 * self.grad(model, w, u, d)
        assert np.allclose(self._step("consensus", topo, a, model, w, u, d),
                           expected, atol=1e-14)

    def test_atc_form(self, ingredients):
        topo, a, model, w, u, d = ingredients
        expected = a.T @ (w - 1e-3 * self.grad(model, w, u, d))
        assert np.allclose(self._step("atc", topo, a, model, w, u, d),
                           expected, atol=1e-14)

    def test_cta_form(self, ingredients):
        topo, a, model, w, u, d = ingredients
        phi = a.T @ w
        expected = phi - 1e-3 * self.grad(model, phi, u, d)
        assert np.allclose(self._step("cta", topo, a, model, w, u, d),
                           expected, atol=1e-14)


class TestFixedPointAndDeterminism:
    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta"])
    def test_noiseless_solution_is_invariant(self, kind):
        topo, policy, perron, model = lms_setup(sigma=0.0, kind=kind)
        w = np.tile(model.w_star, (4, 1))
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = step_distributed(w, policy, perron, model, rng)
        assert np.abs(w - model.w_star).max() < 1e-12

    def test_identical_seeds_identical_trajectories(self):
        topo, policy, perron, model = lms_setup()
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            w = np.zeros((4, 3))
            for _ in range(50):
                w = step_distributed(w, policy, perron, model, rng)
            outs.append(w)
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta"])
    def test_zero_step_size_is_pure_averaging(self, kind):
        topo, policy, _, model = lms_setup(kind=kind)
        w = np.random.default_rng(1).standard_normal((4, 3))
        u, d = model.sample_network(np.random.default_rng(2))
        out = distributed_update(w, transposed_combiners(policy),
                                 np.zeros(4), model, u, d)
        expected = (policy.a1 @ policy.a0 @ policy.a2).T @ w
        assert np.allclose(out, expected, atol=1e-14)

    @pytest.mark.parametrize("factors", range(8))
    def test_trial_batch_matches_per_trial_textbook_form(self, factors):
        # every placement of identity factors, so every buffer path of the
        # kernel; trials trailing, written through preallocated buffers
        _, _, _, model = lms_setup(n=5, m=3)
        rng = np.random.default_rng(factors)
        mats = [rng.random((5, 5)) for _ in range(3)]
        combiners = tuple(c if factors >> i & 1 else None
                          for i, c in enumerate(mats))
        mus = rng.uniform(1e-3, 1e-2, 5)
        w = rng.standard_normal((5, 3, 4))
        u, d = model.sample_network(rng, size=(4,))
        out, work = np.empty_like(w), np.empty_like(w)
        got = distributed_update(w, combiners, mus, model, u, d, out=out,
                                 work=work)
        assert got is out

        def comb(c, x):
            return x if c is None else c @ x

        c1, c0, c2 = combiners
        for t in range(4):
            phi = comb(c1, w[..., t])
            grad = -2.0 * u[..., t] * (d[:, t] - np.sum(u[..., t] * phi,
                                                       axis=1))[:, None]
            want = comb(c2, comb(c0, phi) - mus[:, None] * grad)
            assert np.allclose(got[..., t], want, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        topo, policy, perron, model = lms_setup()
        with pytest.raises(ContractError):
            step_distributed(np.zeros((3, 3)), policy, perron, model,
                             np.random.default_rng(0))
        with pytest.raises(ContractError):
            step_centralized(np.zeros(4), perron, model,
                             np.random.default_rng(0))


class TestShiftInvariance:
    """The kernels step the deviation w - w* on the noise v as they step w
    on d = u w* + v: the combiners are left-stochastic, so they commute
    with the shift, and the gradient reads only the residual d - u w.
    sim.run relies on this."""

    RTOL = 1e-14  # relative to max|w|; at most 3.5e-16 over 20 draws

    @staticmethod
    def _policy(kind, topo):
        if kind != "custom":
            return assemble(kind, build_metropolis(topo), support=topo)
        return assemble("custom", support=topo,
                        a1=build_uniform_averaging(topo),
                        a0=build_metropolis(topo),
                        a2=build_uniform_averaging(topo))

    @pytest.mark.parametrize("trials", [(), (4,)], ids=["no_trials", "trials"])
    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta", "custom"])
    def test_kernels_step_the_deviation(self, kind, trials):
        topo, _, _, model = lms_setup(n=5, m=3, seed=4)
        policy = self._policy(kind, topo)
        perron = build_perron(policy, np.linspace(5e-3, 2e-2, 5))
        rng = np.random.default_rng(6)
        raw = rng.standard_normal(trials + (model.stream_width,))
        u, v = model.regressors_from_raw(raw)
        shift = model.w_star.reshape((-1,) + (1,) * len(trials))
        d = np.einsum("km...,m->k...", u, model.w_star) + v
        w = rng.standard_normal((5, 3) + trials)
        tol = self.RTOL * np.abs(w).max()

        got = distributed_update(w - shift, transposed_combiners(policy),
                                 perron.mus, model, u, v)
        want = distributed_update(w, transposed_combiners(policy),
                                  perron.mus, model, u, d) - shift
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)

        got = centralized_update(w[0] - shift, perron.p, perron.mu_max,
                                 model, u, v)
        want = centralized_update(w[0], perron.p, perron.mu_max, model,
                                  u, d) - shift
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


class TestFusedKernels:
    """Each kernel against its unfused formula, with the gradients formed
    agent by agent, scaled after, and summed by a separate contraction.
    The kernels fold the step sizes into the (N, *trials) residual and
    the centralized one contracts u with it, so the two round
    differently."""

    @staticmethod
    def gradients(x, u, d):
        """-2 u_k (d_k - u_k^T x_k) for per-agent points x (N, M, ...)."""
        return -2.0 * u * (d - np.sum(u * x, axis=1))[:, None]

    @pytest.mark.parametrize("trials", [(), (4,)], ids=["no_trials", "trials"])
    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta", "custom"])
    def test_kernels_match_their_unfused_formulas(self, kind, trials):
        topo, _, _, model = lms_setup(n=5, m=3, seed=4)
        policy = TestShiftInvariance._policy(kind, topo)
        perron = build_perron(policy, np.linspace(5e-3, 2e-2, 5))
        rng = np.random.default_rng(9)
        u, d = model.sample_network(rng, size=trials)
        w = rng.standard_normal((5, 3) + trials)
        mus = perron.mus.reshape((5,) + (1,) * (w.ndim - 1))

        phi = np.einsum("lk,l...->k...", policy.a1, w)
        psi = np.einsum("lk,l...->k...", policy.a0, phi) \
            - mus * self.gradients(phi, u, d)
        want = np.einsum("lk,l...->k...", policy.a2, psi)
        got = distributed_update(w, transposed_combiners(policy), perron.mus,
                                 model, u, d)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

        grads = self.gradients(np.broadcast_to(w[0], u.shape), u, d)
        want = w[0] - perron.mu_max * np.tensordot(perron.p, grads, axes=1)
        got = centralized_update(w[0], perron.p, perron.mu_max, model, u, d)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestCentralized:
    def test_noiseless_stays_at_solution(self):
        _, _, perron, model = lms_setup(sigma=0.0)
        w = model.w_star.copy()
        for _ in range(50):
            w = step_centralized(w, perron, model, np.random.default_rng(3))
        assert np.abs(w - model.w_star).max() < 1e-12

    def test_single_agent_matches_distributed(self):
        topo, policy, perron, model = lms_setup(n=1, m=3)
        dist, cent = np.zeros((1, 3)), np.zeros(3)
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(25):
            dist = step_distributed(dist, policy, perron, model, r1)
            cent = step_centralized(cent, perron, model, r2)
        assert np.allclose(dist[0], cent, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("paired", [True, False],
                             ids=["paired", "unpaired"])
    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta"])
    def test_steps_replay_run_bit_for_bit(self, kind, paired):
        # sim.run steps the deviation x = w - w* from -w* with the shared
        # kernels, on the regressors and scaled noise (u, v) of trial 0's
        # stream; unpaired, the centralized recursion draws from its salted
        # stream
        _, policy, perron, model = lms_setup(n=10, m=5, sigma=0.05, seed=2,
                                             kind=kind)
        curves = run(SimConfig(trials=1, iters=300, seed=11, policy=policy,
                               model=model, mus=1e-3, paired_streams=paired))
        combiners = transposed_combiners(policy)
        dist, cent = np.tile(-model.w_star, (10, 1)), -model.w_star
        r_dist = np.random.default_rng(trial_seed(11, 0))
        r_cent = np.random.default_rng(
            trial_seed(11, 0, 0 if paired else sim._CENT_SALT))
        width = model.stream_width
        for i in range(300):
            u, v = model.regressors_from_raw(r_dist.standard_normal(width))
            uc, vc = model.regressors_from_raw(r_cent.standard_normal(width))
            dist = distributed_update(dist, combiners, perron.mus, model,
                                      u, v)
            cent = centralized_update(cent, perron.p, perron.mu_max, model,
                                      uc, vc)
            assert np.array_equal(np.einsum("km,km->k", dist, dist),
                                  curves.msd[i])
            assert np.einsum("m,m->", cent, cent) \
                == curves.centralized_msd[i]

    @pytest.mark.parametrize("paired", [True, False],
                             ids=["paired", "unpaired"])
    @pytest.mark.parametrize("kind", ["consensus", "atc", "cta"])
    def test_step_functions_agree_with_run(self, kind, paired):
        # the public step functions step w itself, from 0, on d = u w* + v;
        # sim.run steps w - w* on v, so the two round differently.  The
        # largest relative gap over these six cases measured 1.4e-13
        _, policy, perron, model = lms_setup(n=10, m=5, sigma=0.05, seed=2,
                                             kind=kind)
        curves = run(SimConfig(trials=1, iters=300, seed=11, policy=policy,
                               model=model, mus=1e-3, paired_streams=paired))
        dist, cent = np.zeros((10, 5)), np.zeros(5)
        r_dist = np.random.default_rng(trial_seed(11, 0))
        r_cent = np.random.default_rng(
            trial_seed(11, 0, 0 if paired else sim._CENT_SALT))
        msd, cent_msd = np.empty((300, 10)), np.empty(300)
        for i in range(300):
            dist = step_distributed(dist, policy, perron, model, r_dist)
            cent = step_centralized(cent, perron, model, r_cent)
            err, err_c = dist - model.w_star, cent - model.w_star
            msd[i], cent_msd[i] = np.einsum("km,km->k", err, err), err_c @ err_c
        np.testing.assert_allclose(msd, curves.msd, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cent_msd, curves.centralized_msd,
                                   rtol=1e-12, atol=0)

    def test_mean_trajectory_tracks_reference(self):
        # distributed mean path vs deterministic reference, small steps
        topo, policy, perron, model = lms_setup(n=3, m=2, mu=2e-3, sigma=0.05,
                                                seed=9)
        trials, iters = 200, 150
        acc = np.zeros((iters, 3, 2))
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            w = np.zeros((3, 2))
            for i in range(iters):
                w = step_distributed(w, policy, perron, model, rng)
                acc[i] += w
        mean_path = acc / trials
        ref = np.zeros(2)  # the Perron-weighted average of the agents' starts
        checkpoints = {10, 50, 100, 149}
        stderr = 0.05 / np.sqrt(trials) + 3 * perron.mu_max
        for i in range(iters):
            ref = step_reference(ref, perron, model)
            if i in checkpoints:
                for k in range(3):
                    assert np.abs(mean_path[i, k] - ref).max() < 3 * stderr

    def test_centralized_mean_trajectory_tracks_reference(self):
        topo, policy, perron, model = lms_setup(n=3, m=2, mu=2e-3, sigma=0.05,
                                                seed=9)
        trials, iters = 200, 150
        acc = np.zeros((iters, 2))
        for t in range(trials):
            rng = np.random.default_rng(5000 + t)
            w = np.zeros(2)
            for i in range(iters):
                w = step_centralized(w, perron, model, rng)
                acc[i] += w
        mean_path = acc / trials
        ref = np.zeros(2)
        stderr = 0.05 / np.sqrt(trials) + 3 * perron.mu_max
        for i in range(iters):
            ref = step_reference(ref, perron, model)
            if i in {10, 50, 100, 149}:
                assert np.abs(mean_path[i] - ref).max() < 3 * stderr


class TestReference:
    def test_stays_at_solution(self):
        _, _, perron, model = lms_setup()
        w = step_reference(model.w_star.copy(), perron, model)
        assert np.allclose(w, model.w_star, atol=1e-15)

    def test_scalar_contraction_rate(self):
        # H_c = 2I and mu = 0.01 contract the error by 0.98 per step
        _, _, _, model = lms_setup(n=1, m=4, sigma=0.0)
        topo = ring(1)
        policy = assemble("atc", np.eye(1), support=topo)
        perron = build_perron(policy, 0.01)
        w0 = model.w_star + np.array([1.0, 0.0, 0.0, 0.0])
        w = w0
        for i in range(1, 40):
            w = step_reference(w, perron, model)
            expected = 0.98 ** i
            actual = np.linalg.norm(w - model.w_star)
            assert actual == pytest.approx(expected, rel=1e-12)

    def test_eigendirection_ratio_matches_spectral_radius(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r = q @ np.diag([0.5, 1.0, 2.5]) @ q.T
        model = LinearModel(w_star=rng.standard_normal(3),
                            r_u=r[None, :, :].copy(), sigma_n2=np.array([0.0]))
        policy = assemble("atc", np.eye(1), support=ring(1))
        perron = build_perron(policy, 0.01)
        slow = q[:, 0]  # eigenvector of the smallest eigenvalue, slowest mode
        w = model.w_star + slow
        rho = 1.0 - 0.01 * 2.0 * 0.5
        for _ in range(20):
            nxt = step_reference(w, perron, model)
            ratio = (np.linalg.norm(nxt - model.w_star)
                     / np.linalg.norm(w - model.w_star))
            assert ratio == pytest.approx(rho, rel=1e-12)
            w = nxt


class TestReferenceErrorCurve:
    """The closed-form curve against the one-step recursion it solves."""

    @staticmethod
    def iterated(w, perron, model, steps):
        out = np.empty(steps)
        for i in range(steps):
            w = step_reference(w, perron, model)
            out[i] = np.sum((model.w_star - w) ** 2)
        return out

    def check(self, w0, perron, model, steps):
        want = self.iterated(w0, perron, model, steps)
        got = reference_error_curve(w0, perron, model, steps)
        assert got.shape == (steps,)
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()

    @pytest.mark.parametrize("mu", [1e-2, 2e-2])
    def test_anisotropic_network(self, mu):
        # per-agent covariances with distinct eigenvectors, uneven steps:
        # H_c is no multiple of I and p no multiple of theta
        n, m = 5, 3
        topo = random_geometric(n, 0.8, 0)
        policy = assemble("atc", build_metropolis(topo), support=topo)
        rng = np.random.default_rng(1)
        q = rng.standard_normal((n, m, m))
        model = LinearModel(w_star=rng.standard_normal(m),
                            r_u=q @ q.transpose(0, 2, 1) / m + 0.1 * np.eye(m),
                            sigma_n2=np.full(n, 0.01))
        perron = build_perron(policy, mu * rng.uniform(0.5, 1.0, n))
        lam = np.linalg.eigvalsh(network_hessian(model, perron.p))
        assert lam.max() > 3 * lam.min()
        self.check(np.zeros(m), perron, model, 300)

    @pytest.mark.parametrize("mu", [0.9, 1.3])
    def test_negative_contraction(self, mu):
        # mu lam = 1.44 (rho = -0.44) and, past the bound, 2.08 (rho = -1.08)
        _, _, _, model = lms_setup(n=1, m=2, sigma=0.0)
        model = LinearModel(w_star=model.w_star,
                            r_u=np.diag([0.3, 0.8])[None],
                            sigma_n2=np.zeros(1))
        perron = build_perron(assemble("atc", np.eye(1), support=ring(1)), mu)
        rho = 1.0 - mu * 2.0 * np.array([0.3, 0.8])
        assert rho.min() < 0
        self.check(model.w_star + np.array([1.0, -2.0]), perron, model, 12)

