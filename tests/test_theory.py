import numpy as np
import pytest

from adaptnet import (AssumptionConstants, LinearModel, assemble,
                      build_hastings, build_metropolis, build_perron,
                      build_report,
                      convergence_rate, network_hessian, noise_profile,
                      optimal_theta, optimal_theta_for_model,
                      predict_msd_identity, predict_weighted_mse,
                      random_geometric, report_to_json, ring,
                      stable_step_bound)
from adaptnet import theory as theory_mod
from adaptnet.errors import ContractError
from adaptnet.model import _block_slices
from adaptnet.theory import _spread_from_first


def identity_blocks(n, m, scale):
    return np.broadcast_to(np.eye(m), (n, m, m)).copy() * np.asarray(
        scale)[:, None, None]


class TestWeightedMse:
    def test_zero_noise_gives_zero(self):
        hc = 2.0 * np.eye(3)
        rv = np.zeros((2, 3, 3))
        assert predict_weighted_mse(hc, rv, [0.5, 0.5], 1e-3, np.eye(3)) == 0.0

    def test_single_agent_lms_law(self):
        # mu (1/2) Tr((2I)^-1 0.4 I_10) = 1e-3 * 0.1 * 10 = 1e-3
        m = 10
        hc = 2.0 * np.eye(m)
        rv = identity_blocks(1, m, [0.4])
        value = predict_weighted_mse(hc, rv, [1.0], 1e-3, np.eye(m))
        assert value == pytest.approx(1e-3, rel=1e-12)

    def test_half_hessian_weighting_closed_form(self):
        rng = np.random.default_rng(0)
        n, m = 4, 3
        hc = 2.0 * np.eye(m)
        rv = np.stack([np.diag(rng.uniform(0.1, 1.0, m)) for _ in range(n)])
        p = rng.uniform(0.1, 0.5, n)
        mu = 2e-3
        value = predict_weighted_mse(hc, rv, p, mu, hc / 2.0)
        closed = (mu / 4.0) * sum(p[k] ** 2 * np.trace(rv[k]) for k in range(n))
        assert value == pytest.approx(closed, abs=1e-10)

    def test_linear_in_step_size(self):
        hc = np.diag([2.0, 4.0])
        rv = identity_blocks(2, 2, [0.4, 0.2])
        p = [0.6, 0.4]
        one = predict_weighted_mse(hc, rv, p, 1e-3, np.eye(2))
        two = predict_weighted_mse(hc, rv, p, 2e-3, np.eye(2))
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestMsdIdentity:
    def test_matches_general_path(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m, n = 4, 3
            g = rng.standard_normal((m, m))
            hc = g @ g.T / m + 0.5 * np.eye(m)
            rv = np.stack([np.diag(rng.uniform(0.1, 1.0, m))
                           for _ in range(n)])
            p = rng.uniform(0.1, 0.5, n)
            via_lyapunov = predict_weighted_mse(hc, rv, p, 1e-3, np.eye(m))
            analytic = predict_msd_identity(hc, rv, p, 1e-3)
            assert analytic == pytest.approx(via_lyapunov, abs=1e-10)

    def test_homogeneous_network_noise_reduction(self):
        # identical agents with uniform weights: MSD = (mu/2N) Tr(H^-1 Rv1)
        n, m, mu = 5, 3, 1e-3
        hc = 2.0 * np.eye(m)
        rv = identity_blocks(n, m, [0.4] * n)
        value = predict_msd_identity(hc, rv, np.full(n, 1 / n), mu)
        single = predict_msd_identity(hc, rv[:1], [1.0], mu)
        assert value == pytest.approx(single / n, rel=1e-12)

    def test_single_agent_value(self):
        value = predict_msd_identity(2.0 * np.eye(10),
                                     identity_blocks(1, 10, [0.4]), [1.0], 1e-3)
        assert value == pytest.approx(1e-3, rel=1e-12)


class TestOptimalTheta:
    def test_identical_agents_uniform(self):
        h = 2.0 * np.eye(3)
        rv = identity_blocks(4, 3, [0.4] * 4)
        out = optimal_theta(h, rv, 1e-3)
        assert np.allclose(out.theta, 0.25, atol=1e-14)

    def test_trace_ratio_hand_value(self):
        # traces 1 and 3 -> weights proportional to 1 and 1/3
        h = np.eye(2)
        rv = np.stack([np.diag([0.5, 0.5]), np.diag([1.5, 1.5])])
        out = optimal_theta(h, rv, 1e-3)
        assert np.allclose(out.theta, [0.75, 0.25], atol=1e-14)
        assert out.msd == pytest.approx((1e-3 / 2) / (1 / 1 + 1 / 3), rel=1e-12)

    def test_noiseless_agent_flagged(self):
        h = np.eye(2)
        rv = np.stack([np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(ValueError, match="zero noise"):
            optimal_theta(h, rv, 1e-3)

    def test_minimizes_over_simplex_perturbations(self):
        rng = np.random.default_rng(2)
        h = 2.0 * np.eye(2)
        rv = np.stack([np.diag([s, s]) for s in rng.uniform(0.05, 1.0, 6)])
        out = optimal_theta(h, rv, 1e-3)
        traces = np.array([np.trace(np.linalg.solve(h, rv[k]))
                           for k in range(6)])

        def objective(theta):
            return float(theta ** 2 @ traces)

        base = objective(out.theta)
        for _ in range(100):
            markup = out.theta + 0.05 * rng.standard_normal(6)
            markup = np.clip(markup, 1e-6, None)
            markup /= markup.sum()
            assert objective(markup) >= base - 1e-12

    def test_model_wrapper_checks_identical_hessians(self):
        model = LinearModel(
            w_star=np.zeros(2),
            r_u=np.stack([np.eye(2), np.diag([1.0, 3.0])]),
            sigma_n2=np.array([0.1, 0.1]),
        )
        with pytest.raises(ContractError):
            optimal_theta_for_model(model, 1e-3)

    def test_hessian_mismatch_at_the_last_agent_is_caught(self):
        r_u = np.broadcast_to(np.eye(3), (50, 3, 3)).copy()
        r_u[-1, 1, 1] += 1e-9
        model = LinearModel(w_star=np.zeros(3), r_u=r_u,
                            sigma_n2=np.full(50, 0.1))
        with pytest.raises(ContractError):
            optimal_theta_for_model(model, 1e-3)

    def test_spread_is_the_absolute_deviation_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 1, 1), (7, 3, 3), (50, 8, 8)):
            r = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            assert _spread_from_first(r) == abs(r - r[0]).max()

    def test_hessian_mismatch_past_the_first_slice_is_caught(self):
        n, m = 600, 16
        r_u = np.broadcast_to(np.eye(m), (n, m, m)).copy()
        r_u[450, 2, 2] += 1e-9
        model = LinearModel(w_star=np.zeros(m), r_u=r_u,
                            sigma_n2=np.full(n, 0.1))
        with pytest.raises(ContractError):
            optimal_theta_for_model(model, 1e-3)

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 1), (30, 10), (301, 40)])
    def test_model_wrapper_matches_the_stacked_noise_bit_for_bit(self, n, m):
        # at (301, 40) the last bounded slice holds a single block
        rng = np.random.default_rng(n)
        g = rng.standard_normal((m, m))
        block = g @ g.T / m + np.eye(m)
        model = LinearModel(w_star=np.zeros(m),
                            r_u=np.broadcast_to(block, (n, m, m)),
                            sigma_n2=rng.uniform(1e-3, 1e-1, n))
        got = optimal_theta_for_model(model, 1e-3)
        want = optimal_theta(2.0 * block, model.rv_blocks(), 1e-3)
        assert np.array_equal(got.theta, want.theta)
        assert got.msd == want.msd
        if (n, m) == (301, 40):
            assert len(range(n)[_block_slices(n, m)[-1]]) == 1

    def test_matches_per_agent_solves_at_scale(self):
        rng = np.random.default_rng(11)
        n, m = 300, 40
        g = rng.standard_normal((m, m))
        h = g @ g.T / m + np.eye(m)
        q = rng.standard_normal((n, m, m))
        rv = (q @ q.transpose(0, 2, 1)) * rng.uniform(1e-3, 1e-1, n)[:, None, None]
        out = optimal_theta(h, rv, 1e-3)
        inv = 1.0 / np.array([np.trace(np.linalg.solve(h, r)) for r in rv])
        assert np.abs(out.theta / (inv / inv.sum()) - 1.0).max() < 1e-14
        assert out.msd == pytest.approx(0.5e-3 / inv.sum(), rel=1e-14)


class TestConvergenceRate:
    def test_scalar_case(self):
        assert convergence_rate(2.0 * np.eye(3), 0.01) \
            == pytest.approx(0.9604, rel=1e-12)

    def test_zero_step_no_contraction(self):
        assert convergence_rate(2.0 * np.eye(3), 0.0) == pytest.approx(1.0)

    def test_slowest_mode_dominates(self):
        assert convergence_rate(np.diag([2.0, 4.0]), 0.01) \
            == pytest.approx(0.9604, rel=1e-12)


class TestStepBound:
    def test_unit_case(self):
        consts = AssumptionConstants(lambda_l=2.0, lambda_u=2.0, alpha=0.0,
                                     sigma_v2=0.0)
        assert stable_step_bound(consts, [1.0]) == pytest.approx(1.0)

    def test_monotone_in_alpha(self):
        lo = AssumptionConstants(2.0, 2.0, 1.0, 0.0)
        hi = AssumptionConstants(2.0, 2.0, 100.0, 0.0)
        p = [0.5, 0.5]
        assert stable_step_bound(hi, p) < stable_step_bound(lo, p)

    def test_doubling_p_quarters_bound(self):
        consts = AssumptionConstants(2.0, 2.0, 1.0, 0.0)
        one = stable_step_bound(consts, [1.0])
        two = stable_step_bound(consts, [2.0])
        assert two == pytest.approx(one / 4.0, rel=1e-12)


class TestTopologyInvariance:
    def test_identical_predictions_across_graphs(self):
        n, m, mu = 10, 5, 5e-4
        rng = np.random.default_rng(3)
        target = 0.8 + 0.4 * rng.random(n)
        target /= target.sum()
        model = LinearModel(
            w_star=rng.standard_normal(m),
            r_u=np.broadcast_to(np.eye(m), (n, m, m)).copy(),
            sigma_n2=noise_profile(n, 7),
        )
        values = []
        for topo in (ring(n), random_geometric(n, 0.5, 21)):
            policy = assemble("atc", build_hastings(topo, target),
                              support=topo)
            perron = build_perron(policy, mu)
            report = build_report(model, policy, perron)
            values.append(report.msd_first_order)
        assert abs(values[0] - values[1]) < 1e-12


class TestReportSerialization:
    def test_db_fields_and_optional_weights(self):
        n, m = 4, 3
        topo = ring(n)
        model = LinearModel(
            w_star=np.zeros(m),
            r_u=np.broadcast_to(np.eye(m), (n, m, m)).copy(),
            sigma_n2=np.array([0.01, 0.02, 0.04, 0.08]),
        )
        policy = assemble("atc", build_hastings(topo, np.full(n, 0.25)),
                          support=topo)
        perron = build_perron(policy, 1e-3)
        report = build_report(model, policy, perron)
        obj = report_to_json(report)
        assert obj["msd_first_order_db"] == pytest.approx(
            10 * np.log10(obj["msd_first_order"]))
        assert obj["theta_opt"] is not None
        assert sum(obj["theta_opt"]) == pytest.approx(1.0)
        assert obj["msd_opt"] <= obj["msd_first_order"] + 1e-15
        assert 0.0 < obj["rate"] < 1.0
        assert obj["lambda2"] < 1.0
        assert "approximation" in obj


class TestBuildReport:
    @pytest.mark.parametrize("n, m", [(9, 1), (12, 4)])
    @pytest.mark.parametrize("view", [False, True])
    def test_noise_sums_match_the_stacked_noise_bit_for_bit(self, n, m, view):
        # random blocks and step sizes: sum_k p_k^2 R_v,k formed from r_u
        # gives the bits of the sum over the stacked R_v,k
        rng = np.random.default_rng(6 + m)
        g = rng.standard_normal((n, m, m))
        r_u = g @ g.transpose(0, 2, 1) + np.eye(m)
        if view:
            r_u = np.broadcast_to(r_u[0], (n, m, m))
        model = LinearModel(w_star=np.zeros(m), r_u=r_u,
                            sigma_n2=rng.uniform(1e-3, 1e-1, n))
        topo = ring(n)
        policy = assemble("cta", build_metropolis(topo), support=topo)
        perron = build_perron(policy, rng.uniform(1e-5, 1e-4, n))
        report = build_report(model, policy, perron)
        p, mu = perron.p, perron.mu_max
        r_eff = np.einsum("k,kij->ij", p ** 2, model.rv_blocks())
        hc = np.einsum("k,kij->ij", p, 2.0 * np.ascontiguousarray(r_u))
        assert np.array_equal(report.hc, hc)
        assert report.msd_first_order == float(
            0.5 * mu * np.trace(np.linalg.solve(hc, r_eff)))
        assert report.weighted_mse_hc_half == float(
            0.25 * mu * np.trace(r_eff))

    def test_reuses_the_given_optimal_weights(self, monkeypatch):
        n, m = 6, 3
        topo = ring(n)
        model = LinearModel(w_star=np.zeros(m),
                            r_u=np.broadcast_to(np.eye(m), (n, m, m)),
                            sigma_n2=noise_profile(n, 2))
        optimal = optimal_theta_for_model(model, 1e-3)
        policy = assemble("atc", build_hastings(topo, optimal.theta),
                          support=topo)
        perron = build_perron(policy, 1e-3)
        solved = report_to_json(build_report(model, policy, perron))

        def unexpected(*args):
            raise AssertionError("optimal weights solved again")

        monkeypatch.setattr(theory_mod, "optimal_theta_for_model", unexpected)
        reused = report_to_json(build_report(model, policy, perron, optimal))
        assert reused == solved
