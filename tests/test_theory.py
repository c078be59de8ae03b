import numpy as np
import pytest

from adaptnet import (AssumptionConstants, LinearModel, assemble,
                      build_hastings, build_metropolis, build_perron,
                      build_report, convergence_rate, noise_profile,
                      optimal_theta_for_model, random_geometric,
                      report_to_json, ring, solve_lyapunov_continuous,
                      stable_step_bound)
from adaptnet import theory as theory_mod
from adaptnet.errors import ContractError
from adaptnet.model import _block_slices
from adaptnet.theory import _spread_from_first


def report_for(model, target, mus=1e-3):
    """``build_report`` on a ring whose Hastings weights have Perron vector
    ``target``, so that p_k = (mu_k / mu_max) target_k."""
    topo = ring(model.n_agents)
    policy = assemble("atc", build_hastings(topo, target), support=topo)
    perron = build_perron(policy, mus)
    return build_report(model, policy, perron), perron


def shared_model(m, sigma_n2, r_u=None):
    """Agents sharing one regressor covariance (I by default)."""
    sigma_n2 = np.asarray(sigma_n2, dtype=float)
    block = np.eye(m) if r_u is None else r_u
    return LinearModel(w_star=np.zeros(m),
                       r_u=np.broadcast_to(block, (sigma_n2.size, m, m)),
                       sigma_n2=sigma_n2)


def stacked_noise(model):
    """The stacked gradient-noise covariances R_v,k = 4 sigma_k^2 R_u,k."""
    return 4.0 * model.sigma_n2[:, None, None] * model.r_u


class TestWeightedMse:
    def test_zero_noise_gives_zero(self):
        report, _ = report_for(shared_model(3, [0.0, 0.0]), [0.5, 0.5])
        assert report.msd_first_order == 0.0
        assert report.weighted_mse_hc_half == 0.0

    def test_single_agent_lms_law(self):
        # H_c = 2I, so the H_c/2 weighting is the identity:
        # mu (1/2) Tr((2I)^-1 0.4 I_10) = 1e-3 * 0.1 * 10 = 1e-3
        report, _ = report_for(shared_model(10, [0.1]), [1.0])
        assert report.weighted_mse_hc_half == pytest.approx(1e-3, rel=1e-12)

    def test_half_hessian_weighting_closed_form(self):
        rng = np.random.default_rng(0)
        n, m = 4, 3
        model = LinearModel(
            w_star=np.zeros(m),
            r_u=np.stack([np.diag(rng.uniform(0.1, 1.0, m))
                          for _ in range(n)]),
            sigma_n2=rng.uniform(0.1, 1.0, n))
        mu = 2e-3
        report, perron = report_for(model, rng.uniform(0.1, 0.5, n), mu)
        rv, p = stacked_noise(model), perron.p
        closed = (mu / 4.0) * sum(p[k] ** 2 * np.trace(rv[k]) for k in range(n))
        assert report.weighted_mse_hc_half == pytest.approx(closed, abs=1e-10)

    def test_linear_in_step_size(self):
        # H_c = diag(2, 4)
        model = shared_model(2, [0.1, 0.05], np.diag([1.0, 2.0]))
        one, _ = report_for(model, [0.6, 0.4], 1e-3)
        two, _ = report_for(model, [0.6, 0.4], 2e-3)
        assert two.msd_first_order == pytest.approx(
            2.0 * one.msd_first_order, rel=1e-12)


class TestMsdIdentity:
    def test_matches_general_path(self):
        # the report's analytic X = H_c^-1 / 2 against the vectorized
        # Lyapunov solve with Sigma = I
        rng = np.random.default_rng(1)
        for _ in range(5):
            m, n = 4, 3
            g = rng.standard_normal((n, m, m))
            model = LinearModel(
                w_star=np.zeros(m),
                r_u=g @ g.transpose(0, 2, 1) / (2 * m) + 0.25 * np.eye(m),
                sigma_n2=rng.uniform(0.025, 0.25, n))
            mu = 1e-3
            report, perron = report_for(model, rng.uniform(0.1, 0.5, n), mu)
            r_eff = np.einsum("k,kij->ij", perron.p ** 2, stacked_noise(model))
            x = solve_lyapunov_continuous(report.hc, np.eye(m))
            via_lyapunov = float(mu * np.trace(x @ r_eff))
            assert report.msd_first_order == pytest.approx(via_lyapunov,
                                                           abs=1e-10)

    def test_homogeneous_network_noise_reduction(self):
        # identical agents with uniform weights: MSD = (mu/2N) Tr(H^-1 Rv1)
        n, m = 5, 3
        value, _ = report_for(shared_model(m, [0.1] * n), np.full(n, 1 / n))
        single, _ = report_for(shared_model(m, [0.1]), [1.0])
        assert value.msd_first_order == pytest.approx(
            single.msd_first_order / n, rel=1e-12)

    def test_single_agent_value(self):
        report, _ = report_for(shared_model(10, [0.1]), [1.0])
        assert report.msd_first_order == pytest.approx(1e-3, rel=1e-12)


class TestOptimalTheta:
    def test_identical_agents_uniform(self):
        # H = 2I, R_v,k = 0.4 I for every agent
        out = optimal_theta_for_model(shared_model(3, [0.1] * 4), 1e-3)
        assert np.allclose(out.theta, 0.25, atol=1e-14)

    def test_trace_ratio_hand_value(self):
        # H = I, R_v = 0.5 I and 1.5 I: traces 1 and 3 -> weights
        # proportional to 1 and 1/3
        model = shared_model(2, [0.25, 0.75], 0.5 * np.eye(2))
        out = optimal_theta_for_model(model, 1e-3)
        assert np.allclose(out.theta, [0.75, 0.25], atol=1e-14)
        assert out.msd == pytest.approx((1e-3 / 2) / (1 / 1 + 1 / 3), rel=1e-12)

    def test_noiseless_agent_flagged(self):
        with pytest.raises(ValueError, match="zero noise"):
            optimal_theta_for_model(shared_model(2, [0.0, 0.25]), 1e-3)

    def test_minimizes_over_simplex_perturbations(self):
        rng = np.random.default_rng(2)
        h = 2.0 * np.eye(2)
        model = shared_model(2, rng.uniform(0.05, 1.0, 6) / 4.0)
        rv = stacked_noise(model)
        out = optimal_theta_for_model(model, 1e-3)
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
        # the traces Tr(H^-1 R_v,k) formed a bounded slice at a time give
        # the bits of one einsum over the stacked R_v,k; at (301, 40) the
        # last bounded slice holds a single block
        rng = np.random.default_rng(n)
        g = rng.standard_normal((m, m))
        block = g @ g.T / m + np.eye(m)
        model = shared_model(m, rng.uniform(1e-3, 1e-1, n), block)
        got = optimal_theta_for_model(model, 1e-3)
        traces = np.einsum("ij,kji->k", np.linalg.inv(2.0 * block),
                           stacked_noise(model))
        inv = 1.0 / traces
        assert np.array_equal(got.theta, inv / inv.sum())
        assert got.msd == float(0.5e-3 / inv.sum())
        if (n, m) == (301, 40):
            assert len(range(n)[_block_slices(n, m)[-1]]) == 1

    def test_matches_per_agent_solves_at_scale(self):
        rng = np.random.default_rng(11)
        n, m = 300, 40
        g = rng.standard_normal((m, m))
        h = g @ g.T / m + np.eye(m)
        model = shared_model(m, rng.uniform(1e-3, 1e-1, n), h / 2.0)
        out = optimal_theta_for_model(model, 1e-3)
        inv = 1.0 / np.array([np.trace(np.linalg.solve(h, r))
                              for r in stacked_noise(model)])
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

    def test_overshooting_mode_counts_by_magnitude(self):
        # 1 - 0.4 * 4 = -0.6 outweighs 1 - 0.4 * 2 = 0.2
        assert convergence_rate(np.diag([2.0, 4.0]), 0.4) \
            == pytest.approx(0.36, rel=1e-12)

    def test_non_finite_hessian_rejected(self):
        # eigvalsh alone reads [[nan, 0], [0, 1]] as eigenvalues (0, 0)
        with pytest.raises(ValueError, match="finite"):
            convergence_rate([[np.nan, 0.0], [0.0, 1.0]], 0.01)


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
        r_eff = np.einsum("k,kij->ij", p ** 2, stacked_noise(model))
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
