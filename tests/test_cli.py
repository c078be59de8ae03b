import json
import tracemalloc

import numpy as np
import pytest

from adaptnet import policy as policy_mod
from adaptnet import theory as theory_mod
from adaptnet.cli import build_experiment, main

TINY_CONFIG = {
    "seed": 1,
    "topology": {"kind": "ring", "n": 2},
    "model": {
        "m": 2,
        "w_star": [1.0, 0.5],
        "r_u": "identity",
        "sigma_n2": [0.01, 0.02],
    },
    "policy": {"kind": "atc", "weights": "metropolis"},
    "mu": 1e-3,
    "trials": 3,
    "iters": 20,
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_tiny_config_writes_three_files(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "curves.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "theory.json").exists()
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + TINY_CONFIG["iters"] * 2

    def test_report_embeds_identical_theory_block(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        theory = json.loads((out / "theory.json").read_text())
        assert report["theory"] == theory

    def test_report_echoes_combination_policy(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        block = json.loads((out / "report.json").read_text())["policy"]
        assert block["kind"] == "atc"
        assert np.asarray(block["A"]).shape == (2, 2)
        assert sum(block["theta"]) == pytest.approx(1.0)
        assert sum(block["p"]) == pytest.approx(1.0)

    def test_overrides_apply(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out),
                     "--trials", "2", "--iters", "30", "--seed", "9",
                     "--strategy", "consensus"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["trials"] == 2
        assert report["config"]["iters"] == 30
        assert report["config"]["seed"] == 9
        assert report["config"]["policy"]["kind"] == "consensus"

    def test_unstable_step_exits_2(self, tmp_path, capsys):
        cfg = dict(TINY_CONFIG, mu=1.0)
        path = write_config(tmp_path, cfg)
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bound" in capsys.readouterr().err

    def test_block_buffers_past_memory_exit_3(self, tmp_path, capsys):
        # sim.run refuses the trial count before it allocates anything
        path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--trials", str(10**11)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "GiB of block buffers" in err
        assert not out.exists()

    def test_result_arrays_past_memory_exit_3(self, tmp_path, capsys):
        # sim.run refuses the iteration count before it allocates anything
        path = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--iters", str(10**9)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "1000000000 iterations" in err
        assert "B per iteration" in err
        assert "GiB of physical memory" in err
        assert not out.exists()

    def test_divergence_exits_2(self, tmp_path, capsys):
        cfg = dict(TINY_CONFIG, mu=0.9, allow_unstable=True, iters=400)
        path = write_config(tmp_path, cfg)
        with pytest.warns(UserWarning):
            code = main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "theory"])
def test_perron_vector_is_solved_once(tmp_path, monkeypatch, capsys, command):
    calls = {"perron_vector": 0, "is_primitive": 0}
    for name in calls:
        real = getattr(policy_mod, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(policy_mod, name, spy)
    argv = [command, "--config", str(write_config(tmp_path, TINY_CONFIG))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert calls == {"perron_vector": 1, "is_primitive": 1}


@pytest.mark.parametrize("command", ["run", "theory"])
@pytest.mark.parametrize("weights", ["optimal", "metropolis"])
def test_optimal_weights_are_solved_once(tmp_path, monkeypatch, command,
                                         weights):
    calls = []
    real = theory_mod.optimal_theta_for_model

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(theory_mod, "optimal_theta_for_model", spy)
    policy = ({"kind": "atc", "weights": "hastings", "target": "optimal"}
              if weights == "optimal" else TINY_CONFIG["policy"])
    cfg = write_config(tmp_path, dict(TINY_CONFIG, policy=policy))
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(calls) == 1


class TestMemory:
    """numpy reports its allocations to tracemalloc.  ring(200) with M = 60
    and identity covariances: one (N, M, M) float stack is 5.76 MB, far
    above the N x N pieces (0.32 MB each)."""

    N, M = 200, 60
    CONFIG = {
        "seed": 1,
        "topology": {"kind": "ring", "n": N},
        "model": {"m": M, "w_star": {"kind": "seeded_unit", "seed": 1},
                  "r_u": "identity",
                  "sigma_n2": {"kind": "log_uniform", "seed": 1}},
        "policy": {"kind": "atc", "weights": "hastings", "target": "optimal"},
        "mu": 1e-4,
    }

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_experiment_stays_below_one_stack(self):
        (experiment, optimal), peak = self.traced_peak(
            lambda: build_experiment(self.CONFIG))
        assert peak < self.N * self.M ** 2 * 8
        assert experiment.model.r_u.strides[0] == 0
        assert experiment.model._factors is None
        assert optimal is not None

    def test_report_forms_m_by_m_sums_only(self):
        experiment, _ = build_experiment(self.CONFIG)
        report, peak = self.traced_peak(lambda: theory_mod.build_report(
            experiment.model, experiment.policy, experiment.perron))
        assert peak < 1e6
        assert report.theta_opt is not None


class TestCompareTopologies:
    def test_deltas_use_the_simulated_topology(self, tmp_path):
        # a 5-node star compared with a ring: the star's report, not the
        # first variant's, is the one the simulated deltas refer to
        ring = {"kind": "ring", "n": 5}
        star = {"kind": "edges", "n": 5,
                "edges": [[0, 1], [0, 2], [0, 3], [0, 4]]}
        cfg = dict(TINY_CONFIG, topology=star, compare_topologies=[ring, star],
                   model=dict(TINY_CONFIG["model"],
                              sigma_n2=[0.01, 0.02, 0.04, 0.08, 0.16]),
                   policy={"kind": "atc", "weights": "uniform"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        ring_msd, star_msd = (v["theory"]["msd_first_order"]
                              for v in report["theory"]["variants"])
        assert 10.0 * np.log10(ring_msd / star_msd) > 1.0
        summary = report["summary"]
        for row, delta in zip(summary["steady_state"],
                              summary["theory_delta_db"]):
            assert delta["delta_db"] == pytest.approx(
                row["steady_msd_db"] - 10.0 * np.log10(star_msd), abs=1e-12)


class TestTheory:
    def test_stdout_matches_run_artifact_bit_for_bit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["theory", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "theory.json").read_text()

    def test_reports_uniform_p_for_doubly_stochastic_choice(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        main(["theory", "--config", str(cfg)])
        block = json.loads(capsys.readouterr().out)
        # metropolis on a 2-ring is doubly stochastic: theta uniform, and
        # the identity-weight MSD equals the analytic single-step value
        assert block["msd_first_order"] > 0
        assert block["rate"] < 1.0

    def test_unstable_step_exits_2_with_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_CONFIG, mu=1.0))
        assert main(["theory", "--config", str(cfg)]) == 2
        assert "bound" in capsys.readouterr().err

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["theory", "--config", str(path)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("sigma_n2", [0.01, float("nan")]), ("w_star", [float("inf"), 0.5]),
        ("r_u", [[[1.0, 0.0], [0.0, float("nan")]]] * 2),
    ])
    def test_non_finite_model_exits_3(self, tmp_path, capsys, field, value):
        model = dict(TINY_CONFIG["model"], **{field: value})
        cfg = write_config(tmp_path, dict(TINY_CONFIG, model=model))
        assert main(["theory", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize("mu", [float("nan"), float("inf"),
                                    [5e-4, float("nan")]])
    def test_non_finite_step_size_exits_3(self, tmp_path, capsys, command,
                                          mu):
        cfg = write_config(tmp_path, dict(TINY_CONFIG, mu=mu))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 3
        assert "step sizes must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize("field, value, sizes", [
        ("mu", [1e-3, 1e-3], ["got 2 step sizes", "for 30 agents"]),
        ("mu", [], ["got 0 step sizes", "for 30 agents"]),
        ("r_u", np.eye(2).tolist(), ["(10, 10)", "(30, 10, 10)", "(2, 2)"]),
        ("r_u", np.ones((3, 1, 1)).tolist(),
         ["(10, 10)", "(30, 10, 10)", "(3, 1, 1)"]),
    ])
    def test_shape_errors_name_the_sizes(self, tmp_path, capsys, command,
                                         field, value, sizes):
        preset = tmp_path / "fig4.json"
        assert main(["preset", "fig4", "--out", str(preset)]) == 0
        cfg = json.loads(preset.read_text())
        if field == "mu":
            cfg["mu"] = value
        else:
            cfg["model"]["r_u"] = value
        argv = [command, "--config", str(write_config(tmp_path, cfg))]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        for size in sizes:
            assert size in err

    def test_single_agent_baseline_value(self, tmp_path, capsys):
        # one agent, dimension 10, unit covariance, noise 0.1, mu 1e-3:
        # the classic steady-state law gives exactly 1e-3
        cfg = {
            "seed": 0,
            "topology": {"kind": "ring", "n": 1},
            "model": {"m": 10, "w_star": [0.0] * 10, "r_u": "identity",
                      "sigma_n2": [0.1]},
            "policy": {"kind": "atc", "weights": "metropolis"},
            "mu": 1e-3,
        }
        path = write_config(tmp_path, cfg)
        assert main(["theory", "--config", str(path)]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["msd_first_order"] == pytest.approx(1e-3, rel=1e-10)


class TestPreset:
    def test_fig4_parameters(self, tmp_path):
        out = tmp_path / "fig4.json"
        assert main(["preset", "fig4", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())
        assert cfg["topology"]["n"] == 30
        assert cfg["model"]["m"] == 10
        assert cfg["mu"] == 5e-4
        assert cfg["policy"]["weights"] == "hastings"
        assert cfg["policy"]["target"] == "optimal"
        assert cfg["policy"]["kind"] == "atc"

    def test_partial_obs_complementary_covariances(self, tmp_path):
        out = tmp_path / "po.json"
        main(["preset", "partial_obs", "--out", str(out)])
        cfg = json.loads(out.read_text())
        r = np.asarray(cfg["model"]["r_u"])
        assert r.shape == (2, 2, 2)
        assert np.linalg.matrix_rank(r[0]) == 1
        assert np.linalg.matrix_rank(r[1]) == 1
        assert np.linalg.matrix_rank(r[0] + r[1]) == 2

    def test_topology_invariance_has_two_variants_same_target(self, tmp_path):
        out = tmp_path / "ti.json"
        main(["preset", "topology_invariance", "--out", str(out)])
        cfg = json.loads(out.read_text())
        kinds = {v["kind"] for v in cfg["compare_topologies"]}
        assert kinds == {"ring", "random_geometric"}
        assert isinstance(cfg["policy"]["target"], list)
        assert sum(cfg["policy"]["target"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["fig4", "partial_obs",
                                      "topology_invariance"])
    def test_round_trip_is_identity(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        main(["preset", name, "--out", str(out)])
        text = out.read_text()
        cfg = json.loads(text)
        assert json.dumps(cfg, indent=2, sort_keys=True) + "\n" == text

    def test_unknown_preset_exits_3(self, tmp_path, capsys):
        code = main(["preset", "bogus", "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "unknown preset" in capsys.readouterr().err

    def test_partial_obs_runs_end_to_end_when_scaled_down(self, tmp_path):
        cfg_path = tmp_path / "po.json"
        main(["preset", "partial_obs", "--out", str(cfg_path)])
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--trials", "2", "--iters", "60"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["summary"]["steady_state"]) == 2

    def test_fig4_runs_end_to_end_when_scaled_down(self, tmp_path):
        cfg_path = tmp_path / "fig4.json"
        main(["preset", "fig4", "--out", str(cfg_path)])
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--trials", "2", "--iters", "80"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["summary"]["steady_state"]) == 30
        deltas = report["summary"]["theory_delta_db"]
        assert len(deltas) == 30
        assert all(row["delta_db"] is not None for row in deltas)

    def test_topology_invariance_theory_reports_tiny_delta(self, tmp_path,
                                                           capsys):
        cfg_path = tmp_path / "ti.json"
        main(["preset", "topology_invariance", "--out", str(cfg_path)])
        capsys.readouterr()
        assert main(["theory", "--config", str(cfg_path)]) == 0
        block = json.loads(capsys.readouterr().out)
        assert len(block["variants"]) == 2
        assert block["max_abs_msd_delta"] < 1e-12
