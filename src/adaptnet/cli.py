"""Config-driven experiment runner.

Subcommands:

    run    --config cfg.json --out DIR [--trials N] [--iters N]
           [--seed S] [--strategy consensus|atc|cta]
    theory --config cfg.json
    preset NAME --out cfg.json          (fig4 | partial_obs | topology_invariance)

Exit codes, chosen by ``main`` alone: 0 success, 2 divergence or a step
size not below the stability bound, 3 a config or usage error.  All
randomness derives from the single top-level seed in the config; the
schema is documented in the README.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import policy as policy_mod
from . import sim as sim_mod
from . import theory as theory_mod
from . import topology as topology_mod
from .errors import (AdaptNetError, ConfigError, DivergenceError,
                     StabilityError)

PRESET_NAMES = ("fig4", "partial_obs", "topology_invariance")


# --------------------------------------------------------------------------
# config -> objects
# --------------------------------------------------------------------------

def _object(value, name: str) -> dict:
    """`value` if it is a JSON object; a ``ConfigError`` naming `name` if not."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, not "
                          f"{type(value).__name__}")
    return value


def _int(value, name: str) -> int:
    """`value` if it is a JSON integer; a ``ConfigError`` naming `name` if
    not (``true`` and ``2.9`` included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be a JSON integer, not {value!r}")
    return value


def _float(value, name: str) -> float:
    """`value` as a float if it is a JSON number; a ``ConfigError`` naming
    `name` if not (``"5e-4"`` and ``true`` included)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a JSON number, not {value!r}")
    return float(value)


def _floats(value, name: str) -> np.ndarray:
    """`value`, a JSON number or nested lists of them, as a float array;
    a ``ConfigError`` naming `name` for any other entry."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack += item
        else:
            _float(item, name if item is value else f"each entry of {name}")
    return np.asarray(value, dtype=float)


def _bool(value, name: str) -> bool:
    """`value` if it is a JSON boolean; a ``ConfigError`` naming `name` if
    not (``"no"`` and ``0`` included)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, not {value!r}")
    return value


def _build_topology(spec: dict) -> topology_mod.Topology:
    kind = spec.get("kind")
    if kind == "ring":
        return topology_mod.ring(_int(spec["n"], "topology.n"))
    if kind == "random_geometric":
        return topology_mod.random_geometric(
            _int(spec["n"], "topology.n"),
            _float(spec["radius"], "topology.radius"),
            _int(spec["seed"], "topology.seed"))
    if kind == "edges":
        return topology_mod.from_edges(_int(spec["n"], "topology.n"),
                                       spec["edges"])
    raise ConfigError(f"unknown topology kind {kind!r}")


def _build_w_star(spec, m: int) -> np.ndarray:
    if isinstance(spec, dict):
        if spec.get("kind") != "seeded_unit":
            raise ConfigError(f"unknown w_star spec {spec!r}")
        v = np.random.default_rng(
            _int(spec["seed"], "model.w_star.seed")).standard_normal(m)
        return v / np.linalg.norm(v)
    v = _floats(spec, "model.w_star")
    if v.shape != (m,):
        raise ConfigError(f"w_star must have {m} entries")
    return v


def _build_model(spec: dict, n: int) -> model_mod.LinearModel:
    m = _int(spec["m"], "model.m")
    w_star = _build_w_star(spec["w_star"], m)
    r_spec = spec.get("r_u", "identity")
    if isinstance(r_spec, str):
        if r_spec != "identity":
            raise ConfigError(f"unknown r_u spec {r_spec!r}")
        r_u = np.eye(m)
    else:
        r_u = _floats(r_spec, "model.r_u")
    if r_u.shape not in ((m, m), (n, m, m)):
        raise ConfigError(
            f"r_u must be one ({m}, {m}) matrix or a ({n}, {m}, {m}) "
            f"stack ({n} agents, m = {m}), not shape {r_u.shape}")
    # a read-only view, which the model keeps as it is: one shared matrix
    # stays one block broadcast over the agents, and a stack is not copied
    r_u = np.broadcast_to(r_u, (n, m, m))
    noise = spec["sigma_n2"]
    if isinstance(noise, dict):
        if noise.get("kind") != "log_uniform":
            raise ConfigError(f"unknown sigma_n2 spec {noise!r}")
        noise = model_mod.noise_profile(
            n, _int(noise["seed"], "model.sigma_n2.seed"),
            _float(noise.get("lo", 1e-3), "model.sigma_n2.lo"),
            _float(noise.get("hi", 1e-1), "model.sigma_n2.hi"),
            _bool(noise.get("anchor", True), "model.sigma_n2.anchor"))
    else:
        noise = _floats(noise, "model.sigma_n2")
    return model_mod.LinearModel(w_star=w_star, r_u=r_u, sigma_n2=noise)


def _build_policy(spec: dict, topo: topology_mod.Topology,
                  model: model_mod.LinearModel, mu_max: float
                  ) -> tuple[policy_mod.CombinationPolicy,
                             theory_mod.OptimalWeights | None]:
    """The policy, plus the optimal weights when its Hastings target is
    ``"optimal"`` (None otherwise)."""
    kind = spec.get("kind", "atc")
    weights = spec.get("weights", "metropolis")
    optimal = None
    if weights == "metropolis":
        a = policy_mod.build_metropolis(topo)
    elif weights == "uniform":
        a = policy_mod.build_uniform_averaging(topo)
    elif weights == "hastings":
        target = spec.get("target")
        if target == "optimal":
            optimal = theory_mod.optimal_theta_for_model(model, mu_max)
            target = optimal.theta
        else:
            target = _floats(target, "policy.target")
        a = policy_mod.build_hastings(topo, target)
    else:
        raise ConfigError(f"unknown weight rule {weights!r}")
    return policy_mod.assemble(kind, a, support=topo), optimal


def build_experiment(
        cfg: dict) -> tuple[sim_mod.SimConfig, theory_mod.OptimalWeights | None]:
    """Resolve a config dict into the experiment: a ``SimConfig`` whose
    ``model``, ``policy`` and ``perron`` the reports read and which
    ``sim.run`` steps, and the optimal weights solved for a Hastings
    target of ``"optimal"`` (None otherwise), which the report reuses."""
    try:
        topo = _build_topology(_object(cfg["topology"], "topology"))
        model = _build_model(_object(cfg["model"], "model"), topo.n)
        mus = policy_mod._step_sizes(_floats(cfg["mu"], "mu"), topo.n)
        policy, optimal = _build_policy(
            _object(cfg.get("policy", {}), "policy"), topo, model,
            float(mus.max()))
        experiment = sim_mod.SimConfig(
            trials=_int(cfg.get("trials", 100), "trials"),
            iters=_int(cfg.get("iters", 10_000), "iters"),
            seed=_int(cfg.get("seed", 0), "seed"),
            policy=policy, model=model, mus=mus,
            steady_window=_float(cfg.get("steady_window", 0.1),
                                 "steady_window"),
            paired_streams=_bool(cfg.get("paired_streams", False),
                                 "paired_streams"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return experiment, optimal


def theory_block(cfg: dict, experiment: sim_mod.SimConfig,
                 optimal: theory_mod.OptimalWeights | None
                 ) -> tuple[dict, dict]:
    """(report of the simulated topology, theory block) for a config whose
    experiment, and with it any optimal weights, is already built.

    With ``compare_topologies`` the block holds one report per variant;
    each distinct topology is resolved once, and a variant equal to the
    simulated topology reuses its report.
    """
    def report(exp, optimal):
        return theory_mod.report_to_json(theory_mod.build_report(
            exp.model, exp.policy, exp.perron, optimal))

    own = report(experiment, optimal)
    variants = cfg.get("compare_topologies")
    if not variants:
        return own, own
    if not isinstance(variants, list):
        raise ConfigError("compare_topologies must be a list of topologies, "
                          f"not {type(variants).__name__}")
    reports = {json.dumps(cfg["topology"], sort_keys=True): own}
    blocks = []
    for variant in variants:
        key = json.dumps(variant, sort_keys=True)
        if key not in reports:
            reports[key] = report(
                *build_experiment(dict(cfg, topology=variant)))
        blocks.append({"topology": variant, "theory": reports[key]})
    msds = [b["theory"]["msd_first_order"] for b in blocks]
    return own, {"variants": blocks,
                 "max_abs_msd_delta": float(max(msds) - min(msds))}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _object(cfg, f"config {path}")


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _prepare(config_path: str, trials=None, iters=None, seed=None,
             strategy=None) -> tuple[dict, sim_mod.SimConfig, dict, dict]:
    """``run`` and ``theory``'s front half: (config with the overrides
    applied, experiment, report of the simulated topology, theory block).
    Raises ``StabilityError`` for a step size not below the stability
    bound unless the config sets allow_unstable."""
    cfg = _load_config(config_path)
    overrides = {"trials": trials, "iters": iters, "seed": seed}
    cfg.update((k, v) for k, v in overrides.items() if v is not None)
    if strategy is not None:
        cfg["policy"] = dict(_object(cfg.get("policy", {}), "policy"),
                             kind=strategy)
    allow_unstable = _bool(cfg.get("allow_unstable", False), "allow_unstable")
    experiment, optimal = build_experiment(cfg)
    own, block = theory_block(cfg, experiment, optimal)
    mu_max, bound = experiment.perron.mu_max, own["mu_bound"]
    if not (mu_max < bound or allow_unstable):
        raise StabilityError(
            f"step size {mu_max:.3e} is not below the stability bound "
            f"{bound:.3e}; set allow_unstable to force")
    return cfg, experiment, own, block


def cmd_run(config_path: str, out_dir: str, trials=None, iters=None,
            seed=None, strategy=None) -> None:
    cfg, experiment, own, theory = _prepare(config_path, trials, iters,
                                            seed, strategy)
    # a refused run leaves no directory; a bad --out fails before the run
    sim_mod._check_memory(experiment)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves = sim_mod.run(experiment)
    sim_mod.export_csv(curves, out / "curves.csv")
    (out / "theory.json").write_text(_dump(theory))
    report = {
        "config": cfg,
        "policy": policy_mod.policy_to_json(experiment.policy,
                                            experiment.perron),
        "theory": theory,
        "summary": sim_mod.run_summary(curves, own),
    }
    (out / "report.json").write_text(_dump(report))
    print(f"wrote {out / 'curves.csv'}, {out / 'report.json'}, "
          f"{out / 'theory.json'}")


def cmd_theory(config_path: str) -> None:
    sys.stdout.write(_dump(_prepare(config_path)[3]))


def _preset_config(name: str) -> dict:
    common = {"mu": 5e-4, "trials": 200, "steady_window": 0.1,
              "paired_streams": True}
    if name == "fig4":
        return {
            **common,
            "seed": 2024,
            "topology": {"kind": "random_geometric", "n": 30,
                         "radius": 0.35, "seed": 42},
            "model": {
                "m": 10,
                "w_star": {"kind": "seeded_unit", "seed": 5},
                "r_u": "identity",
                "sigma_n2": {"kind": "log_uniform", "lo": 1e-3, "hi": 1e-1,
                             "seed": 11, "anchor": True},
            },
            "policy": {"kind": "atc", "weights": "hastings",
                       "target": "optimal"},
            "iters": 30_000,
        }
    if name == "partial_obs":
        return {
            **common,
            "seed": 7,
            "topology": {"kind": "ring", "n": 2},
            "model": {
                "m": 2,
                "w_star": {"kind": "seeded_unit", "seed": 3},
                "r_u": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                "sigma_n2": [0.01, 0.04],
            },
            "policy": {"kind": "atc", "weights": "metropolis"},
            "iters": 80_000,
        }
    if name == "topology_invariance":
        rng = np.random.default_rng(9)
        target = 0.8 + 0.4 * rng.random(10)
        target /= target.sum()
        ring_spec = {"kind": "ring", "n": 10}
        rgg_spec = {"kind": "random_geometric", "n": 10,
                    "radius": 0.5, "seed": 21}
        return {
            **common,
            "seed": 5,
            "topology": ring_spec,
            "compare_topologies": [ring_spec, rgg_spec],
            "model": {
                "m": 5,
                "w_star": {"kind": "seeded_unit", "seed": 3},
                "r_u": "identity",
                "sigma_n2": {"kind": "log_uniform", "lo": 1e-3, "hi": 1e-1,
                             "seed": 7, "anchor": True},
            },
            "policy": {"kind": "atc", "weights": "hastings",
                       "target": target.tolist()},
            "iters": 40_000,
        }
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def cmd_preset(name: str, out_path: str) -> None:
    Path(out_path).write_text(_dump(_preset_config(name)))
    print(f"wrote {out_path}")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``ConfigError`` (exit 3): 2 means divergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    """Run one subcommand; the one place where a failure becomes an exit
    code."""
    parser = _Parser(
        prog="adaptnet",
        description="Distributed-adaptation experiments: simulate learning "
                    "curves and check them against closed-form predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and write curves + reports")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--iters", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--strategy", choices=policy_mod.PRESETS)

    p_theory = sub.add_parser("theory", help="print the closed-form report")
    p_theory.add_argument("--config", required=True)

    p_preset = sub.add_parser("preset", help="write a ready-made config")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cmd_run(args.config, args.out, trials=args.trials,
                    iters=args.iters, seed=args.seed, strategy=args.strategy)
        elif args.command == "theory":
            cmd_theory(args.config)
        else:
            cmd_preset(args.name, args.out)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:  # the step size refused by _prepare
        print(exc, file=sys.stderr)
        return 2
    except (AdaptNetError, ValueError, OSError) as exc:
        # OSError: an --out path that cannot be made or written
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    return 0
