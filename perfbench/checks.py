"""Output checks, sizes and per-layer metrics for ``run.py``.

Every job of a run does the same work on the same seed, so its outputs
must be bit-identical to the first job's (the package promises
reproducible trials).  The first job's outputs are then checked in full:

- against ``oracle.simulate`` / ``oracle.theory_scalars`` for any seed,
- against the values recorded at the seed commit in ``reference.json``
  (seed-independent values always; the rest when the seed matches),
- structurally: exit codes, CSV header and row count, ``report.json``
  parses and embeds ``theory.json``, and the reference recursion's fitted
  rate matches the theory rate to ``RATE_RTOL`` (acceptance criterion 5).

Tolerances (see ``tolerance.py`` for the experiment behind them):
``SIM_RTOL`` admits float reordering, which moves simulation outputs by
about 1e-14 relative, and rejects a changed stream or recursion, which
moves them by 1e-4 or more.  ``THEORY_RTOL`` admits the Perron vector's
power-iteration error (residual 1e-12 over a spectral gap down to 1e-3).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from workloads import CANONICAL, WORKLOADS, theory_configs

SIM_RTOL = 1e-9
THEORY_RTOL = 1e-6
RATE_RTOL = 1e-10
CSV_HEADER = ["iter", "agent", "msd", "msd_db", "centralized_msd",
              "reference_err", "centroid_offset"]
THEORY_KEYS = ("msd_first_order", "weighted_mse_hc_half", "rate", "mu_bound",
               "mu_max", "msd_opt")
SIM_ARRAYS = ("steady_msd", "stderr", "centralized", "msd", "centralized_msd",
              "reference_err", "centroid_offset")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

GRADIENT = "model.LinearModel.stochastic_gradient_network"
REGRESSORS = "model.LinearModel.regressors_from_raw"
LAYER_UNITS = {
    "sim.run.self_s": "s",
    "sim.run.us_per_step": "us",
    "sim.run.trial_steps_per_s": "1/s",
    "strategy.distributed_update.self_s": "s",
    "strategy.distributed_update.calls": "count",
    "model.gradient.distributed_s": "s",
    "model.gradient.centralized_s": "s",
    "model.gradient.calls": "count",
    "model.regressors_from_raw.s": "s",
    "model.regressors_from_raw.calls": "count",
    "model.normals_drawn": "count",
    "strategy.step_reference.s": "s",
    "sim.export_csv.s": "s",
    "sim.export_csv.rows": "count",
    "sim.export_csv.mb_per_s": "MB/s",
    "sim.run_summary.s": "s",
    "cli.build_experiment.calls": "count",
    "cli.theory_block.s": "s",
    "theory.optimal_theta_for_model.calls": "count",
    "theory.build_report.s": "s",
    "numerics.solve_lyapunov_continuous.s": "s",
    "model.limit_point.s": "s",
    "policy.build_perron.s": "s",
    "policy.build_perron.calls": "count",
    "policy.perron_vector.s": "s",
    "policy.is_primitive.s": "s",
    "policy.assemble.s": "s",
    "policy.build_hastings.s": "s",
    "topology.random_geometric.s": "s",
    "strategy.combine_flops": "count",
    "sim.block_buffer_mb": "MB",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# digests: what a job produced, in one shape for every workload
# --------------------------------------------------------------------------

def digest(workload: str, job: dict) -> dict:
    kind = WORKLOADS[workload]["job"]
    if kind == "library":
        out = job["outputs"]
        return {"fingerprint": _sha(json.dumps(out, sort_keys=True).encode()),
                "sim": {k: np.asarray(out[k], dtype=float) for k in SIM_ARRAYS},
                "a": np.asarray(out["a"]), "theta": np.asarray(out["theta"]),
                "p": np.asarray(out["p"]), "problems": []}
    if kind == "theory":
        blob = json.dumps([[op["exit"], op["stdout"]] for op in job["ops"]])
        return {"fingerprint": _sha(blob.encode()), "problems": [],
                "theory_ops": {op["name"]: op for op in job["ops"]}}
    return _cli_digest(job)


def _cli_digest(job: dict) -> dict:
    job_dir = Path(job["dir"])
    out = job_dir / "out"
    dg = {"problems": [], "config": json.loads((job_dir / "config.json").read_text())}
    if job["ops"][0]["exit"] != 0:
        dg["fingerprint"] = _sha(str(job["ops"][0]["exit"]).encode())
        return dg
    raw = {name: (out / name).read_bytes()
           for name in ("curves.csv", "report.json", "theory.json")}
    dg["fingerprint"] = _sha(*raw.values())
    dg["csv_bytes"] = len(raw["curves.csv"])
    try:
        report = json.loads(raw["report.json"])
        theory = json.loads(raw["theory.json"])
    except json.JSONDecodeError as exc:
        dg["problems"].append(f"report/theory JSON does not parse: {exc}")
        return dg
    if report.get("theory") != theory:
        dg["problems"].append("report.json does not embed theory.json")
    rows = list(csv.reader(raw["curves.csv"].decode().splitlines()))
    if rows[0] != CSV_HEADER:
        dg["problems"].append(f"CSV header {rows[0]} != {CSV_HEADER}")
    table = np.array([[float(x) for x in r] for r in rows[1:]])
    dg["csv_rows"] = table.shape[0]
    summary = report["summary"]
    iters, n = summary["iters"], len(summary["steady_state"])
    if table.shape != (iters * n, 7):
        dg["problems"].append(f"CSV has {table.shape[0]} rows, expected {iters} x {n}")
        return dg
    grid = table.reshape(iters, n, 7)
    if not (np.array_equal(grid[:, :, 0], np.repeat(np.arange(iters)[:, None], n, 1))
            and np.array_equal(grid[:, :, 1], np.tile(np.arange(n), (iters, 1)))):
        dg["problems"].append("CSV rows are not ordered (iter, agent)")
    if not np.allclose(grid[:, :, 3], 10.0 * np.log10(grid[:, :, 2]), rtol=1e-12, atol=0):
        dg["problems"].append("CSV msd_db is not 10 log10(msd)")
    for col, name in ((4, "centralized_msd"), (5, "reference_err")):
        if not (grid[:, :, col] == grid[:, :1, col]).all():
            dg["problems"].append(f"CSV {name} differs between agents of one iteration")
    steady = summary["steady_state"]
    dg["sim"] = {
        "steady_msd": np.array([r["steady_msd"] for r in steady]),
        "stderr": np.array([r["stderr"] for r in steady]),
        "centralized": np.array([summary["centralized"]["steady_msd"],
                                 summary["centralized"]["stderr"]]),
        "msd": grid[:, :, 2], "centralized_msd": grid[:, 0, 4],
        "reference_err": grid[:, 0, 5], "centroid_offset": grid[:, :, 6],
    }
    dg["trials"], dg["iters"] = summary["trials"], iters
    dg["a"] = np.asarray(report["policy"]["A"])
    dg["theta"] = np.asarray(report["policy"]["theta"])
    dg["p"] = np.asarray(report["policy"]["p"])
    dg["kind"] = report["policy"]["kind"]
    dg["theory"] = theory
    return dg


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------

def _rel_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def record_values(workload: str, dg: dict) -> dict:
    """Flat name -> value map of the checked outputs, for reference.json."""
    flat = {}
    if "sim" in dg:
        sim = dg["sim"]
        iters = sim["msd"].shape[0]
        for name in ("steady_msd", "stderr", "centralized"):
            flat[name] = sim[name].tolist()
        for i in sorted({0, 1, iters // 10, iters // 2, iters - 1}):
            flat[f"msd[{i}]"] = sim["msd"][i].tolist()
            flat[f"centroid_offset[{i}]"] = sim["centroid_offset"][i].tolist()
            flat[f"centralized_msd[{i}]"] = float(sim["centralized_msd"][i])
            flat[f"reference_err[{i}]"] = float(sim["reference_err"][i])
    for key in THEORY_KEYS + ("lambda2",):
        if dg.get("theory"):
            flat[f"theory.{key}"] = dg["theory"][key]
    for name, op in dg.get("theory_ops", {}).items():
        if op["exit"] == 0:
            out = json.loads(op["stdout"])
            for key in THEORY_KEYS + ("lambda2",):
                flat[f"{name}.{key}"] = out[key]
    return flat


def _seed_independent(workload: str, key: str) -> bool:
    return WORKLOADS[workload]["job"] != "theory" and \
        key.startswith(("reference_err", "theory."))


def _compare_recorded(workload: str, seed: int, dg: dict, problems, notes):
    try:
        recorded = json.loads(REFERENCE_FILE.read_text())["workloads"][workload]
    except (OSError, KeyError):
        notes.append("no recorded reference values for this workload")
        return
    same_seed = recorded["seed"] == seed
    current = record_values(workload, dg)
    compared, missing, worst = 0, 0, 0.0
    for key, want in recorded["values"].items():
        if not (same_seed or _seed_independent(workload, key)):
            continue
        if key not in current:  # its operation failed; counted as such
            missing += 1
            continue
        got = current[key]
        compared += 1
        if want is None or got is None:
            if got != want:
                problems.append(f"{key}: {got} != recorded {want}")
            continue
        dev = _rel_dev(got, want)
        worst = max(worst, dev)
        if dev > SIM_RTOL:
            problems.append(f"{key}: relative deviation {dev:.3e} from the value "
                            f"recorded at the seed commit")
    notes.append(f"recorded reference (seed {recorded['seed']}): {compared} values "
                 f"compared, max relative deviation {worst:.2e}; {missing} not produced")


def _check_theory_block(block: dict, closed: dict, tag: str, problems) -> float:
    worst = 0.0
    for key in THEORY_KEYS:
        want = closed[key]
        if want is None or block.get(key) is None:
            if block.get(key) != want:
                problems.append(f"{tag}{key}: {block.get(key)} != closed form {want}")
            continue
        dev = _rel_dev(block[key], want)
        worst = max(worst, dev)
        if dev > THEORY_RTOL:
            problems.append(f"{tag}{key}: {block[key]!r} vs closed form {want!r} "
                            f"(relative {dev:.2e})")
    if block.get("theta_opt") is not None and closed["msd_opt"] is not None:
        dev = _rel_dev(block["theta_opt"], closed["theta"])
        worst = max(worst, dev)
        if dev > THEORY_RTOL:
            problems.append(f"{tag}theta_opt vs closed form: relative {dev:.2e}")
    if not 0.0 <= block.get("lambda2", -1.0) < 1.0:
        problems.append(f"{tag}lambda2 {block.get('lambda2')} outside [0, 1)")
    return worst


def _check_sim(workload: str, seed: int, dg: dict, problems, notes):
    spec = WORKLOADS[workload]
    if spec["job"] == "library":
        c = CANONICAL
        w_star = oracle.seeded_unit(c["w_star_seed"], c["m"])
        r_u = np.broadcast_to(np.eye(c["m"]), (c["agents"], c["m"], c["m"])).copy()
        sigma2 = oracle.log_uniform(c["agents"], c["noise_seed"])
        kind, weights, mu = c["kind"], "hastings_optimal", c["mu"]
        trials, iters, window = c["trials"], c["iters"], c["steady_window"]
    else:
        cfg = dg["config"]
        n = int(cfg["topology"]["n"])
        w_star, r_u, sigma2 = oracle.model_from_config(cfg, n)
        kind = spec["strategy"] or cfg["policy"]["kind"]
        pol = cfg["policy"]
        weights = "hastings_optimal" if pol.get("weights") == "hastings" \
            and pol.get("target") == "optimal" else pol.get("weights")
        mu, trials, iters = float(cfg["mu"]), spec["trials"], spec["iters"]
        window = float(cfg.get("steady_window", 0.1))
        if dg["kind"] != kind or (dg["trials"], dg["iters"]) != (trials, iters):
            problems.append(f"report echoes {dg['kind']} {dg['trials']}x{dg['iters']}, "
                            f"expected {kind} {trials}x{iters}")
    closed = oracle.theory_scalars(r_u=r_u, sigma2=sigma2, mu=mu, weights=weights)
    a, theta = dg["a"], dg["theta"]
    if np.abs(a.sum(axis=0) - 1.0).max() > 1e-12 or (a < 0).any():
        problems.append("combination matrix is not left-stochastic")
    if np.abs(a @ theta - theta).max() > 1e-10:
        problems.append(f"theta is not a Perron vector (residual "
                        f"{np.abs(a @ theta - theta).max():.2e})")
    dev_theta = _rel_dev(theta, closed["theta"])
    if dev_theta > THEORY_RTOL:
        problems.append(f"theta vs closed-form Perron vector: relative {dev_theta:.2e}")
    a2 = oracle.combiners(kind, a)[2]
    dev_p = _rel_dev(dg["p"], theta if a2 is None else a2 @ theta)
    if dev_p > THEORY_RTOL:
        problems.append(f"p is not A2 theta: relative {dev_p:.2e}")
    if dg.get("theory") is not None:
        worst = _check_theory_block(dg["theory"], closed, "theory.json ", problems)
        notes.append(f"theory.json vs closed form: max relative deviation {worst:.2e}")

    ref = oracle.simulate(kind=kind, a=a, theta=theta, w_star=w_star, r_u=r_u,
                          sigma2=sigma2, mu=mu, seed=seed, trials=trials,
                          iters=iters, window=window)
    devs = {name: _rel_dev(dg["sim"][name], ref[name]) for name in SIM_ARRAYS}
    for name, dev in devs.items():
        if dev > SIM_RTOL:
            problems.append(f"{name}: relative deviation {dev:.3e} from the oracle")
    notes.append("oracle simulation: max relative deviation "
                 + ", ".join(f"{k} {v:.1e}" for k, v in devs.items()))

    rate = dg["theory"]["rate"] if dg.get("theory") else closed["rate"]
    fit = oracle.fitted_rate(dg["sim"]["reference_err"], iters // 10, iters - iters // 10)
    dev = abs(fit - rate) / rate
    if dev > RATE_RTOL:
        problems.append(f"reference-recursion fitted rate {fit!r} vs theory {rate!r} "
                        f"(relative {dev:.2e})")
    notes.append(f"reference-recursion rate vs theory: relative {dev:.1e}")


def _check_theory_ops(seed: int, dg: dict, problems, notes) -> set[str]:
    bad = set()
    for name, cfg in theory_configs(seed):
        op = dg["theory_ops"][name]
        if op["exit"] != 0:
            last = op["stderr"].strip().splitlines()[-1:] or [""]
            notes.append(f"{name}: exit {op['exit']} on a valid config ({last[0]})")
            continue
        n = int(cfg["topology"]["n"])
        _, r_u, sigma2 = oracle.model_from_config(cfg, n)
        closed = oracle.theory_scalars(r_u=r_u, sigma2=sigma2, mu=float(cfg["mu"]),
                                       weights="hastings_optimal")
        mine = []
        worst = _check_theory_block(json.loads(op["stdout"]), closed, f"{name}: ", mine)
        notes.append(f"{name}: closed-form max relative deviation {worst:.2e}")
        if mine:
            bad.add(name)
            problems.extend(mine)
    return bad


@dataclass
class Verdict:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def verify(workload: str, seed: int, jobs: list) -> Verdict:
    v = Verdict()
    expected_ops = len(theory_configs(seed)) if WORKLOADS[workload]["job"] == "theory" else 1
    good = [j for j in jobs if "error" not in j]
    bad_ops: set[str] = set()
    if good:
        first = good[0]["digest"]
        v.problems.extend(first["problems"])
        try:
            if WORKLOADS[workload]["job"] == "theory":
                bad_ops = _check_theory_ops(seed, first, v.problems, v.notes)
            elif "sim" in first:
                _check_sim(workload, seed, first, v.problems, v.notes)
            _compare_recorded(workload, seed, first, v.problems, v.notes)
        except Exception:  # malformed output: report it, keep the run going
            v.problems.append("output check raised: "
                              + traceback.format_exc().strip().splitlines()[-1])
        if v.problems and WORKLOADS[workload]["job"] != "theory":
            bad_ops = {op["op"] for op in good[0]["ops"]}
    for job in jobs:
        v.attempted += expected_ops
        if "error" in job:
            v.correct = False
            v.failed += expected_ops
            v.problems.append(f"job failed: {job['error'].strip().splitlines()[-1]}")
            continue
        if job["digest"]["fingerprint"] != good[0]["digest"]["fingerprint"]:
            v.correct = False
            v.failed += expected_ops
            v.problems.append("outputs differ between identical jobs")
            continue
        v.failed += sum(1 for op in job["ops"]
                        if op["exit"] != 0 or op["op"] in bad_ops
                        or op.get("name") in bad_ops)
    if v.problems:
        v.correct = False
    return v


# --------------------------------------------------------------------------
# sizes and per-layer metrics
# --------------------------------------------------------------------------

def sizes(workload: str, jobs: list) -> dict:
    spec = WORKLOADS[workload]
    good = [j for j in jobs if "error" not in j]
    block = good[0].get("block") if good else None
    if spec["job"] == "library":
        c = CANONICAL
        trials, iters, n, m, paired = c["trials"], c["iters"], c["agents"], c["m"], True
    elif spec["job"] == "cli_run" and good:
        cfg = good[0]["digest"]["config"]
        trials, iters = spec["trials"], spec["iters"]
        n, m = int(cfg["topology"]["n"]), int(cfg["model"]["m"])
        paired = bool(cfg.get("paired_streams", False))
    else:
        trials = iters = n = m = 0
        paired = True
    width = n * (m + 1)
    streams = 1 if paired else 2
    out = {"trials": trials, "iters": iters, "agents": n, "m": m,
           "stream_width": width, "paired_streams": paired, "block": block,
           # one combine factor per preset: (N x N) @ (N x M) per trial and step
           "combine_flops": 2 * n * n * m * trials * iters,
           "normals_drawn": streams * trials * iters * width}
    # raw normals of one block plus the (u, d) arrays made from them
    out["block_buffer_mb"] = None if block is None else \
        round(streams * 2 * trials * min(block, iters) * width * 8 / 1e6, 3)
    return out


def layer_metrics(jobs: list, size: dict, trial_steps_per_s: float) -> dict:
    traced = [j for j in jobs if j["traced"] and "error" not in j]
    plain = [j for j in jobs if not j["traced"] and "error" not in j]
    installed = set(traced[0]["trace"]["installed"]) if traced else set()

    def per_job(fn):
        vals = [fn(j) for j in traced]
        return None if not vals or None in vals else float(np.median(vals))

    def span(name, col, parent=lambda p: True):
        # col: 2 calls, 3 inclusive seconds, 4 self seconds
        if name not in installed:
            return lambda j: None
        return lambda j: sum(s[col] for s in j["trace"]["spans"]
                             if s[0] == name and parent(s[1]))

    iters = size["iters"]
    export_s = span("sim.export_csv", 3)
    out = {
        "sim.run.self_s": per_job(span("sim.run", 4)),
        "sim.run.us_per_step": per_job(
            lambda j: None if "sim.run" not in installed
            else (span("sim.run", 3)(j) / iters * 1e6 if iters else 0.0)),
        "sim.run.trial_steps_per_s": trial_steps_per_s,
        "strategy.distributed_update.self_s": per_job(span("strategy.distributed_update", 4)),
        "strategy.distributed_update.calls": per_job(span("strategy.distributed_update", 2)),
        "model.gradient.distributed_s": per_job(
            span(GRADIENT, 3, lambda p: p == "strategy.distributed_update")),
        "model.gradient.centralized_s": per_job(
            span(GRADIENT, 3, lambda p: p != "strategy.distributed_update")),
        "model.gradient.calls": per_job(span(GRADIENT, 2)),
        "model.regressors_from_raw.s": per_job(span(REGRESSORS, 3)),
        "model.regressors_from_raw.calls": per_job(span(REGRESSORS, 2)),
        "model.normals_drawn": size["normals_drawn"],
        "strategy.step_reference.s": per_job(span("strategy.step_reference", 3)),
        "sim.export_csv.s": per_job(export_s),
        "sim.export_csv.rows": per_job(
            lambda j: None if "sim.export_csv" not in installed
            else j["digest"].get("csv_rows", 0)),
        "sim.export_csv.mb_per_s": per_job(
            lambda j: None if "sim.export_csv" not in installed
            else (j["digest"].get("csv_bytes", 0) / 1e6 / export_s(j) if export_s(j) else 0.0)),
        "sim.run_summary.s": per_job(span("sim.run_summary", 3)),
        "cli.build_experiment.calls": per_job(span("cli.build_experiment", 2)),
        "cli.theory_block.s": per_job(span("cli.theory_block", 3)),
        "theory.optimal_theta_for_model.calls": per_job(span("theory.optimal_theta_for_model", 2)),
        "theory.build_report.s": per_job(span("theory.build_report", 3)),
        "numerics.solve_lyapunov_continuous.s": per_job(
            span("numerics.solve_lyapunov_continuous", 3)),
        "model.limit_point.s": per_job(span("model.limit_point", 3)),
        "policy.build_perron.s": per_job(span("policy.build_perron", 3)),
        "policy.build_perron.calls": per_job(span("policy.build_perron", 2)),
        "policy.perron_vector.s": per_job(span("policy.perron_vector", 3)),
        "policy.is_primitive.s": per_job(span("policy.is_primitive", 3)),
        "policy.assemble.s": per_job(span("policy.assemble", 3)),
        "policy.build_hastings.s": per_job(span("policy.build_hastings", 3)),
        "topology.random_geometric.s": per_job(span("topology.random_geometric", 3)),
        "strategy.combine_flops": size["combine_flops"],
        "sim.block_buffer_mb": size["block_buffer_mb"],
        "trace.overhead_s": None if not (traced and plain) else float(
            np.median([j["compute_s"] for j in traced])
            - np.median([j["compute_s"] for j in plain])),
        "trace.unattributed_s": per_job(
            lambda j: j["end"] - j["ops_start"] - j["trace"]["ops_top_s"]),
    }
    return out
