"""One benchmark job, run by ``run.py`` in a fresh child process.

    python3 perfbench/job.py --workload NAME --seed N --dir DIR \
        --result FILE [--trace]

Set-up (interpreter start, imports, building the experiment) ends at the
single call into ``adaptnet.sim.run``, or at the first ``adaptnet theory``
call of the theory sweep.  The job writes CLOCK_MONOTONIC timestamps,
peak RSS, exit codes, the outputs ``run.py`` checks and, with
``--trace``, the module-boundary spans to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class OpClock:
    """Marks the start and end of the timed operations, each with the time
    covered by top-level spans so far."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.start = self.end = self.top_start = self.top_end = None

    def _traced(self) -> float:
        return self.tracer.top_s if self.tracer else 0.0

    def start_ops(self) -> float:
        self.start, self.top_start = now(), self._traced()
        return self.start

    def end_ops(self) -> float:
        self.end, self.top_end = now(), self._traced()
        return self.end


class SimProbe:
    """Wraps ``adaptnet.sim.run`` to timestamp the call; absent if renamed."""

    def __init__(self, sim):
        self.entered = self.left = None
        real = getattr(sim, "run", None)
        if real is None:
            return

        def run(*args, **kwargs):
            self.entered = now()
            try:
                return real(*args, **kwargs)
            finally:
                self.left = now()

        sim.run = run


def _call_cli(cli, argv):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def canonical_experiment(adaptnet, seed, kind="atc", trials=None):
    """(policy, sim config) of the canonical experiment, as tests/conftest.py
    builds it."""
    from workloads import CANONICAL as c
    import numpy as np

    w_star = np.random.default_rng(c["w_star_seed"]).standard_normal(c["m"])
    w_star /= np.linalg.norm(w_star)
    model = adaptnet.LinearModel(
        w_star=w_star,
        r_u=np.broadcast_to(np.eye(c["m"]), (c["agents"], c["m"], c["m"])).copy(),
        sigma_n2=adaptnet.noise_profile(c["agents"], c["noise_seed"]),
    )
    topo = adaptnet.random_geometric(*c["graph"])
    theta = adaptnet.optimal_theta_for_model(model, c["mu"]).theta
    policy = adaptnet.assemble(kind, adaptnet.build_hastings(topo, theta),
                               support=topo)
    config = adaptnet.SimConfig(
        trials=trials or c["trials"], iters=c["iters"], seed=seed, policy=policy,
        model=model, mus=c["mu"], steady_window=c["steady_window"],
        paired_streams=True)
    return policy, config


def library_job(adaptnet, seed, clock):
    from workloads import CANONICAL

    policy, config = canonical_experiment(adaptnet, seed, CANONICAL["kind"])
    first = clock.start_ops()
    curves = adaptnet.sim.run(config)
    end = clock.end_ops()
    steady, stderr = curves.steady_state()
    cent, cent_se = curves.steady_state_centralized()
    outputs = {
        "a": policy.a.tolist(), "theta": curves.theta.tolist(),
        "p": curves.p.tolist(),
        "steady_msd": steady.tolist(), "stderr": stderr.tolist(),
        "centralized": [cent, cent_se],
        "msd": curves.msd.tolist(),
        "centralized_msd": curves.centralized_msd.tolist(),
        "reference_err": curves.reference_err.tolist(),
        "centroid_offset": curves.centroid_offset.tolist(),
    }
    return first, end, [{"op": "sim.run", "exit": 0}], outputs


def cli_run_job(adaptnet, spec, seed, probe, clock, job_dir):
    cli = adaptnet.cli
    cfg_path = job_dir / "config.json"
    code, _, err = _call_cli(cli, ["preset", spec["preset"], "--out", str(cfg_path)])
    if code != 0:
        raise RuntimeError(f"preset {spec['preset']} exited {code}: {err}")
    argv = ["run", "--config", str(cfg_path), "--out", str(job_dir / "out"),
            "--trials", str(spec["trials"]), "--iters", str(spec["iters"]),
            "--seed", str(seed)]
    if spec["strategy"]:
        argv += ["--strategy", spec["strategy"]]
    start = clock.start_ops()
    code, _, err = _call_cli(cli, argv)
    end = clock.end_ops()
    first = probe.entered if probe.entered is not None else start
    return first, end, [{"op": "adaptnet run", "exit": code, "stderr": err}], None


def theory_job(adaptnet, seed, clock, job_dir):
    from workloads import theory_configs

    paths = []
    for name, cfg in theory_configs(seed):
        path = job_dir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths.append((name, path))
    ops = []
    first = clock.start_ops()
    for name, path in paths:
        code, out, err = _call_cli(adaptnet.cli, ["theory", "--config", str(path)])
        ops.append({"op": f"adaptnet theory {name}", "name": name, "exit": code,
                    "stdout": out, "stderr": err})
    end = clock.end_ops()
    return first, end, ops, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS
    spec = WORKLOADS[args.workload]
    job_dir = Path(args.dir)

    import adaptnet
    import adaptnet.cli
    import adaptnet.sim

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(adaptnet)
    probe = SimProbe(adaptnet.sim)
    clock = OpClock(tracer)

    result = {"workload": args.workload, "seed": args.seed,
              "block": getattr(adaptnet.sim, "_BLOCK", None)}
    try:
        if spec["job"] == "library":
            first, end, ops, outputs = library_job(adaptnet, args.seed, clock)
        elif spec["job"] == "cli_run":
            first, end, ops, outputs = cli_run_job(adaptnet, spec, args.seed,
                                                   probe, clock, job_dir)
        else:
            first, end, ops, outputs = theory_job(adaptnet, args.seed, clock, job_dir)
    except Exception:  # reported to run.py, which counts the failure
        result["error"] = traceback.format_exc()
        Path(args.result).write_text(json.dumps(result))
        return 1

    result.update({
        "first": first, "ops_start": clock.start, "end": end, "ops": ops,
        "outputs": outputs,
        "sim_entered": probe.entered, "sim_left": probe.left,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["trace"] = tracer.export()
        result["trace"]["ops_top_s"] = clock.top_end - clock.top_start
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
