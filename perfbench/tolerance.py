#!/usr/bin/env python3
"""The experiment behind ``checks.SIM_RTOL``.

    python3 perfbench/tolerance.py

On the canonical workload cut to 100 trials it prints
the largest relative deviation of every checked simulation output between:

- the package and ``oracle.simulate`` (other block size, other summation
  and association order): float reordering only;
- the oracle and itself with the trials stacked in reverse, which
  reverses every sum over trials: float reordering only;
- the package on seed s and on seed s + 1: a changed stream;
- the package with ATC and with CTA ordering: a changed recursion.

A tolerance must sit far above the first two rows and far below the last
two, except for outputs a row cannot change (``reference_err`` does not
depend on the stream).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import adaptnet  # noqa: E402
import oracle  # noqa: E402
from checks import SIM_ARRAYS, SIM_RTOL, _rel_dev  # noqa: E402
from job import canonical_experiment  # noqa: E402
from workloads import CANONICAL as C  # noqa: E402

TRIALS, SEED = 100, 1000


def package_run(kind: str, seed: int):
    policy, config = canonical_experiment(adaptnet, seed, kind, TRIALS)
    curves = adaptnet.run(config)
    steady, stderr = curves.steady_state()
    out = {"steady_msd": steady, "stderr": stderr,
           "centralized": np.array(curves.steady_state_centralized()),
           "msd": curves.msd, "centralized_msd": curves.centralized_msd,
           "reference_err": curves.reference_err,
           "centroid_offset": curves.centroid_offset}
    return out, config.model, policy, curves


def oracle_run(model, policy, curves, trial_ids=None):
    return oracle.simulate(kind=policy.kind, a=policy.a, theta=curves.theta,
                           w_star=model.w_star, r_u=model.r_u, sigma2=model.sigma_n2,
                           mu=C["mu"], seed=SEED, trials=TRIALS, iters=C["iters"],
                           window=C["steady_window"], trial_ids=trial_ids)


def main() -> int:
    base, model, policy, curves = package_run("atc", SEED)
    ref = oracle_run(model, policy, curves)
    rows = {
        "package vs oracle (reordered)": (base, ref),
        "oracle vs reversed trials (reordered)": (
            ref, oracle_run(model, policy, curves, range(TRIALS - 1, -1, -1))),
        "seed vs seed+1 (stream change)": (base, package_run("atc", SEED + 1)[0]),
        "atc vs cta (recursion change)": (base, package_run("cta", SEED)[0]),
    }
    print(f"{'comparison':40s} " + " ".join(f"{k:>15s}" for k in SIM_ARRAYS))
    for label, (got, want) in rows.items():
        print(f"{label:40s} " + " ".join(f"{_rel_dev(got[k], want[k]):15.2e}"
                                           for k in SIM_ARRAYS))
    print(f"SIM_RTOL = {SIM_RTOL:.0e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
