"""Workload definitions shared by run.py, its job process
and the reference recorder.

Every workload is plain data; ``job.py`` turns it into calls on the
package and ``oracle.py`` turns it into independent reference values.
The ``--seed`` argument drives the Monte Carlo streams of the simulation
workloads and the model (noise profile, w*) of the theory sweep; the
shapes below stay fixed so that runs on different seeds do the same work.
"""

from __future__ import annotations

# The canonical desk-scale experiment of the acceptance battery
# (tests/conftest.py), truncated to 500 of its 40 000 iterations.
CANONICAL = {
    "agents": 10, "m": 5, "mu": 5e-4, "trials": 400, "iters": 500,
    "w_star_seed": 3, "noise_seed": 7, "graph": [10, 0.7, 1],
    "kind": "atc", "steady_window": 0.1,
}


def theory_configs(seed: int) -> list[tuple[str, dict]]:
    """The theory sweep: geometric graphs N in {100, 300} x M in {10, 40}
    plus ring(300), all with the MSE-optimal Hastings target.

    Graph placements are fixed; the seed draws w* and the noise profile.
    Each step size sits at or below 2/3 of the bound 2 / (2 + 8 (M^2 + M))
    that identity covariances give.
    """
    def config(topology, m, mu):
        return {
            "seed": seed,
            "topology": topology,
            "model": {
                "m": m,
                "w_star": {"kind": "seeded_unit", "seed": seed},
                "r_u": "identity",
                "sigma_n2": {"kind": "log_uniform", "lo": 1e-3, "hi": 1e-1,
                             "seed": seed, "anchor": True},
            },
            "policy": {"kind": "atc", "weights": "hastings",
                       "target": "optimal"},
            "mu": mu,
        }

    rgg = {100: {"kind": "random_geometric", "n": 100, "radius": 0.25,
                 "seed": 100},
           300: {"kind": "random_geometric", "n": 300, "radius": 0.15,
                 "seed": 300}}
    out = []
    for n in (100, 300):
        for m, mu in ((10, 5e-4), (40, 1e-4)):
            out.append((f"rgg{n}_m{m}", config(rgg[n], m, mu)))
    out.append(("ring300_m10", config({"kind": "ring", "n": 300}, 10, 5e-4)))
    return out


WORKLOADS = {
    "canonical_atc": {
        "job": "library",
        "default_seed": 1000,
    },
    "fig4_run": {
        "job": "cli_run",
        "default_seed": 2024,
        "preset": "fig4",
        "trials": 50,
        "iters": 600,
        "strategy": None,
    },
    "partial_obs_cta": {
        "job": "cli_run",
        "default_seed": 7,
        "preset": "partial_obs",
        "trials": 200,
        "iters": 2000,
        "strategy": "cta",
    },
    "theory_sweep": {
        "job": "theory",
        "default_seed": 1,
    },
}
