import threading
import time

import numpy as np
import pytest

from adaptnet import (LinearModel, SimConfig, assemble, build_hastings,
                      build_perron, build_report, noise_profile,
                      optimal_theta_for_model, random_geometric, run)

# canonical desk-scale experiment: 10 agents, dimension 5, identity
# regressor covariance, anchored 20 dB noise spread, MSE-optimal Hastings
# weights on a well-connected geometric graph, uniform step size 5e-4
N_AGENTS = 10
DIM = 5
MU = 5e-4
LAMBDA_L = 2.0  # network Hessian is 2 I for identity covariances
TRIALS = 400
ITERS = int(40 / (MU * LAMBDA_L))
NOISE_SEED = 7
SIM_SEED = 1000


def db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def canonical_model():
    w_star = np.random.default_rng(3).standard_normal(DIM)
    w_star /= np.linalg.norm(w_star)
    return LinearModel(
        w_star=w_star,
        r_u=np.broadcast_to(np.eye(DIM), (N_AGENTS, DIM, DIM)).copy(),
        sigma_n2=noise_profile(N_AGENTS, NOISE_SEED),
    )


def canonical_topology():
    return random_geometric(N_AGENTS, 0.7, 1)


def canonical_policy(kind, model=None, topology=None):
    model = model or canonical_model()
    topology = topology or canonical_topology()
    theta_opt = optimal_theta_for_model(model, MU).theta
    return assemble(kind, build_hastings(topology, theta_opt),
                    support=topology)


def canonical_run(kind, mu=MU, trials=TRIALS, seed=SIM_SEED):
    model = canonical_model()
    policy = canonical_policy(kind, model=model)
    iters = int(40 / (mu * LAMBDA_L))
    config = SimConfig(trials=trials, iters=iters, seed=seed, policy=policy,
                       model=model, mus=mu, steady_window=0.1,
                       paired_streams=True)
    started = time.perf_counter()
    curves = run(config)
    elapsed = time.perf_counter() - started
    return curves, elapsed


def canonical_report(kind="atc"):
    model = canonical_model()
    policy = canonical_policy(kind, model=model)
    return build_report(model, policy, build_perron(policy, MU))


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started still running."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"test left threads running: {leaked}")


@pytest.fixture(scope="session")
def atc_run():
    return canonical_run("atc")


@pytest.fixture(scope="session")
def atc_run_half_mu():
    return canonical_run("atc", mu=MU / 2)


@pytest.fixture(scope="session")
def atc_report():
    return canonical_report("atc")
