import csv
import dataclasses
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from adaptnet import (LinearModel, PerronData, SimConfig, assemble,
                      build_metropolis, build_perron, build_report,
                      export_csv, fit_geometric_rate, network_hessian,
                      noise_profile, random_geometric, ring, run, run_summary)
from adaptnet import sim
from adaptnet.errors import ContractError, DivergenceError, ObservabilityError


def small_config(n=3, m=2, mu=2e-3, sigma=None, trials=50, iters=400,
                 seed=11, kind="atc", paired=True, window=0.1, r_u=None):
    topo = ring(n)
    policy = assemble(kind, build_metropolis(topo), support=topo)
    rng = np.random.default_rng(5)
    w_star = rng.standard_normal(m)
    w_star /= np.linalg.norm(w_star)
    sigma_n2 = np.full(n, 0.01) if sigma is None else np.asarray(sigma)
    if r_u is None:
        r_u = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    model = LinearModel(w_star=w_star, r_u=r_u, sigma_n2=sigma_n2)
    return SimConfig(trials=trials, iters=iters, seed=seed, policy=policy,
                     model=model, mus=mu, steady_window=window,
                     paired_streams=paired)


class TestSteadyStateEstimate:
    """``LearningCurves.steady_state``: window means, trial-level errors."""

    def test_window_choice_consistency_on_seeded_run(self):
        curves = run(small_config(trials=100, iters=3000))
        full_mean, full_se = curves.steady_state()
        half_mean, half_se = curves.steady_state(half=True)
        for k in range(curves.n_agents):
            gap = abs(full_mean[k] - half_mean[k])
            assert gap < 2 * (full_se[k] + half_se[k])


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("window", [0.1, 0.33, 0.5])
@pytest.mark.parametrize("iters", [37, 101, 400])
def test_steady_windows_share_one_start(iters, window, half):
    curves = run(small_config(trials=4, iters=iters, window=window))
    share = 0.5 * window if half else window
    start = iters - math.ceil(share * iters)
    assert np.allclose(curves.steady_state(half)[0],
                       curves.msd[start:].mean(axis=0), rtol=1e-12, atol=0)
    assert np.allclose(curves.steady_offset(half),
                       curves.centroid_offset[start:].mean(axis=0),
                       rtol=1e-12, atol=0)


class TestFitGeometricRate:
    def test_exact_geometric_input(self):
        series = 0.9604 ** np.arange(200)
        assert fit_geometric_rate(series, 0, 200) \
            == pytest.approx(0.9604, abs=1e-12)

    def test_reference_recursion_rate(self):
        cfg = small_config(n=1, m=2, mu=0.01, trials=1, iters=200)
        curves = run(cfg)
        fitted = fit_geometric_rate(curves.reference_err, 5, 150)
        assert fitted == pytest.approx(0.9604, rel=1e-10)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            fit_geometric_rate(np.array([1.0, 0.0, 0.5]), 0, 3)
        # a fit range outside the series names the range and the length
        series = 0.9 ** np.arange(100)
        for i_start, i_end in [(50, 200), (-1, 50), (50, 101), (60, 60)]:
            with pytest.raises(ValueError,
                               match=rf"\[{i_start}, {i_end}\).*100 points"):
                fit_geometric_rate(series, i_start, i_end)
        assert fit_geometric_rate(series, 0, 100) == pytest.approx(0.9)


class TestRunBasics:
    def test_all_zero_steps_rejected(self):
        # the weighting vector p is undefined without a positive step
        with pytest.raises(ValueError):
            run(small_config(mu=0.0, trials=1, iters=10))

    def test_unobservable_model_rejected(self):
        # every agent sees only the first coordinate, so H_c is singular
        r_u = np.broadcast_to(np.diag([1.0, 0.0]), (3, 2, 2)).copy()
        cfg = small_config(trials=2, iters=10, r_u=r_u)
        with pytest.raises(ObservabilityError,
                           match="not jointly observable") as exc:
            run(cfg)
        assert abs(exc.value.extreme) <= 1e-10

    def test_vanishing_step_freezes_state(self):
        cfg = small_config(mu=1e-12, trials=1, iters=10)
        curves = run(cfg)
        w_star_sq = float(np.sum(curves.w_star ** 2))
        assert np.allclose(curves.msd, w_star_sq, rtol=1e-9)

    def test_noiseless_curve_decays_below_float_noise(self):
        cfg = small_config(mu=3e-2, sigma=[0.0, 0.0, 0.0], trials=1,
                           iters=400)
        curves = run(cfg)
        net = curves.msd.mean(axis=1)
        assert net[-1] < 1e-20
        assert (np.diff(net) <= 1e-25).all()

    def test_single_agent_matches_theory_within_ten_percent(self):
        m, mu = 10, 1e-3
        model = LinearModel(w_star=np.full(m, 1 / np.sqrt(m)),
                            r_u=np.eye(m)[None].copy(),
                            sigma_n2=np.array([0.1]))
        policy = assemble("atc", np.eye(1), support=ring(1))
        cfg = SimConfig(trials=500, iters=20_000, seed=3, policy=policy,
                        model=model, mus=mu)
        curves = run(cfg)
        steady, _ = curves.steady_state()
        theory = build_report(model, policy,
                              build_perron(policy, mu)).msd_first_order
        assert theory == pytest.approx(1e-3, rel=1e-12)
        assert steady[0] == pytest.approx(theory, rel=0.10)

    def test_reproducible_bit_for_bit(self):
        a = run(small_config())
        b = run(small_config())
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.centralized_msd, b.centralized_msd)
        assert np.array_equal(a.centroid_offset, b.centroid_offset)

    def test_divergence_raises_with_location(self, monkeypatch):
        # at 160 iterations the worker is drawing half-block 1 when
        # iteration 12 diverges; it must be joined before the error escapes.
        # At 400 the reference curve's powers overflow and each batch steps
        # on past the divergence; at mu = 1000, with a whole chunk per
        # batch, the iterates reach inf inside the batch.  Nothing may warn
        threads = threading.active_count()
        update = sim.distributed_update
        overflowed = []

        def spy(*args, **kwargs):
            out = update(*args, **kwargs)
            overflowed.append(bool(np.isinf(out).any()))
            return out

        monkeypatch.setattr(sim, "distributed_update", spy)
        cases = [(5.0, iters, sim._BATCH_BYTES, (1, 12))
                 for iters in (50, 160, 400)] + [(1e3, 400, 1 << 40, (0, 3))]
        for worker, paired, (mu, iters, budget, where) in itertools.product(
                (False, True), (True, False), cases):
            _force_worker(monkeypatch, worker)
            monkeypatch.setattr(sim, "_BATCH_BYTES", budget)
            overflowed.clear()
            cfg = small_config(mu=mu, trials=4, iters=iters, paired=paired)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DivergenceError) as err:
                    run(cfg)
            # the stability-bound warning only, no overflow
            assert [w.category for w in caught] == [UserWarning]
            assert "stability bound" in str(caught[0].message)
            assert (err.value.trial, err.value.iteration) == where
            assert any(overflowed) == (mu == 1e3)
            assert threading.active_count() == threads

    def test_block_buffers_must_fit_memory(self):
        # the narrow stream keeps 128-row halves, the 330-wide one takes
        # the 32-row floor; the error names the per-trial block it sized
        trials = 10**8
        for n, m, paired, block in ((3, 2, True, 256), (30, 10, False, 64)):
            width, streams = n * (m + 1), 1 if paired else 2
            assert 2 * sim._half_block(width) == block
            cfg = small_config(n=n, m=m, trials=trials, iters=50,
                               paired=paired)
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(ContractError,
                                   match="GiB of block buffers") as err:
                    run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 1.0
            assert peak < 1 << 20
            need = streams * trials * block * width * 8
            assert f"{need / 2**30:.1f} GiB" in str(err.value)
            assert (f"{streams} stream(s) of a {block}-iteration x "
                    f"{width}-normal x 8 B block per trial") in str(err.value)

    def test_result_arrays_must_fit_memory(self):
        # a billion iterations of the per-iteration curves cannot fit; the
        # check names the iteration count and the bytes per iteration
        iters = 10**9
        for n, m in ((3, 2), (30, 10)):
            cfg = small_config(n=n, m=m, trials=5, iters=iters)
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(ContractError,
                                   match="GiB of result arrays") as err:
                    run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 1.0
            assert peak < 1 << 20
            per_iter = (3 * n + 2 * m + 4) * 8
            assert (f"{iters} iterations {iters * per_iter / 2**30:.1f} GiB "
                    f"of result arrays ({per_iter} B per iteration)") \
                in str(err.value)

    def test_near_bound_step_warns(self):
        # bound for this model is lambda_l/(lambda_u^2/2 + 2 alpha) = 2/50
        cfg = small_config(mu=0.039, trials=2, iters=60)
        with pytest.warns(UserWarning, match="stability bound"):
            run(cfg)

    def test_unpaired_streams_differ_from_paired(self):
        paired = run(small_config(paired=True))
        unpaired = run(small_config(paired=False))
        assert np.array_equal(paired.msd, unpaired.msd)  # same distributed draw
        assert not np.array_equal(paired.centralized_msd,
                                  unpaired.centralized_msd)


def _force_worker(monkeypatch, on):
    """Draw on a worker thread for every stream width (on) or never."""
    monkeypatch.setattr(sim.os, "sched_getaffinity",
                        lambda pid: {0, 1} if on else {0})
    monkeypatch.setattr(sim, "_WORKER_MIN_WIDTH", 0)


def _run_noting_threads(cfg, monkeypatch):
    """Run cfg with monkeypatch; return the curves and whether a draw
    worker was started."""
    started = []
    work = sim._Draws._work

    def spy(self):
        started.append(threading.current_thread().name)
        work(self)

    monkeypatch.setattr(sim._Draws, "_work", spy)
    return run(cfg), bool(started)


_CURVE_FIELDS = ("msd", "centralized_msd", "reference_err", "centroid_offset",
                 "_window_means", "_window_means_half")


@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("kind", ["atc", "cta", "consensus"])
def test_serial_draws_match_the_worker(kind, paired, monkeypatch):
    # iteration counts around the 128-iteration half-block edges; the
    # wide streams (width 30) get the worker on two CPUs and none on one,
    # the narrow ones (width 9) none unless the width gate is lifted
    wide, narrow = (4, 5), (3, 2)
    assert wide[0] * (wide[1] + 1) >= sim._WORKER_MIN_WIDTH \
        > narrow[0] * (narrow[1] + 1)
    for iters in (37, 128, 129, 300):
        for n, m in (wide, narrow):
            cfg = small_config(n=n, m=m, trials=5, iters=iters, kind=kind,
                               paired=paired)
            with monkeypatch.context() as mp:
                _force_worker(mp, True)
                threaded, used = _run_noting_threads(cfg, mp)
            assert used
            with monkeypatch.context() as mp:
                if (n, m) == wide:
                    mp.setattr(sim.os, "sched_getaffinity", lambda pid: {0})
                serial, used = _run_noting_threads(cfg, mp)
            assert not used
            for name in _CURVE_FIELDS:
                assert np.array_equal(getattr(serial, name),
                                      getattr(threaded, name)), name


@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("kind", ["atc", "cta", "consensus"])
def test_batch_size_changes_nothing(kind, paired, monkeypatch):
    # one step per batch, the default batch and a whole chunk per batch;
    # 40 trials of width 9 put the default strictly between the two, and
    # its batches divide neither the chunk with a worker (a half-block)
    # nor the one without (the whole block)
    trials, n, m = 40, 3, 2
    width = n * (m + 1)
    default = sim._BATCH_BYTES // (trials * width * 8)
    half = sim._half_block(width)
    for chunk in (half, 2 * half):
        assert 1 < default < chunk and chunk % default
    for identity, worker, iters in itertools.product(
            (True, False), (True, False), (37, 128, 129, 300)):
        cfg = small_config(n=n, m=m, trials=trials, iters=iters, kind=kind,
                           paired=paired,
                           r_u=None if identity else _spd_covariances(n, m, 4))
        results = []
        with monkeypatch.context() as mp:
            _force_worker(mp, worker)
            for budget in (0, sim._BATCH_BYTES, 1 << 40):
                mp.setattr(sim, "_BATCH_BYTES", budget)
                results.append(run(cfg))
        for name in _CURVE_FIELDS:
            for other in results[1:]:
                assert np.array_equal(getattr(results[0], name),
                                      getattr(other, name)), name


@pytest.mark.parametrize("n, m", [(3, 2), (30, 10)])
@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("worker", [True, False])
def test_half_block_size_changes_nothing(worker, paired, n, m, monkeypatch):
    # half-blocks of 32 (the floor), 35, 69 and 128 rows on a narrow and a
    # wide stream; 37 and 300 iterations end mid-chunk for each, and 300
    # wraps every block buffer at least once
    width = n * (m + 1)
    init = sim._Draws.__init__
    rows = set()

    def spy(self, streams, lo, hi, worker):
        rows.update(buf.shape[1] for _, buf in streams)
        init(self, streams, lo, hi, worker)

    monkeypatch.setattr(sim._Draws, "__init__", spy)
    _force_worker(monkeypatch, worker)
    for iters in (37, 300):
        cfg = small_config(n=n, m=m, mu=1e-3, trials=3, iters=iters,
                           paired=paired)
        results = []
        for half in (32, 35, 69, 128):
            with monkeypatch.context() as mp:
                mp.setattr(sim, "_DRAW_NORMALS", half * width)
                assert sim._half_block(width) == half
                rows.clear()
                results.append(run(cfg))
            assert rows == {2 * half}
        for name in _CURVE_FIELDS:
            for other in results[1:]:
                assert np.array_equal(getattr(results[0], name),
                                      getattr(other, name)), name


def test_draws_index_rows_by_the_buffer_length():
    # a 70-row buffer, shorter than _BLOCK: iterations [105, 140) go to
    # rows 35..69 and continue each trial's stream; rows 0..34 stay as
    # they were
    trials, width, rows = 3, 7, 70
    assert rows < sim._BLOCK
    buf = np.zeros((trials, rows, width))
    gens = [np.random.default_rng(s) for s in range(trials)]
    for g in gens:
        g.standard_normal((105, width))
    sim._Draws([(gens, buf)], 105, 140, worker=False).wait()
    for t in range(trials):
        stream = np.random.default_rng(t).standard_normal((140, width))
        assert np.array_equal(buf[t, 35:], stream[105:])
    assert not buf[:, :35].any()


class TestDrawWorkerLifetime:
    """The worker is joined before ``run`` returns or raises."""

    @pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
    def test_joined_when_the_reference_loop_raises(self, fault, monkeypatch):
        _force_worker(monkeypatch, True)
        threads = threading.active_count()

        def broken(*args):
            raise fault("reference curve failed")

        monkeypatch.setattr(sim, "reference_error_curve", broken)
        with pytest.raises(fault, match="reference curve failed"):
            run(small_config(trials=200, iters=300))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("paired", [True, False])
    def test_joined_on_interrupt_mid_run(self, paired, monkeypatch):
        _force_worker(monkeypatch, True)
        threads = threading.active_count()
        steps = []
        update = sim.distributed_update

        def interrupted(*args, **kwargs):
            steps.append(None)
            if len(steps) == 140:  # inside half-block 1, 2 being drawn
                raise KeyboardInterrupt
            return update(*args, **kwargs)

        monkeypatch.setattr(sim, "distributed_update", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(small_config(trials=50, iters=700, paired=paired))
        assert threading.active_count() == threads

    def test_worker_error_is_raised_by_run(self, monkeypatch):
        _force_worker(monkeypatch, True)
        draw = sim._Draws._draw

        def failing(self):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room for the draws")
            draw(self)

        monkeypatch.setattr(sim._Draws, "_draw", failing)
        with pytest.raises(MemoryError, match="no room for the draws"):
            run(small_config(trials=5, iters=300))


def test_each_trial_is_drawn_once_under_contention():
    # more drawing threads than cores, switching as often as the
    # interpreter allows: a trial taken twice or skipped changes the buffer
    trials, width = 64, 20

    def streams():
        return [([np.random.default_rng(s) for s in range(trials)],
                 np.zeros((trials, sim._BLOCK, width)))]

    expected = streams()
    sim._Draws(expected, 128, 256, worker=False).wait()
    got = streams()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        draws = sim._Draws(got, 128, 256, worker=True)
        helpers = [threading.Thread(target=draws._draw) for _ in range(4)]
        for helper in helpers:
            helper.start()
        draws.wait()
        for helper in helpers:
            helper.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(helper.is_alive() for helper in helpers)
    assert np.array_equal(got[0][1], expected[0][1])


def _spd_covariances(n, m, seed):
    q = np.random.default_rng(seed).standard_normal((n, m, m))
    return q @ q.transpose(0, 2, 1) / m + 0.5 * np.eye(m)


@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("identity", [True, False])
@pytest.mark.parametrize("n, m", [(10, 5), (30, 10)])
@pytest.mark.parametrize("kind", ["atc", "cta", "consensus"])
def test_trial_rows_do_not_depend_on_trial_count(kind, n, m, identity, paired):
    # trial t's stream and recursion are its own; only the summation order
    # of the combine product, whose width is M*T, may differ between counts
    r_u = None if identity else _spd_covariances(n, m, 9)
    runs = {t: run(small_config(n=n, m=m, mu=1e-4, trials=t, iters=60,
                                kind=kind, paired=paired, window=0.5,
                                r_u=r_u))
            for t in (1, 2, 8)}
    full = runs[8]
    for t in (1, 2):
        for field_ in ("_window_means", "_window_means_half"):
            assert np.allclose(getattr(runs[t], field_),
                               getattr(full, field_)[:t], rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def heterogeneous_runs():
    # bound = 2 / (2 + 48) = 0.04; mu = 2e-3 = bound/20
    sigma = noise_profile(3, 5, 1e-3, 1e-1)
    base = dict(n=3, m=2, sigma=sigma, trials=300, seed=23, paired=True)
    at_mu = run(small_config(mu=2e-3, iters=10_000, **base))
    at_half = run(small_config(mu=1e-3, iters=20_000, **base))
    return at_mu, at_half


class TestStatisticalBehavior:

    def test_step_halving_halves_msd(self, heterogeneous_runs):
        at_mu, at_half = heterogeneous_runs
        full, _ = at_mu.steady_state()
        half, _ = at_half.steady_state()
        ratio = half.mean() / full.mean()
        assert 0.4 <= ratio <= 0.6

    def test_equalization_within_one_db(self, heterogeneous_runs):
        at_mu, _ = heterogeneous_runs
        steady, _ = at_mu.steady_state()
        spread_db = 10 * np.log10(steady.max() / steady.min())
        assert spread_db <= 1.0

    def test_centralized_match(self, heterogeneous_runs):
        at_mu, _ = heterogeneous_runs
        steady, stderr = at_mu.steady_state()
        cent, cent_se = at_mu.steady_state_centralized()
        for k in range(3):
            gap = abs(steady[k] - cent)
            assert gap <= max(3 * (stderr[k] + cent_se), 0.10 * cent)


def _offset_ratio(curves):
    """Network steady offset energy over the network steady MSD."""
    return curves.steady_offset().mean() / curves.steady_state()[0].mean()


class TestDecomposition:
    def test_single_agent_offset_is_zero(self):
        curves = run(small_config(n=1, trials=20, iters=300))
        report = run_summary(curves)["decomposition"]
        assert report["network"]["offset_to_msd"] == 0.0

    def test_zero_msd_at_half_step_gives_zero_ratio(self):
        # w* = 0 without noise: every iterate stays at zero, so both steady
        # MSDs are 0 and the ratios must not divide by them
        topo = ring(3)
        policy = assemble("atc", build_metropolis(topo), support=topo)
        model = LinearModel(w_star=np.zeros(2),
                            r_u=np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
                            sigma_n2=np.zeros(3))
        for mu in (2e-3, 1e-3):
            curves = run(SimConfig(trials=2, iters=20, seed=1, policy=policy,
                                   model=model, mus=mu))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                summary = run_summary(curves)
            report = summary["decomposition"]
            assert report["network"]["offset_to_msd"] == 0.0
            assert [row["offset_to_msd"] for row in report["per_agent"]] \
                == [0.0] * 3
            json.dumps(summary, allow_nan=False)

    def test_offsets_small_for_both_orderings_on_shared_streams(self):
        # consensus and adapt-then-combine, same seed hence same samples:
        # both centroid offsets stay far below the MSD and shrink with mu.
        # needs a non-complete ring so the combination step does not collapse
        # every iterate onto the centroid exactly
        ratios = {}
        for kind in ("consensus", "atc"):
            at_mu = run(small_config(n=5, kind=kind, trials=150, iters=8000,
                                     mu=2e-3, seed=77))
            at_half = run(small_config(n=5, kind=kind, trials=150,
                                       iters=16_000, mu=1e-3, seed=77))
            ratios[kind] = _offset_ratio(at_mu), _offset_ratio(at_half)
            assert run_summary(at_mu)["decomposition"]["network"][
                "offset_to_msd"] == ratios[kind][0]
        for kind, (ratio_mu, ratio_half) in ratios.items():
            assert ratio_mu < 0.25, kind
            response = ratio_half / ratio_mu
            assert 0.3 <= response <= 0.7, (kind, response)
        # noise enters consensus iterates before averaging: larger offset
        assert ratios["consensus"][0] > ratios["atc"][0]


class TestExports:
    def test_csv_layout(self, tmp_path):
        curves = run(small_config(trials=5, iters=40))
        path = tmp_path / "curves.csv"
        export_csv(curves, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "iter", "agent", "msd", "msd_db", "centralized_msd",
            "reference_err", "centroid_offset"]
        assert len(lines) == 1 + 40 * 3

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        curves = run(small_config(trials=3, iters=40))
        curves.msd[0, 1] = 0.0  # a zero MSD exports msd_db = -inf
        path = tmp_path / "curves.csv"
        export_csv(curves, path)
        ref = tmp_path / "reference.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "agent", "msd", "msd_db",
                             "centralized_msd", "reference_err",
                             "centroid_offset"])
            for i in range(curves.iters):
                for k in range(curves.n_agents):
                    x = float(curves.msd[i, k])
                    writer.writerow([
                        i, k, repr(x),
                        repr(10.0 * math.log10(x) if x > 0 else float("-inf")),
                        repr(float(curves.centralized_msd[i])),
                        repr(float(curves.reference_err[i])),
                        repr(float(curves.centroid_offset[i, k]))])
        assert path.read_bytes() == ref.read_bytes()
        assert b"\r\n0,1,0.0,-inf," in path.read_bytes()

    @staticmethod
    def wide_curves(iters, n, seed=0):
        """A small run's curves with synthetic (iters, n) series put in."""
        rng = np.random.default_rng(seed)
        msd = rng.random((iters, n)) ** 8
        msd[::97, -1] = 0.0
        return dataclasses.replace(
            run(small_config(trials=2, iters=20)), msd=msd,
            centroid_offset=rng.random((iters, n)) * 1e-3,
            centralized_msd=rng.random(iters), reference_err=rng.random(iters))

    @staticmethod
    def one_pass_bytes(curves):
        """The CSV as one string built over every row at once."""
        n = curves.n_agents
        msd = curves.msd.ravel().tolist()
        db = [repr(10.0 * math.log10(x)) if x > 0 else "-inf" for x in msd]
        offset = curves.centroid_offset.ravel().tolist()
        cent = curves.centralized_msd.tolist()
        ref = curves.reference_err.tolist()
        lines = ["iter,agent,msd,msd_db,centralized_msd,reference_err,"
                 "centroid_offset\r\n"]
        lines += [f"{r // n},{r % n},{msd[r]!r},{db[r]},{cent[r // n]!r},"
                  f"{ref[r // n]!r},{offset[r]!r}\r\n" for r in range(len(msd))]
        return "".join(lines).encode()

    # 4 096 // n iterations per chunk: 585 (7 agents, 8.5 chunks), 1 (5 000
    # agents, one iteration a chunk) and 4 096 (one agent, a short last one)
    @pytest.mark.parametrize("iters, n", [(5000, 7), (3, 5000), (8200, 1)])
    def test_chunked_bytes_match_one_pass(self, tmp_path, iters, n):
        curves = self.wide_curves(iters, n)
        export_csv(curves, tmp_path / "curves.csv")
        assert (tmp_path / "curves.csv").read_bytes() == self.one_pass_bytes(curves)

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        curves = self.wide_curves(20_000, 10)
        tracemalloc.start()
        try:
            export_csv(curves, tmp_path / "curves.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "curves.csv").stat().st_size
        assert size > 20 << 20
        assert peak < size / 5, (peak, size)

    def test_summary_contains_theory_deltas(self):
        curves = run(small_config(trials=5, iters=40))
        summary = run_summary(curves, {"msd_first_order": 1e-4})
        assert len(summary["steady_state"]) == 3
        assert len(summary["theory_delta_db"]) == 3
        assert summary["centralized"]["steady_msd"] > 0


class TestConfigValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            small_config(window=0.9)

    def test_rejects_too_few_iterations(self):
        with pytest.raises(ValueError):
            small_config(iters=5)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", [np.nan, np.inf, [5e-4, np.nan]])
    def test_rejects_non_finite_step_sizes(self, mu):
        with pytest.raises(ValueError, match="step sizes must be finite"):
            small_config(n=2, mu=mu)

    @pytest.mark.parametrize("mu, count", [([1e-3, 1e-3], 2), ([], 0),
                                           ([[1e-3]] * 3, 3)])
    def test_step_size_count_is_named(self, mu, count):
        with pytest.raises(ValueError,
                           match=rf"got {count} step sizes .* for 3 agents"):
            small_config(n=3, mu=mu)

    def test_perron_data_is_derived_and_frozen(self):
        cfg = small_config(mu=[1e-3, 2e-3, 4e-3], kind="cta")
        want = build_perron(cfg.policy, cfg.mus)
        for f in dataclasses.fields(PerronData):
            assert np.array_equal(getattr(cfg.perron, f.name),
                                  getattr(want, f.name)), f.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.iters = 20

    def test_mus_are_a_read_only_copy(self):
        # a change to the caller's array after construction changes nothing
        mus = np.full(3, 1e-3)
        cfg = small_config(mu=mus, trials=2, iters=10)
        mus[:] = 5e-3
        assert cfg.mus is cfg.perron.mus
        assert np.array_equal(cfg.mus, np.full(3, 1e-3))
        assert run(cfg).mu_max == 1e-3
        with pytest.raises(ValueError, match="read-only"):
            cfg.mus[0] = 5e-3
