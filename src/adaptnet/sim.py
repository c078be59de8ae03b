"""Monte Carlo learning-curve harness.

Runs the distributed, centralized, and reference recursions side by side
over many seeded trials and produces per-agent mean-square-deviation
curves, measured against the network limit point w*, steady-state
estimates with trial-level standard errors (``LearningCurves``), fitted
convergence rates, and a JSON summary with the centroid decomposition
(``run_summary``).

Trials are evolved in lockstep, agent-major: the iterates are one
(N + 1, M, T) array, rows 0..N-1 the agents and row N the centralized
iterate, with the T trials on the last axis, so each combine is one
(N, N) @ (N, M*T) product.  The array holds the deviation x = w - w*,
not w: every row starts at w = 0, so at -w*, and is stepped on the
regressors and the scaled noise (u, v) in place of the measurement
d = u w* + v.  The combiners are left-stochastic, so they commute with
the shift, and the gradient reads only the residual d - u w = v - u x;
the squared error is then sum x^2, and the rounding of each combine is
relative to the error, not to w*.  Each trial owns a counter-derived random
stream, consumed in fixed-size iteration blocks laid out iteration-major
with the regressor normals of all agents followed by the measurement
noises; the draws do not depend on the trial count, and a trial's
results agree across trial counts to rounding (the product's summation
order depends on M*T).

Each stream's block buffer, (T, 2 * half, width), is a double buffer of
two half-blocks sized by normals, not iterations: half is
ceil(``_DRAW_NORMALS`` / width) rows, at least ``_MIN_HALF`` and at most
``_HALF`` = 128, so a per-trial draw call holds about 2 560 normals
where neither bound applies.  Streams up to 20 normals wide keep 128-row
halves; the canonical 60-wide stream takes 43 rows (400 trials: 16.5 MB),
and fig4's 330-wide stream the 32-row floor (50 trials: 8.4 MB).  A
worker thread draws the next half for every trial while the main thread
steps through the current one (numpy's normal fill releases the
interpreter lock), and the main thread, once through its half, draws the
trials the worker has not reached.  Each generator is called in the same
order over the same iterations whatever the half, and a normal fill
continues its stream across calls, so the results depend neither on the
half-block size nor on which thread draws.  No worker is used when the
process may run on one CPU only, or when the streams are narrower than
``_WORKER_MIN_WIDTH`` normals per network sample, where the per-trial
draws are too small to pay for handing the interpreter lock back and
forth.

The stepping thread walks through its chunk (a half-block, or the whole
block without a worker) in batches of k iterations: k is the largest
count whose raw draws, k * T * (N*M + N) * 8 bytes, fit ``_BATCH_BYTES``,
but at least 1 and at most the chunk.  Per batch the (u, v) transform is
one call, the kernels write into k preallocated iterate slots (two banks
used in turn; with k = 1 a plain ping-pong), and one statistics pass
covers the whole batch.  Every step does the same arithmetic whatever k
is, so k changes no result.  The batch buffers are bounded by the
budget: each holds at most about ``_BATCH_BYTES`` (an iterate bank
(N + 1) M / (N M + N) times it), or one step's worth when k = 1.  The
deterministic reference curve is one closed form,
``reference_error_curve``.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DivergenceError
from .model import assumption_constants
from .policy import CombinationPolicy, PerronData, build_perron
from .strategy import (centralized_update, distributed_update,
                       reference_error_curve, transposed_combiners)
from .theory import stable_step_bound

_BLOCK = 256  # the largest block buffer, in iterations
_HALF = _BLOCK // 2
# normals per per-trial draw call: the half-block is
# ceil(_DRAW_NORMALS / width) rows, between _MIN_HALF and _HALF.  Fewer
# normals take more draw calls per iteration, and the cost follows the
# call count (the worker takes the interpreter lock back after each
# fill), so a smaller call has to be paid for by a cheaper step.  On
# perfbench's canonical_atc (400 x 60, 500 iterations; a 2-vCPU VM, one
# BLAS thread), with the step size folded into the kernels' residuals,
# ten alternating 25 s pairs each against 3 072 (52 rows) and the unfused
# kernels: 3 072 read compute_s -3.8%, faster in 9 of 10 pairs; 2 048
# (35 rows) +5.8%, faster in 1 of 10 and outside the parent's quartiles,
# with peak RSS 55.6 MB against 61.9; 2 560 (43 rows) +3.7%, faster in 5
# of 10 and inside them, with 58.6 MB.  The floor bounds how often a
# chunk boundary starts a worker thread
_DRAW_NORMALS = 2560
_MIN_HALF = 32
# narrower streams draw serially: on 2 vCPUs the worker's time over the
# serial time was about 1.0 at width 12 and 0.87 at width 16
_WORKER_MIN_WIDTH = 16
# raw draws per batch of steps, T * k * (N*M + N) * 8 bytes at most (k >= 1)
# sim.run on partial_obs_cta (200 trials x 6 normals, 2 000 iterations; a
# 2-vCPU VM, one BLAS thread) took 0.34, 0.24, 0.21, 0.20, 0.20, 0.19 s at
# 0, 32, 64, 128, 256, 512 KiB (k = 1, 3, 6, 13, 27, 54), and its peak RSS
# grew by about 0.3 MB at 64 KiB, 0.9 MB at 128 and 1.9 MB at 256 over k = 1.
# The canonical (400 x 60) and fig4 (50 x 330) streams keep k = 1.
_BATCH_BYTES = 64 << 10
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CENT_SALT = 0x94D049BB133111EB
_DIVERGENCE_SQ = 1e24  # on squared error norms, i.e. deviations above 1e12


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(seed: int, trial: int, salt: int = 0) -> int:
    """Counter-based per-trial stream seed: splitmix of seed ^ trial * odd."""
    return _splitmix64((seed ^ (trial * _GOLDEN) ^ salt) & _MASK64)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo experiment description, frozen so that its derived
    Perron data cannot go stale.

    mus: the step sizes, one per agent or one scalar for all; stored as
    ``perron.mus``, a read-only (N,) copy, so that a later change to the
    caller's array changes neither.
    paired_streams: when True the centralized recursion consumes the same
    samples as the distributed one (variance-reduced comparisons);
    otherwise it draws its own per-trial streams.
    perron: ``build_perron(policy, mus)``, built once here; ``run`` and the
    CLI's reports read it.
    """

    trials: int
    iters: int
    seed: int
    policy: CombinationPolicy
    model: object
    mus: object
    steady_window: float = 0.1
    paired_streams: bool = False
    perron: PerronData = field(init=False, repr=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.iters < 10:
            raise ValueError("need at least 10 iterations")
        if not 0.0 < self.steady_window <= 0.5:
            raise ValueError("steady_window must lie in (0, 0.5]")
        perron = build_perron(self.policy, self.mus)
        object.__setattr__(self, "perron", perron)
        object.__setattr__(self, "mus", perron.mus)


@dataclass
class LearningCurves:
    """Per-iteration error series averaged over trials, plus the per-trial
    means over the steady window and over its last half, for standard
    errors: two (T, N + 1) tables, columns 0..N-1 the agents and column N
    the centralized run, as in the iterates."""

    msd: np.ndarray               # (iters, N)
    centralized_msd: np.ndarray   # (iters,)
    reference_err: np.ndarray     # (iters,)
    centroid_offset: np.ndarray   # (iters, N)
    trials: int
    config: SimConfig
    w_star: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    mu_max: float
    _window_means: np.ndarray = field(repr=False)       # (T, N + 1)
    _window_means_half: np.ndarray = field(repr=False)  # (T, N + 1)

    @property
    def iters(self) -> int:
        return self.msd.shape[0]

    @property
    def n_agents(self) -> int:
        return self.msd.shape[1]

    def steady_state(self, half: bool = False):
        """Per-agent steady MSD: (mean (N,), trial-level stderr (N,))."""
        v = (self._window_means_half if half else self._window_means)[:, :-1]
        return v.mean(axis=0), _stderr(v)

    def steady_state_centralized(self, half: bool = False):
        v = (self._window_means_half if half else self._window_means)[:, -1]
        return float(v.mean()), float(_stderr(v[:, None])[0])

    def steady_offset(self, half: bool = False) -> np.ndarray:
        """Per-agent steady centroid-offset energy (window mean)."""
        start = _window_starts(self.iters, self.config.steady_window)[half]
        return self.centroid_offset[start:].mean(axis=0)


def _window_starts(iters: int, window: float) -> tuple[int, int]:
    """Starts of the steady window, the last ceil(window * iters) points,
    and of its last half, the last ceil(window * iters / 2) points."""
    return (iters - math.ceil(window * iters),
            iters - math.ceil(0.5 * window * iters))


def _stderr(v: np.ndarray) -> np.ndarray:
    if v.shape[0] < 2:
        return np.zeros(v.shape[1])
    return v.std(axis=0, ddof=1) / math.sqrt(v.shape[0])


def _half_block(width: int) -> int:
    """Rows of a half-block for a stream of `width` normals per network
    sample; the block buffer holds two."""
    return min(_HALF, max(_MIN_HALF, -(-_DRAW_NORMALS // width)))


class _Draws:
    """The draws of iterations [lo, hi) for every trial of every stream,
    into the block buffer rows from lo modulo the buffer's length.  Each
    trial's draw is taken by whichever thread asks next: the worker
    started here, if any, and the caller of ``wait``, so neither idles
    while the other draws."""

    def __init__(self, streams, lo: int, hi: int, worker: bool):
        tasks = []
        for gens, buf in streams:
            start = lo % buf.shape[1]
            tasks += zip(gens, buf[:, start:start + hi - lo])
        self._todo = iter(tasks)
        self._lock = threading.Lock()
        self._error = None
        self._worker = None
        if worker:
            self._worker = threading.Thread(target=self._work,
                                            name="adaptnet-draws")
            self._worker.start()

    def _draw(self) -> None:
        while True:
            with self._lock:
                task = next(self._todo, None)
            if task is None:
                return
            g, dst = task
            g.standard_normal(dst.shape, out=dst)

    def _work(self) -> None:
        try:
            self._draw()
        except Exception as exc:  # re-raised by wait on the stepping thread
            self._error = exc

    def wait(self) -> None:
        """Draw what is left, join the worker and re-raise its error."""
        self._draw()
        self.cancel()
        if self._error is not None:
            raise self._error

    def cancel(self) -> None:
        """Drop the draws no thread has taken and join the worker."""
        with self._lock:
            self._todo = iter(())
        if self._worker is not None:
            self._worker.join()


def _use_worker(width: int) -> bool:
    """Draw on a worker thread when a second CPU is available to this
    process and a per-trial draw is wide enough to pay for the lock
    handoffs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus > 1 and width >= _WORKER_MIN_WIDTH


def _check_memory(config: SimConfig) -> None:
    """``ContractError`` when the block buffers, T * 2 * half * (N*M + N) * 8
    bytes per stream, and the result arrays, at most (3N + 2M + 4) * 8 bytes
    per iteration, together exceed physical memory."""
    model = config.model
    n, m, width = model.n_agents, model.m, model.stream_width
    block = 2 * _half_block(width)
    n_streams = 1 if config.paired_streams else 2
    blocks = n_streams * config.trials * block * width * 8
    # per iteration: the (N + 1) squared-error sums and N offsets, the
    # divided msd and centralized curves, and the reference curve with its
    # exponent and its (iters, M) power and gap, counted as if all live
    per_iter = (3 * n + 2 * m + 4) * 8
    results = config.iters * per_iter
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if blocks + results > have:
        raise ContractError(
            f"{config.trials} trials need {blocks / 2**30:.1f} GiB of block "
            f"buffers ({n_streams} stream(s) of a {block}-iteration x "
            f"{width}-normal x 8 B block per trial) and {config.iters} "
            f"iterations {results / 2**30:.1f} GiB of result arrays "
            f"({per_iter} B per iteration), more than the "
            f"{have / 2**30:.1f} GiB of physical memory"
        )


def run(config: SimConfig) -> LearningCurves:
    """Evolve all three recursions and accumulate learning curves, in the
    blocks and batches the module docstring lays out.

    Agents start from zero, so the curves begin in the coordinated
    (reference-tracking) phase directly; the stepped deviation w - w*
    starts at -w* in every row.  Raises ``DivergenceError`` at
    the first iteration, and its first trial (agents before the
    centralized row), where a trajectory leaves the trust region, which
    signals an unstable step size; the steps a batch takes past that
    point raise no overflow warnings.  Raises ``ContractError`` before
    any work when the buffers exceed physical memory (``_check_memory``).
    """
    _check_memory(config)
    model, policy = config.model, config.policy
    n, m, width = model.n_agents, model.m, model.stream_width
    half_rows = _half_block(width)
    block = 2 * half_rows
    perron = config.perron
    theta, p, mus, mu_max = perron.theta, perron.p, perron.mus, perron.mu_max
    w_star = model.w_star
    # the constants again, though the CLI's report holds mu_bound: a library
    # caller has no report, and the CLI refuses an unstable step from that
    # report before run.  Raises ObservabilityError when H_c is singular
    bound = stable_step_bound(assumption_constants(model, p), p)
    if mu_max > 0.9 * bound:
        warnings.warn(
            f"mu_max={mu_max:.3e} is within 10% of the stability bound "
            f"{bound:.3e}; expect inaccurate or divergent behavior",
            stacklevel=2,
        )

    trials, iters = config.trials, config.iters
    combiners = transposed_combiners(policy)

    streams = [([np.random.default_rng(trial_seed(config.seed, t))
                 for t in range(trials)], np.empty((trials, block, width)))]
    if not config.paired_streams:
        streams.append(([np.random.default_rng(
            trial_seed(config.seed, t, _CENT_SALT)) for t in range(trials)],
            np.empty((trials, block, width))))
    raw, raw_c = streams[0][1], streams[-1][1]
    # with a worker, half-block c + 1 is drawn while c is stepped through
    worker = _use_worker(width)
    chunk = half_rows if worker else block
    batch = max(1, min(chunk, _BATCH_BYTES // (trials * width * 8)))
    pending = _Draws(streams, 0, min(chunk, iters), worker)
    try:
        # the deterministic reference curve, shared by every trial, from
        # the agents' Perron-weighted start theta @ 0 = 0 (a worker draws
        # the first chunk meanwhile)
        ref_err = reference_error_curve(np.zeros(m), perron, model, iters)

        full_start, half_start = _window_starts(iters, config.steady_window)
        window, half = iters - full_start, iters - half_start

        # two banks of `batch` slots of the deviation x = w - w*, stepped
        # into in turn: agents in rows 0..N-1, the centralized row N,
        # trials last; every row starts at w = 0, so x = -w*
        bank, spare = np.empty((2, batch, n + 1, m, trials))
        x = spare[-1]
        np.negative(w_star[:, None], out=x)
        off_buf = np.empty((batch, n, m * trials))
        work = np.empty((n, m, trials))
        sq = np.empty((batch, n + 1, trials))
        acc = np.zeros((n + 1, trials))
        acc_half = np.zeros((n + 1, trials))
        sums = np.empty((iters, n + 1))
        offsets = np.empty((iters, n))

        for lo in range(0, iters, chunk):
            hi = min(lo + chunk, iters)
            pending.wait()
            pending = _Draws(streams, hi, min(hi + chunk, iters), worker) \
                if hi < iters else None

            for start in range(lo, hi, batch):
                stop = min(start + batch, hi)
                steps = stop - start
                rows = slice(start % block, start % block + steps)
                u, v = model.regressors_from_raw(raw[:, rows].swapaxes(0, 1))
                uc, vc = (u, v) if config.paired_streams \
                    else model.regressors_from_raw(
                        raw_c[:, rows].swapaxes(0, 1))
                slots, q = bank[:steps], sq[:steps]
                # x steps on v as w would on d (module docstring).  Past a
                # divergence the batch steps on to its end; the check below
                # reports the first step that left the trust region
                with np.errstate(over="ignore", invalid="ignore"):
                    for s, nxt in enumerate(slots):
                        distributed_update(x[:n], combiners, mus, model,
                                           u[s], v[s], out=nxt[:n], work=work)
                        centralized_update(x[n], p, mu_max, model, uc[s],
                                           vc[s], out=nxt[n])
                        x = nxt
                    np.einsum("skmt,skmt->skt", slots, slots, out=q)

                if not q.max() <= _DIVERGENCE_SQ:
                    bad = ~(q <= _DIVERGENCE_SQ)
                    s = int(np.flatnonzero(bad.any(axis=(1, 2)))[0])
                    by_agent = bad[s, :n].any(axis=0)
                    trial = int(np.flatnonzero(by_agent if by_agent.any()
                                               else bad[s, n])[0])
                    raise DivergenceError(
                        f"trajectory diverged at trial {trial}, iteration "
                        f"{start + s}; the step size is too large",
                        trial=trial, iteration=start + s,
                    )
                np.sum(q, axis=2, out=sums[start:stop])

                agents = slots[:, :n].reshape(steps, n, -1)
                off = np.subtract(agents, (theta @ agents)[:, None],
                                  out=off_buf[:steps])
                np.einsum("sij,sij->si", off, off, out=offsets[start:stop])

                # row by row in iteration order, as a per-step sum adds
                for i in range(max(start, full_start), stop):
                    acc += q[i - start]
                    if i >= half_start:
                        acc_half += q[i - start]
                bank, spare = spare, bank
    finally:
        if pending is not None:
            pending.cancel()

    # trial means: the sums over trials divided by T, as np.mean computes
    offsets /= trials
    return LearningCurves(
        msd=sums[:, :n] / trials,
        centralized_msd=sums[:, n] / trials,
        reference_err=ref_err,
        centroid_offset=offsets,
        trials=trials,
        config=config,
        w_star=w_star,
        theta=theta,
        p=p,
        mu_max=mu_max,
        # the (N + 1, T) sums divided, viewed as (T, N + 1): each column is
        # contiguous, which fixes the order of the reductions over trials
        _window_means=(acc / window).T,
        _window_means_half=(acc_half / half).T,
    )


def fit_geometric_rate(series, i_start: int, i_end: int) -> float:
    """Per-step geometric ratio from a least-squares fit of log(series).

    Applied to the reference-recursion error it recovers the squared
    spectral contraction exactly when the decay is single-mode.
    """
    series = np.asarray(series, dtype=float)
    if not 0 <= i_start < i_end <= len(series):
        raise ValueError(f"fit range [{i_start}, {i_end}) must lie within "
                         f"the series' {len(series)} points")
    seg = series[i_start:i_end]
    if seg.size < 2:
        raise ValueError("need at least two points to fit a rate")
    if (seg <= 0).any():
        raise ValueError("series must be strictly positive on the fit range")
    x = np.arange(i_start, i_end, dtype=float)
    slope = np.polyfit(x, np.log(seg), 1)[0]
    return float(np.exp(slope))


def export_csv(curves: LearningCurves, path) -> None:
    """Long-format dump: iter, agent, msd, msd_db, centralized_msd,
    reference_err, centroid_offset.

    The bytes are those of ``csv.writer`` on the ``repr`` of each value
    (CRLF line ends, nothing to quote).  The lines are built and written
    about 4 096 rows (whole iterations, at least one) at a time, so the
    memory held does not grow with the file.
    """
    n = curves.n_agents
    step = max(1, 4096 // n)
    with open(path, "w", newline="") as fh:
        fh.write("iter,agent,msd,msd_db,centralized_msd,reference_err,"
                 "centroid_offset\r\n")
        for start in range(0, curves.iters, step):
            rows = slice(start, start + step)
            shared = [f"{c!r},{r!r}" for c, r in zip(
                curves.centralized_msd[rows].tolist(),
                curves.reference_err[rows].tolist())]
            offset = curves.centroid_offset[rows].ravel().tolist()
            fh.write("".join([
                f"{start + i // n},{i % n},{x!r},"
                f"{10.0 * math.log10(x) if x > 0 else -math.inf!r},"
                f"{shared[i // n]},{offset[i]!r}\r\n"
                for i, x in enumerate(curves.msd[rows].ravel().tolist())]))


def run_summary(curves: LearningCurves, theory: dict | None = None) -> dict:
    """Steady-state table, centroid decomposition and deltas against a
    theory block, JSON-ready.

    The decomposition splits each agent's error into the centroid's and
    the offset w_k - w_c: the offset energy E||w_k - w_c||^2 scales with
    the square of the step size while the MSD scales linearly, so their
    ratio is small and should roughly halve when the step size does.
    """
    steady, stderr = curves.steady_state()
    cent, cent_se = curves.steady_state_centralized()
    offset = curves.steady_offset()
    ratios = np.divide(offset, steady, out=np.zeros_like(offset),
                       where=steady > 0)

    def _db(x):
        return 10.0 * math.log10(x) if x > 0 else None

    table = [
        {
            "agent": k,
            "steady_msd": float(steady[k]),
            "steady_msd_db": _db(float(steady[k])),
            "stderr": float(stderr[k]),
        }
        for k in range(curves.n_agents)
    ]
    summary = {
        "trials": curves.trials,
        "iters": curves.iters,
        "mu_max": curves.mu_max,
        "steady_state": table,
        "centralized": {
            "steady_msd": cent,
            "steady_msd_db": _db(cent),
            "stderr": cent_se,
        },
        "decomposition": {
            "per_agent": [
                {
                    "agent": k,
                    "offset_energy": float(offset[k]),
                    "msd": float(steady[k]),
                    "offset_to_msd": float(ratios[k]),
                }
                for k in range(curves.n_agents)
            ],
            "network": {
                "offset_energy": float(offset.mean()),
                "msd": float(steady.mean()),
                "offset_to_msd": float(offset.mean() / steady.mean())
                if steady.mean() > 0 else 0.0,
            },
        },
    }
    if theory is not None:
        prediction = theory.get("msd_first_order")
        if prediction:
            summary["theory_delta_db"] = [
                {
                    "agent": row["agent"],
                    "delta_db": (row["steady_msd_db"]
                                 - 10.0 * math.log10(prediction))
                    if row["steady_msd_db"] is not None else None,
                }
                for row in table
            ]
    return summary
