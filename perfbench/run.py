#!/usr/bin/env python3
"""adaptnet benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  For about S seconds it runs the
workload's job (``job.py``) again and again, each time in a fresh child
process with the package imported from ``src/`` and BLAS/OpenMP pinned to
one thread; every job does the same work on the same seed.  It checks
every job's outputs, prints one line per job, a run manifest and a
summary, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (medians
over the jobs) with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced jobs; the
difference of their medians is the tracing overhead.

Exit code 2, with no result line, when the checkout holds no package.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 150.0  # no job starts, and none runs on, past this
MIN_JOBS = 3          # untraced jobs per --trace 0 run
MIN_TRACED_JOBS = 2   # of each kind per --trace 1 run

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("compute_s", "s"),
              ("peak_rss_mb", "MB")]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def package_check() -> str | None:
    """Import the package from the checkout once (this also compiles its
    bytecode, so no timed job pays for that); return an error or None."""
    if not (ROOT / "src" / "adaptnet" / "__init__.py").is_file():
        return f"no package source at {ROOT / 'src' / 'adaptnet'}"
    proc = subprocess.run(
        [sys.executable, "-c", "import adaptnet, adaptnet.cli; print(adaptnet.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return f"cannot import adaptnet: {proc.stderr.strip()[-500:]}"
    where = Path(proc.stdout.strip()).resolve()
    if ROOT / "src" not in where.parents:
        return f"adaptnet imported from {where}, not from this checkout"
    return None


def calibration_s() -> dict:
    """Median times of two fixed kernels, recorded in the manifest to show
    machine-speed drift and never used to normalise: ``blas`` is a matmul
    plus exp into preallocated buffers, ``dispatch`` a loop of small numpy
    calls like the package's per-step work."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    v = rng.standard_normal(200_000)
    b, w = np.empty_like(a), np.empty_like(v)
    small = rng.standard_normal((10, 10))
    x = np.ones(10)

    def blas():
        for _ in range(40):
            np.matmul(a, a, out=b)
            np.exp(np.multiply(v, v, out=w), out=w)

    def dispatch():
        y = x
        for _ in range(5000):
            y = small @ y
            y /= np.abs(y).sum()

    out = {}
    for name, kernel in (("blas", blas), ("dispatch", dispatch)):
        times = []
        for _ in range(5):
            start = now()
            kernel()
            times.append(now() - start)
        out[name] = statistics.median(times)
    return out


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def l3_bytes() -> int | None:
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
    return int(size.rstrip("KM")) * mult


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def run_job(workload: str, seed: int, work: Path, index: int, trace: bool,
            timeout: float) -> dict:
    job_dir = work / f"job{index}"
    job_dir.mkdir()
    result_path = job_dir / "result.json"
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(job_dir), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    spawned = now()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"dir": job_dir, "traced": trace, "spawned": spawned,
                "error": f"job timed out after {timeout:.0f} s"}
    waited = now()
    res = {}
    if result_path.is_file():
        res = json.loads(result_path.read_text())
    if proc.returncode != 0 and "error" not in res:
        res["error"] = f"job exited {proc.returncode}: {err.strip()[-2000:]}"
    res.update({"dir": job_dir, "traced": trace, "spawned": spawned, "waited": waited})
    if "error" not in res:
        res["wall_s"] = res["end"] - spawned
        res["setup_s"] = res["first"] - spawned
        res["compute_s"] = res["end"] - res["first"]
        res["peak_rss_mb"] = res["peak_rss_mib"] * 1.048576
    return res


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the test-suite or preset seed)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed

    problem = package_check()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    manifest = {
        "commit": git_commit(), "source_sha256": source_sha256(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas_name(), "threads": THREAD_ENV,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "l3_bytes": l3_bytes(),
        "loadavg_start": os.getloadavg(), "calibration_s_start": calibration_s(),
    }

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, spec, seed, manifest, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, spec, seed, manifest, work: Path) -> int:
    jobs = []
    start = now()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        job = run_job(args.workload, seed, work, len(jobs), traced,
                      timeout=max(1.0, RUN_DEADLINE_S - (now() - start)))
        if "error" not in job:
            try:
                job["digest"] = checks.digest(args.workload, job)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                job["error"] = f"outputs unreadable: {exc!r}"
        shutil.rmtree(job["dir"], ignore_errors=True)
        jobs.append(job)
        plain = [j for j in jobs if not j["traced"]]
        enough = (len(plain) >= MIN_TRACED_JOBS and len(jobs) - len(plain) >= MIN_TRACED_JOBS
                  if args.trace else len(plain) >= MIN_JOBS)
        elapsed = now() - start
        typical = median([j.get("waited", now()) - j["spawned"] for j in jobs])
        if enough and elapsed + typical > args.seconds:
            break
        if ("error" in job and enough) or elapsed > RUN_DEADLINE_S:
            break

    verdict = checks.verify(args.workload, seed, jobs)
    manifest["loadavg_end"] = os.getloadavg()
    manifest["calibration_s_end"] = calibration_s()
    print("manifest: " + json.dumps(manifest, sort_keys=True))

    for i, job in enumerate(jobs):
        kind = "traced" if job["traced"] else "plain"
        if "error" in job:
            print(f"job {i} ({kind}): ERROR {job['error'].strip().splitlines()[-1]}")
            continue
        print(f"job {i} ({kind}): wall_s={job['wall_s']:.4f} setup_s={job['setup_s']:.4f} "
              f"compute_s={job['compute_s']:.4f} peak_rss_mb={job['peak_rss_mb']:.1f} "
              f"exits={[op['exit'] for op in job['ops']]}")
    for line in verdict.notes:
        print(f"check: {line}")
    for line in verdict.problems:
        print(f"check FAILED: {line}")

    plain = [j for j in jobs if not j["traced"] and "error" not in j]
    sizes = checks.sizes(args.workload, jobs)
    e2e = {name: median([j[name] for j in plain]) for name, _ in END_TO_END}
    steps = sizes["trials"] * sizes["iters"]
    sim_s = median([j["sim_left"] - j["sim_entered"] for j in plain
                    if j.get("sim_entered") is not None and j.get("sim_left") is not None])
    trial_steps_per_s = steps / sim_s if steps and sim_s else 0.0
    print(f"sizes: {json.dumps(sizes, sort_keys=True)}")
    if e2e["peak_rss_mb"] is not None:
        l3 = manifest["l3_bytes"]
        print(f"memory: block buffers {sizes['block_buffer_mb']} MB (computed) vs peak RSS "
              f"{e2e['peak_rss_mb']:.1f} MB vs L3 "
              f"{'unknown' if l3 is None else f'{l3 / 1e6:.1f} MB'}")
    print(f"summary: {len(plain)} plain jobs; "
          + "; ".join(f"{name} median {e2e[name]} {unit}" for name, unit in END_TO_END
                      if e2e[name] is not None)
          + f"; trial_steps_per_s {trial_steps_per_s:.1f}")

    if args.trace:
        metrics = checks.layer_metrics(jobs, sizes, trial_steps_per_s)
        absent = [name for name, value in metrics.items() if value is None]
        if absent:
            print("absent spans (boundary no longer in the package): " + ", ".join(absent))
        metrics = {name: {"value": value, "unit": checks.LAYER_UNITS[name]}
                   for name, value in metrics.items() if value is not None}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if e2e[name] is not None}
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
