"""The benchmark's traced result line, as a benchmark comparison reads it.

One short traced run each of the canonical_atc, partial_obs_cta and
theory_sweep workloads: each last stdout line must be strict JSON (no
NaN or Infinity), report a correct run with no failed operation, and
carry exactly the per-layer metrics that ``BENCHMARK.json`` declares.  A
public function renamed or deleted from under a declared span, on the
simulator path, on the ``adaptnet run`` path (CSV export, run summary,
experiment build, theory block) or on the graph, policy and theory path,
shows here as a missing metric.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


def _check_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_traced_canonical_run_reports_every_declared_metric():
    _check_traced_run("canonical_atc")


def test_traced_theory_sweep_reports_every_declared_metric():
    _check_traced_run("theory_sweep")


def test_traced_partial_obs_run_reports_every_declared_metric():
    _check_traced_run("partial_obs_cta")
