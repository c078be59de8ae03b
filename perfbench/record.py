#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs one job of every workload on its default seed and writes the checked
values (``checks.record_values``) to ``perfbench/reference.json``.  Run it
only on the commit whose outputs define "correct"; a change that claims a
gain must not re-record.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import REFERENCE_FILE, digest, record_values
from workloads import WORKLOADS


def main() -> int:
    problem = run.package_check()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    work = run.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = {"commit": run.git_commit(), "source_sha256": run.source_sha256(),
           "workloads": {}}
    try:
        for name, spec in WORKLOADS.items():
            seed = spec["default_seed"]
            job = run.run_job(name, seed, work, len(out["workloads"]), trace=False)
            if "error" in job:
                print(f"{name}: {job['error']}", file=sys.stderr)
                return 1
            out["workloads"][name] = {"seed": seed,
                                      "values": record_values(name, digest(name, job))}
            print(f"{name}: {len(out['workloads'][name]['values'])} values")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
