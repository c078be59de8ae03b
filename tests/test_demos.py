"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"03_learning_curves.py", "04_equalization_and_optimal_weights.py"}


def test_slow_demos_exist():
    assert SLOW <= {path.name for path in DEMOS}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_exits_cleanly(demo, tmp_path):
    # demos write their artifacts to the working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
