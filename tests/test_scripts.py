"""The experiment scripts run end to end from a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,output", [
    ("run_newton_limit_sweep.py", "limit_residuals.csv"),
    ("run_sr_splitting.py", "sr_splitting.csv"),
    ("trace_schwarzschild_cone.py", "cone.csv"),
])
def test_script_runs(tmp_path, name, output):
    proc = run_script(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / output).exists()
    if name == "trace_schwarzschild_cone.py":
        # first conjugate value of the near-critical b = 2.73 ray
        found = re.search(r"conjugate values along the b=2.73 ray: ([0-9.]+)", proc.stdout)
        assert found, proc.stdout
        assert abs(float(found.group(1)) - 21.746188) <= 1e-6
