"""Demos run as scripts: each exits 0 and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["demo_tree_identities.py", "demo_mayer_virial.py",
                                  "demo_ising.py", "demo_stability.py",
                                  "demo_polymer_criteria.py", "demo_hard_spheres.py"])
def test_demo_runs_clean(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
