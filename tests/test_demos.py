"""The scripts in demos/ run against the package under test and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import veneroni

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "quadratic_cremona.py",
        "residual_plane.py",
        "two_transversals.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    src = str(Path(veneroni.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
