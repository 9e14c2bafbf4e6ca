"""The example scripts run to completion against the package in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        ["reproduce_worked_examples.py"],
        ["random_audit.py", "--games", "3", "--profiles", "5"],
    ],
    ids=["worked-examples", "random-audit"],
)
def test_script_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
