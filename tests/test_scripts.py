"""The example scripts run to completion against the package in `src/`.

The worked-examples walk-through must also print exactly
`tests/data/worked_examples.txt`, so any drift in its verdicts or
certificates shows up as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, golden",
    [
        (["reproduce_worked_examples.py"], "worked_examples.txt"),
        (["random_audit.py", "--games", "3", "--profiles", "5"], None),
    ],
    ids=["worked-examples", "random-audit"],
)
def test_script_exits_zero(script, golden):
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
    if golden is not None:
        assert res.stdout == (ROOT / "tests" / "data" / golden).read_text()
