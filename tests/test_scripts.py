"""The example scripts run to completion against the package in `src/`.

The worked-examples walk-through must also print exactly
`tests/data/worked_examples.txt`, so any drift in its verdicts or
certificates shows up as a diff. The output digest prints one sha256 per
gated benchmark workload.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize(
    "script, golden",
    [
        (["reproduce_worked_examples.py"], "worked_examples.txt"),
        (["random_audit.py", "--games", "3", "--profiles", "5"], None),
    ],
    ids=["worked-examples", "random-audit"],
)
def test_script_exits_zero(script, golden):
    out = _run(*script)
    if golden is not None:
        assert out == (ROOT / "tests" / "data" / golden).read_text()


def test_output_digest_names_each_gated_workload():
    lines = [line.split() for line in _run("output_digest.py", "--seed", "1").splitlines()]
    assert [name for name, _digest in lines] == ["audit-mid", "verify-large"]
    assert all(len(bytes.fromhex(digest)) == 32 for _name, digest in lines)
