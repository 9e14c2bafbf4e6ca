"""The example scripts run to completion against the package in `src/`.

The worked-examples walk-through must also print exactly
`tests/data/worked_examples.txt`, so any drift in its verdicts or
certificates shows up as a diff. The output digest prints one sha256 per
gated benchmark workload, and all four are pinned: the `audit-mid`
verdicts and the solver-free `verify-large` replies, each at seed 1 and
at the held-out seed 7919.
"""

import functools
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


@functools.cache
def _digests(seed: str) -> dict:
    out = _run("output_digest.py", "--seed", seed)
    return dict(line.split() for line in out.splitlines())


def test_output_digest_names_each_gated_workload():
    digests = _digests("1")
    assert list(digests) == ["audit-mid", "verify-large"]
    assert all(len(bytes.fromhex(digest)) == 32 for digest in digests.values())


# Any change to the bytes of either workload must be deliberate: a change
# that moves certificates on purpose updates its pin here and says why in
# CHANGES.md.
def test_output_digest_pins_the_audit_mid_verdicts():
    assert _digests("1")["audit-mid"] == (
        "19220cbdc4c9c8dfaf7712ba482d641a961ec3585eef7b9b8289bd9174fbd95d"
    )


def test_output_digest_pins_the_held_out_audit_mid_verdicts():
    assert _digests("7919")["audit-mid"] == (
        "844bba2d86da46f98bc4ee9181482dfca93a3108da7c179dae4a2f0382051b23"
    )


def test_output_digest_pins_the_verify_large_replies():
    assert _digests("1")["verify-large"] == (
        "96234bd7f3602d195182284b12c0b2e2aa5e735b50d807b757b12b16892b4e3f"
    )


def test_output_digest_pins_the_held_out_verify_large_replies():
    assert _digests("7919")["verify-large"] == (
        "b8a820476496b79b287184b3e9156acde5812daf0db2606aa5fdc2069be90071"
    )
