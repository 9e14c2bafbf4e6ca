"""The example scripts run to completion against the package in `src/`.

The worked-examples walk-through must also print exactly
`tests/data/worked_examples.txt`, so any drift in its verdicts or
certificates shows up as a diff. The output digest prints one sha256 per
gated benchmark workload, and all four are pinned: the `audit-mid`
verdicts and the solver-free `verify-large` replies, each at seed 1 and
at the held-out seed 7919. It also prints one sha256 per workload over
the pool's inputs, pinned at both seeds too: the `audit-mid` pool samples
equilibria through `lp.maximize`, so a solver change that moved the pool
would show here rather than as a changed verdict.
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
    assert list(digests) == [
        "audit-mid", "audit-mid-inputs", "verify-large", "verify-large-inputs"
    ]
    assert all(len(bytes.fromhex(digest)) == 32 for digest in digests.values())


# Any change to the bytes of either workload must be deliberate: a change
# that moves certificates on purpose updates its pin here and says why in
# CHANGES.md.
def test_output_digest_pins_the_audit_mid_verdicts():
    assert _digests("1")["audit-mid"] == (
        "96e898fc1aa118156e6224b482dc3b340aca48f3a42e9012078758eecf692d77"
    )


def test_output_digest_pins_the_held_out_audit_mid_verdicts():
    assert _digests("7919")["audit-mid"] == (
        "140f8a34c90f3667c0471e979c55f3c56ee7e6bdeca6b5c6e860b4bca538ffa5"
    )


def test_output_digest_pins_the_verify_large_replies():
    assert _digests("1")["verify-large"] == (
        "96234bd7f3602d195182284b12c0b2e2aa5e735b50d807b757b12b16892b4e3f"
    )


def test_output_digest_pins_the_held_out_verify_large_replies():
    assert _digests("7919")["verify-large"] == (
        "b8a820476496b79b287184b3e9156acde5812daf0db2606aa5fdc2069be90071"
    )


# The pools' inputs: game and marginals documents, and the files each
# verify request reads. A change to the simplex may move certificates, but
# never these, since the benchmark compares checkouts on the same pool.
@pytest.mark.parametrize(
    "seed, name, expected",
    [
        ("1", "audit-mid-inputs",
         "3c1457a249a376440843a673844e7aa4674a14204ecf4a69944820c0ffd488a6"),
        ("7919", "audit-mid-inputs",
         "8ccd1143caad0879fadc9ef336352fca940b1dde81796bfbde3b401cc7a8e3a5"),
        ("1", "verify-large-inputs",
         "d8b3b60ac3bbc62606530afb547895dcce282bfc1e6a05992fd028b5448a3874"),
        ("7919", "verify-large-inputs",
         "fc2d11d5789a5128687b83c2b6afc2b1f9cfba2b27e3ea848465402023c5027d"),
    ],
)
def test_output_digest_pins_the_pool_inputs(seed, name, expected):
    assert _digests(seed)[name] == expected
