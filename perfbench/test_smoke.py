"""Smoke test of the benchmark: every workload at minimal size, untraced
and traced, prints every metric BENCHMARK.json names, with its unit, and
passes its own correctness checks.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the command accepts, including cli-batch, which is not
# listed in BENCHMARK.json.
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOAD_NAMES  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.02"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(metric["name"] + " ") for line in lines[:-1])
    if not trace:
        for name in ("latency_p95_ms", "error_rate"):
            assert any(line.startswith(name + " ") for line in lines[:-1])
    if trace and workload == "verify-large":
        assert result["metrics"]["lp.solves"]["value"] == 0
        assert result["metrics"]["games.surplus_calls"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
