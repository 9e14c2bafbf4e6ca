"""The benchmark's gated workloads still build, run and pass their own
checks against the package in `src/`.

`perfbench/` is outside `testpaths`, so without this a change under
`src/` that removes or renames a name the benchmark uses (such as
`oracles.random_ce`) would only show up when the benchmark is run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "builder, requests", [("audit_mid", 9), ("verify_large", 6)]
)
def test_gated_workload_builds_and_checks(tmp_path, builder, requests):
    build = getattr(_workloads_module(), builder)
    pool = build(random.Random(1), 0.02, tmp_path)
    assert len(pool) == requests
    for request in pool:
        ok, _sizes = request.check(request.send())
        assert ok
