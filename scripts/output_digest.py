#!/usr/bin/env python3
"""Byte-identity digests of the benchmark's gated workloads. Builds the
request pools of `perfbench/workloads.py` exactly as `perfbench/run.py`
does for a seed, sends every request once in pool order and prints one
sha256 per workload:

- `audit-mid`: for each request, the canonical verdict document of
  `test-ce` and then of `test-nash`, each followed by a newline;
- `verify-large`: for each request, `f"{exit_code}\\n{stdout}\\n"` of its
  `eqaudit verify` run.

Two checkouts whose digests agree produce the same bytes on that pool.

    PYTHONPATH=src python scripts/output_digest.py --seed 1
"""

import argparse
import hashlib
import importlib.util
import random
import tempfile
from pathlib import Path

from eqaudit import dataio

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stream(name, request, output) -> str:
    if name == "audit-mid":
        ce, ne = output[:2]
        return "".join(dataio.emit_verdict(request.game, v) + "\n" for v in (ce, ne))
    exit_code, stdout = output
    return f"{exit_code}\n{stdout}\n"


def digest(workloads, name: str, seed: int) -> str:
    """sha256 of the byte stream of workload `name`'s pool for `seed`."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        rng = random.Random(f"{name}/{seed}")  # as perfbench/run.py seeds it
        for request in workloads.WORKLOADS[name](rng, 1.0, Path(tmp) / "inputs"):
            sha.update(_stream(name, request, request.send()).encode("utf-8"))
    return sha.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads = _workloads()
    for name in ("audit-mid", "verify-large"):
        print(name, digest(workloads, name, args.seed))


if __name__ == "__main__":
    main()
