#!/usr/bin/env python3
"""Byte-identity digests of the benchmark's gated workloads. Builds the
request pools of `perfbench/workloads.py` exactly as `perfbench/run.py`
does for a seed, sends every request once in pool order and prints one
sha256 per workload over the outputs:

- `audit-mid`: for each request, the canonical verdict document of
  `test-ce` and then of `test-nash`, each followed by a newline;
- `verify-large`: for each request, `f"{exit_code}\\n{stdout}\\n"` of its
  `eqaudit verify` run.

Two checkouts whose digests agree produce the same bytes on that pool.
After each workload's line comes a `<name>-inputs` line, one sha256 over
the pool's inputs in pool order: each `audit-mid` request's game and
marginals documents, and the text of each file a `verify-large` request
names, each followed by a newline. The `audit-mid` pool samples
equilibria with `lp.maximize` (through `oracles.random_ce`), so equal
input digests show that a solver change left the pool where it was.

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


def _inputs(name, request) -> str:
    if name == "audit-mid":
        game = request.game
        return f"{dataio.emit_game(game)}\n{dataio.emit_marginals(game, request.profile)}\n"
    return "".join(Path(path).read_text() + "\n" for path in request.argv[1:])


def digests(workloads, name: str, seed: int) -> tuple[str, str]:
    """sha256 of the output byte stream and of the input byte stream of
    workload `name`'s pool for `seed`."""
    out, inputs = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        rng = random.Random(f"{name}/{seed}")  # as perfbench/run.py seeds it
        for request in workloads.WORKLOADS[name](rng, 1.0, Path(tmp) / "inputs"):
            inputs.update(_inputs(name, request).encode("utf-8"))
            out.update(_stream(name, request, request.send()).encode("utf-8"))
    return out.hexdigest(), inputs.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads = _workloads()
    for name in ("audit-mid", "verify-large"):
        out, inputs = digests(workloads, name, args.seed)
        print(name, out)
        print(f"{name}-inputs", inputs)


if __name__ == "__main__":
    main()
