#!/usr/bin/env python3
"""Benchmark for eqaudit: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload audit-mid --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``. Inputs come only from ``--seed`` (default 1; seed 7919 is held
out for confirming a claimed gain). With ``--trace 0`` the inputs are
built three times (``setup_s`` is the median) and then the requests of
the pool are sent in order, pass after pass, the next only after the
previous one finished, until ``--seconds`` have passed and every request
has been sent; each output is checked as it arrives. With ``--trace 1``
the same pool is run once untraced and once with spans recorded around
the public functions of each module, repeated while time remains, and
the per-layer metrics of one pass are reported. Every timing is scaled
to a reference host speed measured by `kernel`. See perfbench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
SETUP_REPEATS = 3
WARMUP_REQUESTS = 5
# Host-speed yardstick (see `kernel`): calls before each request and before
# and after each set-up build, and the number of neighbouring requests on
# each side whose kernel times give the speed a request is scaled by.
REQUEST_KERNEL_REPS = 3
SETUP_KERNEL_REPS = 40
KERNEL_WINDOW = 4
# Time of one `kernel` call at the reference speed to which timings are
# scaled: a round figure near the development host's fast phases.
REFERENCE_KERNEL_S = 0.0005
WORKLOAD_NAMES = ("audit-mid", "cli-batch", "verify-large")

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cert_bytes_mean": "bytes",
}
PER_LAYER_UNITS = {
    "lp.solve_self_s": "s",
    "lp.verify_outcome_s": "s",
    "lp.maximize_s": "s",
    "lp.solves": "count",
    "lp.infeasible_ratio": "ratio",
    "lp.tableau_cells": "count",
    "lp.cert_max_bits": "bits",
    "correlated.build_s": "s",
    "correlated.build_calls": "count",
    "correlated.normalize_s": "s",
    "correlated.test_ce_s": "s",
    "nash.is_nash_s": "s",
    "nash.build_s": "s",
    "nash.test_s": "s",
    "nash.early_exit_ratio": "ratio",
    "games.surplus_s": "s",
    "games.surplus_calls": "count",
    "games.product_s": "s",
    "verify.witness_s": "s",
    "verify.actionwise_s": "s",
    "verify.profilewise_s": "s",
    "verify.profiles_checked": "count",
    "dataio.parse_s": "s",
    "dataio.emit_s": "s",
    "dataio.bytes_in": "bytes",
    "dataio.bytes_out": "bytes",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fraction of the full request pool to build (the smoke test uses 0.02)",
    )
    return parser.parse_args(argv)


def send_one(request, tracer=None):
    """Send one request after a few `kernel` calls. Returns its output (the
    exception, if it raised), its latency and the time of one `kernel`."""
    kernel_s = kernel_seconds(REQUEST_KERNEL_REPS)
    begin = time.perf_counter()
    try:
        output = request.send(tracer)
    except Exception as exc:
        output = exc
    return output, time.perf_counter() - begin, kernel_s


def send_pass(pool, tracer=None):
    """Send every request of the pool once, one after another. Returns
    (index, output) pairs, the time spent in requests and the median
    `kernel` time over the pass."""
    outputs, busy, kernels = [], 0.0, []
    for index, request in enumerate(pool):
        if tracer is not None:
            tracer.request = index
        output, latency, kernel_s = send_one(request, tracer)
        outputs.append((index, output))
        busy += latency
        kernels.append(kernel_s)
    return outputs, busy, statistics.median(kernels)


class Outcomes:
    """Checks outputs as they arrive. The first output of each request
    is checked against the known answer; a repeat must equal it. Only the
    first outputs are kept, so memory does not grow with the pass count."""

    def __init__(self, pool):
        self.pool = pool
        self.first = {}
        self.sizes = {}
        self.attempted = 0
        self.failed = 0

    def add(self, outputs):
        for index, output in outputs:
            if index in self.first:
                first, ok = self.first[index]
                ok = ok and output == first
            else:
                ok = False
                if not isinstance(output, Exception):
                    try:
                        ok, self.sizes[index] = self.pool[index].check(output)
                    except Exception:
                        ok = False
                self.first[index] = (output, ok)
            self.attempted += 1
            self.failed += not ok

    def cert_bytes_mean(self) -> float:
        sizes = [size for index in sorted(self.sizes) for size in self.sizes[index]]
        return statistics.fmean(sizes) if sizes else 0.0


def fresh(workdir: Path) -> Path:
    """Empty the run's work directory; returns the input directory inside it."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir / "inputs"


def build(args, inputs: Path):
    import workloads

    rng = random.Random(f"{args.workload}/{args.seed}")
    return workloads.WORKLOADS[args.workload](rng, args.scale, inputs)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def kernel() -> None:
    """Fixed exact-rational elimination (5x6, `fractions.Fraction`) that
    does not touch eqaudit: a yardstick for the host's current speed on
    the same kind of work the package does."""
    n = 5
    rows = [
        [Fraction((i * 7 + j * 13) % 11 - 5, (i + 2 * j) % 7 + 1) for j in range(n + 1)]
        for i in range(n)
    ]
    for i in range(n):
        rows[i][i] += 20
    for c in range(n):
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]


def kernel_seconds(reps: int) -> float:
    """Mean time of one `kernel` call over `reps` calls. The garbage
    collector is off meanwhile: otherwise collections triggered by the
    objects a large request left behind slow `kernel` by about a quarter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        for _ in range(reps):
            kernel()
        return (time.perf_counter() - begin) / reps
    finally:
        if enabled:
            gc.enable()


def local_medians(values, half: int) -> list:
    """Median of each value's neighbourhood of up to 2 * half + 1 values."""
    return [
        statistics.median(values[max(0, i - half) : i + half + 1]) for i in range(len(values))
    ]


def timed_run(args, workdir):
    # The host's speed drifts by tens of percent over seconds to minutes
    # (other tenants share its cores), so every timing is taken next to a
    # run of `kernel` and scaled to the reference speed, at which one
    # `kernel` call takes REFERENCE_KERNEL_S. See perfbench/README.md.
    setup_times, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        pool = None  # let the previous build be freed before the next
        inputs = fresh(workdir)
        before = kernel_seconds(SETUP_KERNEL_REPS)
        begin = time.perf_counter()
        pool = build(args, inputs)
        elapsed = time.perf_counter() - begin
        after = kernel_seconds(SETUP_KERNEL_REPS)
        raw_setup.append(elapsed)
        setup_times.append(elapsed * REFERENCE_KERNEL_S / ((before + after) / 2))
    outcomes = Outcomes(pool)
    # Warm-up, untimed but checked like every other output.
    outcomes.add(send_pass(pool[:WARMUP_REQUESTS])[0])
    # Requests go in pool order, the next one only after the previous one
    # returned, each preceded by a few `kernel` calls; the first pass is
    # always completed, so every request is timed at least once.
    sent, latencies, kernels = [], [], []
    start = time.perf_counter()
    while len(sent) < len(pool) or time.perf_counter() - start < args.seconds:
        index = len(sent) % len(pool)
        output, latency, kernel_s = send_one(pool[index])
        outcomes.add([(index, output)])
        sent.append(index)
        latencies.append(latency)
        kernels.append(kernel_s)
    wall = time.perf_counter() - start
    speeds = local_medians(kernels, KERNEL_WINDOW)
    scaled = [t * REFERENCE_KERNEL_S / k for t, k in zip(latencies, speeds)]
    per_request = [[] for _ in pool]
    for index, latency in zip(sent, scaled):
        per_request[index].append(latency)
    # One value per distinct request, so a partly sent last pass does not
    # tilt the mix: a pass takes the sum of them.
    typical = [statistics.median(values) for values in per_request]
    n, failed = outcomes.attempted, outcomes.failed
    metrics = {
        "throughput_per_s": len(pool) / sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1000,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "cert_bytes_mean": outcomes.cert_bytes_mean(),
    }
    lines = [
        f"requests {n} in {wall:.3f} s: {len(sent)} timed over a pool of {len(pool)}, "
        f"{len(pool[:WARMUP_REQUESTS])} warm-up",
        f"host speed: kernel {statistics.median(kernels) * 1e6:.1f} us median "
        f"(reference {REFERENCE_KERNEL_S * 1e6:.1f} us); unscaled: "
        f"throughput {len(sent) / sum(latencies):.4f} 1/s, "
        f"latency p50 {statistics.median(latencies) * 1000:.4f} ms, "
        f"setup {statistics.median(raw_setup):.4f} s",
    ]
    lines += [f"{name} {value!r} {END_TO_END_UNITS[name]}" for name, value in metrics.items()]
    # p95 is reported only with at least 10 samples beyond it.
    if len(scaled) >= 200:
        p95 = statistics.quantiles(scaled, n=20)[18] * 1000
        lines.append(f"latency_p95_ms {p95!r} ms (n={len(scaled)})")
    else:
        lines.append(f"latency_p95_ms not reported: {len(scaled)} samples, 200 needed")
    lines.append(f"error_rate {failed / n!r} ratio ({failed} of {n})")
    return n, failed, metrics, END_TO_END_UNITS, lines


def traced_run(args, workdir):
    import tracing

    inputs = fresh(workdir)
    tracer = tracing.Tracer(workdir / "spans", request="setup")
    tracer.directory.mkdir()
    before = kernel_seconds(SETUP_KERNEL_REPS)
    tracer.install()
    try:
        pool = build(args, inputs)
    finally:
        tracer.uninstall()
    after = kernel_seconds(SETUP_KERNEL_REPS)
    setup_spans = list(tracer.spans)
    # Times are scaled to the reference speed as in `timed_run`, each pass
    # by the median `kernel` time measured between its requests.
    maximize_s = tracing.layer_metrics(setup_spans)["lp.maximize_s"]
    maximize_s *= REFERENCE_KERNEL_S / ((before + after) / 2)

    deadline = time.perf_counter() + args.seconds
    outcomes = Outcomes(pool)
    plain_walls, traced_walls, per_pass = [], [], []
    while not per_pass or time.perf_counter() < deadline:
        outputs, busy, kernel_s = send_pass(pool)
        outcomes.add(outputs)
        plain_walls.append(busy * REFERENCE_KERNEL_S / kernel_s)
        tracer.spans.clear()
        tracer.intervals.clear()
        tracer.install()
        try:
            outputs, busy, kernel_s = send_pass(pool, tracer)
        finally:
            tracer.uninstall()
        outcomes.add(outputs)
        speed = REFERENCE_KERNEL_S / kernel_s
        traced_walls.append(busy * speed)
        layers = tracing.layer_metrics(tracer.spans, tracer.intervals)
        layers = {
            name: value * speed if PER_LAYER_UNITS[name] == "s" else value
            for name, value in layers.items()
        }
        layers["lp.maximize_s"] = maximize_s
        per_pass.append(layers)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # Counts are the same every pass; median_low keeps them integers.
        median = statistics.median_low if isinstance(values[0], int) else statistics.median
        metrics[name] = median(values)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.spans[:0] = setup_spans
    tracer.dump(out)
    lines = [
        f"{len(per_pass)} untraced and {len(per_pass)} traced passes of {len(pool)} requests",
        f"untraced pass {statistics.median(plain_walls)!r} s, "
        f"traced pass {statistics.median(traced_walls)!r} s",
        "times are seconds per pass at the reference speed; *_s are self time except "
        "correlated.test_ce_s, nash.test_s and cli.main_s (inclusive)",
    ]
    lines += [f"{name} {value!r} {PER_LAYER_UNITS[name]}" for name, value in metrics.items()]
    lines.append(f"spans written to {out.relative_to(ROOT)}")
    return outcomes.attempted, outcomes.failed, metrics, PER_LAYER_UNITS, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eqaudit" / "__init__.py").is_file():
        print(f"perfbench: no eqaudit package under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics, units, lines = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
