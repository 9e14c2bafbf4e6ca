"""Spans and counts recorded around eqaudit's public functions.

`Tracer.install` replaces each traced function, in every loaded eqaudit
module that holds a reference to it (``from .games import surplus`` binds
the name in `verify` too), with a wrapper that records one span per call:
name, start, end, parent span and the id of the request being served. A
few wrappers also attach exact attributes taken from the arguments or the
result (tableau size, certificate bit length, bytes parsed or emitted).
`uninstall` puts the originals back. Nothing in `src/` changes.

Spans stay in memory. A process that ends while traced writes them out
with `write`; pool workers forked by the command line do so from a
multiprocessing finalizer, which runs when the worker exits normally.
`layer_metrics` turns the spans of one pass over a workload into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

# (module, function) pairs wrapped by the tracer. Entry points whose
# metric is inclusive time are listed in INCLUSIVE; every other time
# metric is self time (span minus its traced children).
TRACED = {
    "lp": ("solve_feasibility", "verify_outcome", "maximize"),
    "correlated": ("build_ce_system", "normalize_dual", "test_ce_compatibility"),
    "nash": ("is_nash", "build_nash_system", "test_nash_exploitability"),
    "games": ("surplus", "product_distribution"),
    "verify": ("verify_witness", "verify_actionwise", "verify_profilewise"),
    "dataio": (
        "parse_game",
        "parse_marginals",
        "parse_kernel",
        "parse_scheme",
        "parse_verdict",
        "parse_certificate",
        "parse_play_log",
        "emit_game",
        "emit_marginals",
        "emit_kernel",
        "emit_scheme",
        "emit_verdict",
        "emit_surplus",
        "canonical_json",
    ),
    "cli": ("main",),
}
INCLUSIVE = {
    "correlated.test_ce_compatibility",
    "nash.test_nash_exploitability",
    "cli.main",
}
LIBRARY = ("lp.", "correlated.", "nash.", "games.", "verify.", "dataio.")


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _solve_attrs(args, result) -> dict:
    system = args[0]
    free = sum(1 for nonneg in system.nonneg if not nonneg)
    ge_rows = sum(1 for row in system.rows if row.sense == ">=")
    rows = len(system.rows)
    # Standard form as the simplex builds it: split free variables, one
    # surplus column per >= row, one artificial column per row.
    columns = system.num_vars + free + ge_rows + rows
    infeasible = hasattr(result, "multipliers")
    values = result.multipliers if infeasible else result.point
    return {"cells": rows * columns, "infeasible": infeasible, "bits": _bits(values)}


def _text_in(args, result) -> dict:
    return {"bytes": len(args[0])}


def _text_out(args, result) -> dict:
    return {"bytes": len(result)}


def _witness_attrs(args, result) -> dict:
    return {"profiles": args[0].num_profiles}


def _nash_attrs(args, result) -> dict:
    return {"is_nash": type(result).__name__ == "IsNash"}


ATTRS = {
    "lp.solve_feasibility": _solve_attrs,
    "verify.verify_witness": _witness_attrs,
    "nash.test_nash_exploitability": _nash_attrs,
}
for _name in TRACED["dataio"]:
    ATTRS[f"dataio.{_name}"] = _text_in if _name.startswith("parse_") else _text_out


class Tracer:
    """Records spans for calls made while installed.

    A span is the list ``[id, parent, name, start, end, request, attrs]``.
    Ids are integers unique within this process; `absorb` turns the ids of
    spans merged from other processes into "pid:id" strings.
    """

    def __init__(self, directory: Path, request=None):
        self.directory = directory
        self.request = request
        # Command-line batch request id -> (spawned, exited) clock readings.
        self.intervals: dict = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        for short in TRACED:
            importlib.import_module(f"eqaudit.{short}")
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "eqaudit" or name.startswith("eqaudit.")
        ]
        for short, names in TRACED.items():
            home = sys.modules[f"eqaudit.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    namespace = vars(module)
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patched.append((namespace, key, original))
                            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [next(ids), stack[-1] if stack else None, name, 0.0, 0.0,
                    self.request, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, result)
            return result

        return wrapper

    def flush_at_worker_exit(self) -> None:
        """Have forked multiprocessing workers start with no spans and
        write their own into `directory` when they exit."""

        def after_fork(tracer):
            tracer.spans.clear()
            tracer._stack.clear()
            multiprocessing.util.Finalize(
                None,
                tracer.write,
                args=(tracer.directory / f"spans-{os.getpid()}.json",),
                exitpriority=10,
            )

        multiprocessing.util.register_after_fork(self, after_fork)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))

    def absorb(self) -> None:
        """Add the spans other processes wrote to `directory` to this
        tracer's spans, then delete their files."""
        for path in sorted(self.directory.glob("spans-*.json")):
            doc = json.loads(path.read_text())
            pid = doc["pid"]
            for sid, parent, *rest in doc["spans"]:
                self.spans.append(
                    [f"{pid}:{sid}", None if parent is None else f"{pid}:{parent}", *rest]
                )
            path.unlink()

    def dump(self, path: Path) -> None:
        path.write_text("".join(json.dumps(span) + "\n" for span in self.spans))


def _is_parse(name: str) -> bool:
    return name.startswith("dataio.parse_")


def _is_emit(name: str) -> bool:
    return name.startswith("dataio.") and not _is_parse(name)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_metrics(spans, requests: dict | None = None) -> dict:
    """Per-layer metrics from the spans of one pass.

    `spans` holds the spans whose request id belongs to the pass, plus
    the setup spans (request id "setup"), which only feed
    `lp.maximize_s`. `requests` maps a request id to the wall-clock
    interval of a command-line batch (spawn, exit) for `cli.startup_s`
    and `cli.overhead_s`.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict = {}
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]

    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    m = {
        "lp.solves": 0,
        "lp.tableau_cells": 0,
        "lp.cert_max_bits": 0,
        "verify.profiles_checked": 0,
        "dataio.bytes_in": 0,
        "dataio.bytes_out": 0,
    }
    infeasible = 0
    nash_calls = 0
    nash_early = 0
    maximize = 0.0
    for span in spans:
        name = span[2]
        duration = span[4] - span[3]
        own = duration - child_time.get(span[0], 0.0)
        if span[5] == "setup":
            if name == "lp.maximize":
                maximize += own
            continue
        inclusive = name in INCLUSIVE
        self_time[name] = self_time.get(name, 0.0) + (duration if inclusive else own)
        calls[name] = calls.get(name, 0) + 1
        attrs = span[6] or {}
        parent = by_id.get(span[1])
        parent_name = parent[2] if parent is not None else ""
        if name == "lp.solve_feasibility":
            m["lp.solves"] += 1
            m["lp.tableau_cells"] += attrs["cells"]
            m["lp.cert_max_bits"] = max(m["lp.cert_max_bits"], attrs["bits"])
            infeasible += attrs["infeasible"]
        elif name == "nash.test_nash_exploitability":
            nash_calls += 1
            nash_early += attrs["is_nash"]
        elif name == "verify.verify_witness":
            m["verify.profiles_checked"] += attrs["profiles"]
        elif name == "games.surplus" and parent_name in (
            "verify.verify_actionwise",
            "verify.verify_profilewise",
        ):
            m["verify.profiles_checked"] += 1
        elif _is_parse(name) and not _is_parse(parent_name):
            m["dataio.bytes_in"] += attrs["bytes"]
        elif _is_emit(name) and not _is_emit(parent_name):
            m["dataio.bytes_out"] += attrs["bytes"]

    def total(*names):
        return sum((self_time.get(n, 0.0) for n in names), 0.0)

    m.update(
        {
            "lp.solve_self_s": total("lp.solve_feasibility"),
            "lp.verify_outcome_s": total("lp.verify_outcome"),
            "lp.infeasible_ratio": infeasible / m["lp.solves"] if m["lp.solves"] else 0.0,
            "lp.maximize_s": maximize,
            "correlated.build_s": total("correlated.build_ce_system"),
            "correlated.build_calls": calls.get("correlated.build_ce_system", 0),
            "correlated.normalize_s": total("correlated.normalize_dual"),
            "correlated.test_ce_s": total("correlated.test_ce_compatibility"),
            "nash.is_nash_s": total("nash.is_nash"),
            "nash.build_s": total("nash.build_nash_system"),
            "nash.test_s": total("nash.test_nash_exploitability"),
            "nash.early_exit_ratio": nash_early / nash_calls if nash_calls else 0.0,
            "games.surplus_s": total("games.surplus"),
            "games.surplus_calls": calls.get("games.surplus", 0),
            "games.product_s": total("games.product_distribution"),
            "verify.witness_s": total("verify.verify_witness"),
            "verify.actionwise_s": total("verify.verify_actionwise"),
            "verify.profilewise_s": total("verify.verify_profilewise"),
            "dataio.parse_s": total(*filter(_is_parse, self_time)),
            "dataio.emit_s": total(*filter(_is_emit, self_time)),
            "cli.main_s": total("cli.main"),
        }
    )

    startup = 0.0
    overhead = 0.0
    for request, (spawned, exited) in (requests or {}).items():
        mine = [s for s in spans if s[5] == request]
        main = [s for s in mine if s[2] == "cli.main"]
        entered = min(s[3] for s in main) if main else exited
        startup += entered - spawned
        library = [
            (max(s[3], entered), min(s[4], exited))
            for s in mine
            if s[2].startswith(LIBRARY) and s[4] > entered
        ]
        overhead += (exited - entered) - _union_length(library)
    m["cli.startup_s"] = startup
    m["cli.overhead_s"] = overhead
    return m
