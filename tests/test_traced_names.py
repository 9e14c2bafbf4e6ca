"""The benchmark tracer wraps eqaudit functions by name, and its
workloads read eqaudit names as module attributes; every such name must
still exist, or `perfbench/run.py` fails to start."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists():
    tracing = _load_tracing()
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"eqaudit.{module}"), name, None))
    ]
    assert missing == []


def test_the_solve_statistics_read_both_arms():
    # `--trace 1` reads every traced solve's system and outcome through
    # `_solve_attrs`; a name it reads that is gone fails the traced run.
    from eqaudit import lp

    tracing = _load_tracing()
    feasible_sys = lp.LinearSystem(
        2, (lp.Row([1, 0], lp.GE, 2, 1), lp.Row([1, 1], lp.EQ, 5, 1))
    )
    infeasible_sys = lp.LinearSystem(2, (
        lp.Row([-1, 1], lp.GE, 0, 1), lp.Row([1, 1], lp.EQ, 1, 1), lp.Row([4, 0], lp.GE, 3, 4),
    ))
    feasible = lp.solve_feasibility(feasible_sys)
    infeasible = lp.solve_feasibility(infeasible_sys)
    assert isinstance(feasible, lp.Feasible) and isinstance(infeasible, lp.Infeasible)
    # cells: rows times (variables, one surplus per >= row, one column per row)
    assert tracing._solve_attrs((feasible_sys,), feasible) == {
        "cells": 2 * 5, "infeasible": False, "bits": 2,
    }
    assert tracing._solve_attrs((infeasible_sys,), infeasible) == {
        "cells": 3 * 7, "infeasible": True, "bits": 2,
    }


PERFBENCH = TRACING.parent
MODULES = ("cli", "correlated", "dataio", "games", "lp", "nash", "oracles", "verify")


def _module_reads(tree):
    """`(module, name)` for every `module.name` read of an eqaudit module
    that `from eqaudit import module` binds, and for every name that
    `from eqaudit.module import name` imports."""
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eqaudit":
            for alias in node.names:
                if alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eqaudit."):
            module = node.module.split(".", 1)[1]
            reads.update((module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            reads.add((aliases[node.value.id], node.attr))
    return reads


def test_every_name_the_benchmark_reads_exists():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= _module_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert ("correlated", "is_correlated_equilibrium") in reads
    missing = [
        f"{module}.{name}"
        for module, name in sorted(reads)
        if not hasattr(importlib.import_module(f"eqaudit.{module}"), name)
    ]
    assert missing == []


def test_each_verdict_and_scheme_is_one_object_everywhere():
    import eqaudit

    modules = [eqaudit] + [importlib.import_module(f"eqaudit.{m}") for m in MODULES]
    for name in (
        "ActionwiseScheme",
        "ProfilewiseScheme",
        "Compatible",
        "IsNash",
        "Exploitable",
        "is_correlated_equilibrium",
    ):
        exposed = {id(vars(m)[name]) for m in modules if name in vars(m)}
        assert len(exposed) == 1, name


def test_cli_verify_runs_the_traced_checkers(coordination, skewed_profile, tmp_path, capsys):
    from eqaudit import cli, correlated, dataio, nash

    tracing = _load_tracing()
    ce = correlated.test_ce_compatibility(coordination, skewed_profile)
    ne = nash.test_nash_exploitability(coordination, skewed_profile)
    documents = {
        "game": dataio.emit_game(coordination),
        "marginals": dataio.emit_marginals(coordination, skewed_profile),
        "ce-scheme": dataio.emit_scheme(coordination, ce.scheme),
        "ne-scheme": dataio.emit_scheme(coordination, ne.scheme),
        "ce-verdict": dataio.emit_verdict(coordination, ce),
        "ne-verdict": dataio.emit_verdict(coordination, ne),
    }
    paths = {}
    for key, text in documents.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        for key in ("ce-scheme", "ne-scheme", "ce-verdict", "ne-verdict"):
            argv = ["verify", str(paths["game"]), str(paths["marginals"]), str(paths[key])]
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[2] for span in tracer.spans]
    assert names.count("verify.verify_actionwise") == 2
    assert names.count("verify.verify_profilewise") == 2


def test_the_lp_metrics_count_one_solve_per_lp_request(monkeypatch, tmp_path):
    # `lp.solves` counts one traced `lp.solve_feasibility` per `test-ce`
    # request that takes the LP route, however many rounds of row
    # generation it takes (the two 4x4x4 cases take two), and none on a
    # route decided without the solver. So `lp.infeasible_ratio` is the
    # share of LP requests that are exploitable, and `lp.tableau_cells`
    # reads each whole coupling system the solver is handed.
    from eqaudit import correlated, lp
    from test_correlated import _workload_case
    from test_golden_verdicts import CASES, _case

    tracing = _load_tracing()
    cases = [_case(k) for k in range(CASES)]
    cases += [_workload_case(seed, (4, 4, 4)) for seed in (2, 5)]

    def explode(*_args, **_kwargs):
        raise AssertionError("the solver was reached")

    lp_route = []
    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve_feasibility", explode)
        for k, (game, p) in enumerate(cases):
            try:
                correlated.test_ce_compatibility(game, p)
            except AssertionError:
                lp_route.append(k)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        verdicts = []
        for k, (game, p) in enumerate(cases):
            tracer.request = k
            verdicts.append(correlated.test_ce_compatibility(game, p))
    finally:
        tracer.uninstall()
    for name in ("lp.solve_feasibility", "lp.verify_outcome", "correlated.build_ce_system"):
        assert sorted(span[5] for span in tracer.spans if span[2] == name) == lp_route
    metrics = tracing.layer_metrics(tracer.spans)
    exploitable = sum(isinstance(verdicts[k], correlated.Exploitable) for k in lp_route)
    assert 0 < exploitable < len(lp_route) < len(cases)
    assert metrics["lp.solves"] == metrics["correlated.build_calls"] == len(lp_route)
    assert metrics["lp.infeasible_ratio"] == exploitable / len(lp_route)
    cells = 0
    for k in lp_route:
        system = correlated.build_ce_system(*cases[k])
        ge_rows = sum(row.sense == lp.GE for row in system.rows)
        cells += len(system.rows) * (system.num_vars + ge_rows + len(system.rows))
    assert metrics["lp.tableau_cells"] == cells
