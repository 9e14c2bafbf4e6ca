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
    feasible_sys = lp.LinearSystem(2, (lp.ge([1, 0], 2), lp.eq([1, 1], 5)))
    infeasible_sys = lp.LinearSystem(
        2, (lp.ge([-1, 1], 0), lp.eq([1, 1], 1), lp.ge([1, 0], "3/4"))
    )
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
