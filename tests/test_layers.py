"""The package's modules form layers: the model (`games`) at the bottom,
the solver, the judge and the file formats on it, the producers above
them. The judge (`verify`) loads nothing but the model, so a certificate
is checked without the code that made it."""

import ast
import importlib
from pathlib import Path

from eqaudit import games

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqaudit"

ALLOWED = {
    "games": set(),
    "lp": set(),
    "verify": {"games"},
    "dataio": {"games"},
    "correlated": {"games", "lp", "verify"},
    "nash": {"games", "lp", "correlated"},
    "oracles": {"games", "lp", "correlated", "nash", "verify"},
}


def _package_imports(node):
    """The package modules one import statement names, or an empty list."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "eqaudit":
                return []
            return parts[1:2] or [alias.name for alias in node.names]
        if node.level == 1:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        return []
    if isinstance(node, ast.Import):
        return [
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("eqaudit.")
        ]
    return []


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _scan(tree):
    """(top-level imports, imports nested in a function or a
    TYPE_CHECKING block) of one module, as sets of module names."""
    top, nested = set(), set()

    def visit(node, hidden):
        names = _package_imports(node)
        (nested if hidden else top).update(names)
        for child in ast.iter_child_nodes(node):
            visit(
                child,
                hidden
                or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                or (isinstance(node, ast.If) and _is_type_checking(node.test)),
            )

    visit(tree, False)
    return top, nested


def _graph():
    """Every package module's package imports, deferred ones included,
    and, separately, its deferred ones."""
    graph, nested = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        top, hidden = _scan(ast.parse(path.read_text(encoding="utf-8")))
        graph[path.stem] = (top | hidden) - {path.stem}
        nested[path.stem] = hidden
    return graph, nested


def test_each_module_imports_only_lower_layers():
    graph = _graph()[0]
    assert set(ALLOWED) <= set(graph)
    wrong = {
        module: sorted(graph[module] - allowed)
        for module, allowed in ALLOWED.items()
        if graph[module] - allowed
    }
    assert wrong == {}


def test_no_package_import_is_deferred():
    nested = _graph()[1]
    assert {module: names for module, names in nested.items() if names} == {}


def test_import_graph_is_acyclic():
    graph = _graph()[0]
    done, active = set(), []

    def visit(module):
        assert module not in active, f"import cycle: {active + [module]}"
        if module in done:
            return
        active.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        active.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_the_scan_sees_every_import_form():
    source = (
        "from . import lp, nash\n"
        "from .games import Game\n"
        "import eqaudit.verify\n"
        "from eqaudit import dataio\n"
        "from eqaudit.correlated import x\n"
        "import json\n"
        "def f():\n"
        "    from . import oracles\n"
        "if TYPE_CHECKING:\n"
        "    from .cli import main\n"
    )
    top, nested = _scan(ast.parse(source))
    assert top == {"lp", "nash", "games", "verify", "dataio", "correlated"}
    assert nested == {"oracles", "cli"}


def _private_reads(tree):
    """`module.name` for every underscore name that one module imports
    from a package module or reads off a package module it imported."""
    found, modules = set(), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and _package_imports(node)):
            continue
        if node.module in (None, "eqaudit"):  # `from . import lp` binds modules
            modules.update(alias.asname or alias.name for alias in node.names)
        else:
            module = _package_imports(node)[0]
            found.update(
                f"{module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = {
        path.stem: sorted(_private_reads(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {module: names for module, names in found.items() if names} == {}


def test_the_private_scan_sees_imports_and_attribute_reads():
    source = (
        "from . import lp\n"
        "from .games import Game, _strides\n"
        "from eqaudit.correlated import _check\n"
        "from __future__ import annotations\n"
        "lp._Simplex\n"
        "lp.solve\n"
        "Game._hidden\n"
    )
    assert _private_reads(ast.parse(source)) == {
        "games._strides",
        "correlated._check",
        "lp._Simplex",
    }


def test_the_producer_does_not_read_the_checkers_surplus():
    # `correlated` fills unobserved fees with its own surplus arithmetic, so
    # a fault in the checker's `surplus_parts` cannot also shape the scheme
    # it checks. No import, name, attribute or string in `correlated` may
    # name the checker's surplus functions.
    checker = {"surplus_parts", "surplus_table"}
    tree = ast.parse((PACKAGE / "correlated.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert named & checker == set()


def test_each_model_type_has_one_construction_path():
    # Every integer-held model type is built by the base's one Fraction
    # constructor or by `from_columns`, and both reach its `_store`; a type
    # with its own `__init__` or a pair constructor would be a second path.
    # Its `_RATIOS` names the Fraction field that the constructor keeps.
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__main__":  # which would run the command line
            importlib.import_module(f"eqaudit.{path.stem}")
    found = set()
    stack = list(games._Frozen.__subclasses__())
    while stack:
        cls = stack.pop()
        found.add(cls)
        stack.extend(cls.__subclasses__())
    assert {cls.__name__ for cls in found} >= {
        "Game",
        "MarginalProfile",
        "JointDistribution",
        "DeviationKernel",
        "ActionwiseScheme",
        "ProfilewiseScheme",
    }
    assert not hasattr(games._Frozen, "from_ratios")
    for cls in found:
        assert "__init__" not in vars(cls), cls.__name__
        assert not hasattr(cls, "from_ratios"), cls.__name__
        assert "_store" in vars(cls), cls.__name__
        _at, _depth, view = cls._RATIOS
        assert view in cls._FIELDS, cls.__name__
