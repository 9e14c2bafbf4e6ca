"""Every function, class and method defined in the package is named
somewhere in the package, the scripts or the benchmark, so no code is
left that only its own tests reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eqaudit"
READERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# Public conveniences that only tests call today, kept for library users.
TEST_ONLY = {
    "lp.ge": "builds a `>=` row, the counterpart of `lp.eq`",
    "games.JointDistribution.prob": "one profile's probability",
    "games.JointDistribution.marginal": "one player's marginal",
}


def _definitions(tree, prefix):
    """`(qualified name, name)` of every function, class and method under
    `tree`, nested ones included; dunder names are left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}.{node.name}", node.name
            yield from _definitions(node, f"{prefix}.{node.name}")
        else:
            yield from _definitions(node, prefix)


def _strings_assigned(tree, target):
    """Every string constant in the value assigned to the name `target`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            found.update(
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return found


def _used(tree):
    """Every name, attribute and imported name that `tree` reads, and the
    strings of its `__all__` and `TRACED`."""
    used = _strings_assigned(tree, "__all__") | _strings_assigned(tree, "TRACED")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _stranded():
    used, defined = set(), []
    for folder in READERS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _used(tree)
            if folder == PACKAGE:
                defined += _definitions(tree, path.stem)
    return sorted(qualified for qualified, name in defined if name not in used)


def test_no_definition_is_stranded():
    assert _stranded() == sorted(TEST_ONLY)


def test_the_scan_sees_each_kind_of_use():
    source = (
        "from .games import imported\n"
        "__all__ = ['exported']\n"
        "TRACED = {'lp': ('traced',)}\n"
        "called()\n"
        "obj.attribute\n"
        "class Kept:\n"
        "    def __repr__(self): ...\n"
        "    def method(self):\n"
        "        def inner(): ...\n"
    )
    tree = ast.parse(source)
    assert {"imported", "exported", "traced", "called", "attribute"} <= _used(tree)
    assert list(_definitions(tree, "m")) == [
        ("m.Kept", "Kept"),
        ("m.Kept.method", "method"),
        ("m.Kept.method.inner", "inner"),
    ]
