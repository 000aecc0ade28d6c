"""Static checks on the source: no import is left unused in the package or
its tests, and no private helper of the package is left without a caller.

A name bound by an import counts as used when the module reads it
anywhere (code or annotations) or lists it in its ``__all__``. A
module-level function or class whose name starts with ``_`` counts as
used when some module of the package names it (as a name, an attribute
or an imported name) outside the helper's own body.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "steinpoly"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detects_unused_import():
    src = "from typing import Callable, Sequence\nimport os\n__all__ = ['os']\nx: Sequence = ()\n"
    assert unused_imports(src) == ["Callable (line 1)"]


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names(node) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.asname or sub.name] += 1
    return names


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of every private module-level helper no other code names."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    names = {mod: _names(tree) for mod, tree in trees.items()}
    everywhere = sum(names.values(), Counter())
    orphans = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if everywhere[node.name] == _names(node)[node.name]:
                    orphans.append(f"{mod}.{node.name}")
    return sorted(orphans)


def test_detects_orphaned_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _rec(n):\n    return _rec(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n",
    }
    assert orphaned_helpers(sources) == ["a._Gone", "a._rec"]


def test_no_orphaned_helpers():
    assert orphaned_helpers({p.stem: p.read_text() for p in MODULES}) == []
