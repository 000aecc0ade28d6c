"""Static checks on the source: no import is left unused in the package or
its tests, no private helper of the package is left without a caller, and
every public definition of the package is read.

A name bound by an import counts as used when the module reads it
anywhere (code or annotations) or lists it in its ``__all__``. A
module-level function or class whose name starts with ``_`` counts as
used when some module of the package names it (as a name, an attribute
or an imported name) outside the helper's own body. A public one, or a
public method of a package class, counts as read when some module names
it that way, or a file of the benchmark under ``perfbench/`` or a code
span of the README holds it as a word. The README's code spans are the
one list of library names that nothing in the package calls.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steinpoly"
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


def _unnamed_definitions(sources: dict[str, str]):
    """(module, name) of every definition no code names outside its body.

    That is every module-level function or class, and every public method
    of a module-level class as "Class.method"; dunders and private methods
    are left out.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if everywhere[node.name] == _names(node)[node.name]:
                yield mod, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        if everywhere[item.name] == _names(item)[item.name]:
                            yield mod, f"{node.name}.{item.name}"


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of every private module-level helper no other code names."""
    return sorted(
        f"{mod}.{name}" for mod, name in _unnamed_definitions(sources) if name.rpartition(".")[2].startswith("_")
    )


def code_span_words(markdown: str) -> set[str]:
    """The words inside the fenced code blocks and inline code spans of a Markdown text."""
    fenced = re.findall(r"```(.*?)```", markdown, flags=re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", markdown, flags=re.S))
    return {word for span in fenced + inline for word in re.findall(r"\w+", span)}


def unread_public(sources: dict[str, str], readers: set[str]) -> list[str]:
    """module.name of every public definition or method no other code names and readers lacks."""
    return sorted(
        f"{mod}.{name}"
        for mod, name in _unnamed_definitions(sources)
        if not (last := name.rpartition(".")[2]).startswith("_") and last not in readers
    )


def test_detects_orphaned_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _rec(n):\n    return _rec(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n",
    }
    assert orphaned_helpers(sources) == ["a._Gone", "a._rec"]


def test_no_orphaned_helpers():
    assert orphaned_helpers({p.stem: p.read_text() for p in MODULES}) == []


def test_detects_unread_public_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef in_docs():\n    pass\n\ndef alone():\n    return alone\n",
        "b": "from .a import used\n",
    }
    readers = code_span_words("Call `a.in_docs()`; alone is not code.\n")
    assert unread_public(sources, readers) == ["a.alone"]


def test_detects_unread_public_method():
    sources = {
        "a": (
            "class C:\n"
            "    def __init__(self):\n        self.x = 1\n\n"
            "    def used(self):\n        return self.x\n\n"
            "    def alone(self):\n        return self.alone()\n\n"
            "    def _private(self):\n        pass\n"
        ),
        "b": "from .a import C\n\nC().used()\n",
    }
    assert unread_public(sources, set()) == ["a.C.alone"]
    assert orphaned_helpers(sources) == []


def test_every_public_definition_is_read():
    benchmark = [p for p in (ROOT / "perfbench").rglob("*") if p.suffix in {".py", ".md", ".json"}]
    readers = code_span_words((ROOT / "README.md").read_text())
    for path in benchmark:
        readers.update(re.findall(r"\w+", path.read_text()))
    found = unread_public({p.stem: p.read_text() for p in MODULES}, readers)
    assert found == [], f"nothing reads {found}: call it from a route, name it in the README or delete it"
