"""Static checks on the source: no import is left unused in the package or
its tests, no private helper of the package is left without a caller, and
the list of public definitions that nothing reads only shrinks.

A name bound by an import counts as used when the module reads it
anywhere (code or annotations) or lists it in its ``__all__``. A
module-level function or class whose name starts with ``_`` counts as
used when some module of the package names it (as a name, an attribute
or an imported name) outside the helper's own body. A public one counts
as read when some module names it that way, or a file of the benchmark
under ``perfbench/`` or a code span of the README holds it as a word.
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

# Public top-level definitions that no other module, no benchmark file and
# no README code span names. Each is still to be documented, moved next to
# the tests that use it, or deleted; the list may only shrink.
UNREAD_PUBLIC = {
    "barcplx.bar_differential",
    "barcplx.deconcat",
    "barcplx.is_zero_bar",
    "cones.cone_to_steinberg",
    "mpl.gl_act",
    "mpl.identity_terms_to_json",
    "mpl.verify_li_identity",
    "qlinalg.dual_basis",
    "qlinalg.mat_vec",
    "qlinalg.vec_from_json",
    "qlinalg.vec_neg",
    "st2.make_corr",
    "st2.span_solve",
    "st2.st2_coproduct",
    "steinberg.block_embed",
    "steinberg.residue",
    "steinberg.st_multiply",
}


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
    """(module, name) of every module-level function or class no code names outside its body."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if everywhere[node.name] == _names(node)[node.name]:
                    yield mod, node.name


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of every private module-level helper no other code names."""
    return sorted(f"{mod}.{name}" for mod, name in _unnamed_definitions(sources) if name.startswith("_"))


def code_span_words(markdown: str) -> set[str]:
    """The words inside the fenced code blocks and inline code spans of a Markdown text."""
    fenced = re.findall(r"```(.*?)```", markdown, flags=re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", markdown, flags=re.S))
    return {word for span in fenced + inline for word in re.findall(r"\w+", span)}


def unread_public(sources: dict[str, str], readers: set[str]) -> list[str]:
    """module.name of every public module-level definition no other code names and readers lacks."""
    return sorted(
        f"{mod}.{name}"
        for mod, name in _unnamed_definitions(sources)
        if not name.startswith("_") and name not in readers
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


def test_unread_public_definitions_only_shrink():
    benchmark = [p for p in (ROOT / "perfbench").rglob("*") if p.suffix in {".py", ".md", ".json"}]
    readers = code_span_words((ROOT / "README.md").read_text())
    for path in benchmark:
        readers.update(re.findall(r"\w+", path.read_text()))
    found = set(unread_public({p.stem: p.read_text() for p in MODULES}, readers))
    new, stale = sorted(found - UNREAD_PUBLIC), sorted(UNREAD_PUBLIC - found)
    assert not new, f"nothing reads {new}: call it from a route, name it in the README or delete it"
    assert not stale, f"{stale} gone or read now: drop it from UNREAD_PUBLIC"
