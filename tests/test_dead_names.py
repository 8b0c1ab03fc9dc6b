"""Every top-level name a ``notesetter`` module defines is used somewhere.

Each module's top-level functions, classes and assigned names are collected
with ``ast``. A name counts as used when some file under ``src/``, ``tests/``
or ``bench/`` reads it as a name or an attribute, imports it, or holds it as a
whole string constant (``__all__`` entries, attributes looked up by name).
The definition itself does not count. Dunder names are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "notesetter").glob("*.py"))
TREES = ("src", "tests", "bench")


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every top-level def, class and assignment target."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names[leaf.id] = node.lineno
    return {k: v for k, v in names.items()
            if not (k.startswith("__") and k.endswith("__"))}


def referenced_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)
    return used


@pytest.fixture(scope="module")
def references() -> set[str]:
    used = set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            used |= referenced_names(ast.parse(path.read_text(), filename=str(path)))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_name_is_used(path, references):
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = sorted((line, name) for name, line in defined_names(tree).items()
                  if name not in references)
    assert not dead, f"{path.name}: names nothing uses " + ", ".join(
        f"{name} (line {line})" for line, name in dead)


def test_scan_flags_an_unused_name():
    module = ast.parse("A, B = 1, 2\nC: int = 3\ndef f():\n    return A\n"
                       "class K:\n    pass\n__all__ = ['K']\n")
    caller = ast.parse("import m\nm.f()\n")
    used = referenced_names(module) | referenced_names(caller)
    assert set(defined_names(module)) - used == {"B", "C"}
