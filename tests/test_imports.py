"""Every name a ``notesetter`` module imports is used in that module.

Each source file is parsed with ``ast``. A name counts as used when it appears
as a name anywhere in the module, inside a quoted annotation, or in
``__all__`` (the package's re-exports).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "notesetter").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        # arguments and annotated assignments carry .annotation, defs .returns
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted((line, name)
                    for name, line in imported_names(tree).items()
                    if name not in used_names(tree))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import heapq\nimport json as j\nfrom x import (a, b)\n"
                     "__all__ = ['a']\ndef f(v: 'j.X') -> None:\n    return v\n")
    assert set(imported_names(tree)) - used_names(tree) == {"heapq", "b"}
