"""Static check of the package sources: no unused top-level import."""

from __future__ import annotations

import ast
from pathlib import Path

import listlab

SOURCES = sorted(
    p for p in Path(listlab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_unused_top_level_imports():
    unused = {
        p.name: found
        for p in SOURCES
        if (found := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not unused, unused


def test_detector_flags_an_unused_import():
    tree = ast.parse("import math\nfrom itertools import combinations, product\nproduct()\n")
    assert _unused_imports(tree) == ["line 1: math", "line 2: combinations"]
