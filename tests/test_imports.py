"""Static checks of the package sources: no unused top-level import, no
private name imported from another listlab module unless it is listed, and
numpy's stream constructors named only in `seeds`."""

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


# (importing module, source module, private name): every private name one
# listlab module imports from another
PRIVATE_IMPORTS = {
    ("chaining", "plurality", "_batch_size"),
    ("chaining", "plurality", "_counts_side_by_side"),
    ("oracle", "linear_code", "_is_int"),
    ("oracle", "plurality", "_agreement_tails"),
    ("oracle", "plurality", "_top_sum_maxima"),
}


def _private_imports(name: str, tree: ast.Module) -> set[tuple[str, str, str]]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and not source.startswith("listlab."):
                continue
            source = source.removeprefix("listlab.")
            found.update(
                (name, source, alias.name) for alias in node.names if alias.name.startswith("_")
            )
    return found


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


def test_private_imports_are_listed():
    found = set()
    for p in SOURCES:
        found |= _private_imports(p.stem, ast.parse(p.read_text(encoding="utf-8")))
    assert found == PRIVATE_IMPORTS


def test_private_import_detector():
    tree = ast.parse(
        "from .plurality import _a, b\nfrom listlab.oracle import _c\nfrom os import _exit\n"
        "def f():\n    from .galois import _d\n"
    )
    assert _private_imports("m", tree) == {
        ("m", "plurality", "_a"), ("m", "oracle", "_c"), ("m", "galois", "_d")
    }


# every listlab stream is derived in seeds, from (seed, path) keys
RNG_CONSTRUCTORS = {"default_rng", "SeedSequence", "PCG64"}


def _rng_constructors(tree: ast.Module) -> set[str]:
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return names & RNG_CONSTRUCTORS


def test_rng_constructors_named_only_in_seeds():
    named = {
        p.stem: found
        for p in SOURCES
        if (found := _rng_constructors(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert set(named) == {"seeds"}, named


def test_rng_constructor_detector():
    tree = ast.parse(
        "import numpy as np\nnp.random.default_rng(1)\nfrom numpy.random import PCG64\n"
        "def f(SeedSequence):\n    return SeedSequence\n"
    )
    assert _rng_constructors(tree) == {"default_rng", "PCG64", "SeedSequence"}
