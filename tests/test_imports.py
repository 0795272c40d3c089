"""Static checks of the package sources: no unused top-level import, no
private name imported from another listlab module unless it is listed,
numpy's stream constructors named only in `seeds`, and `cli` and `config`
importing no domain module when they load."""

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


def test_every_module_resolves_as_a_package_attribute():
    # the names the package's __getattr__ imports on first access
    assert listlab._SUBMODULES == {p.stem for p in SOURCES}


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


# listlab modules that a module may import as it loads; any other it imports
# inside the function that uses it. `cli` loads a command group's modules when
# the group runs, and `config` is a leaf that every domain module imports.
LOAD_TIME_IMPORTS = {
    "cli": {"config", "errors", "reports"},
    "config": {"errors", "reports"},
}


def _load_time_imports(tree: ast.AST) -> set[tuple[int, str]]:
    """(line, module) of each listlab module imported outside a function body."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {
                (node.lineno, a.name.removeprefix("listlab."))
                for a in node.names if a.name.startswith("listlab.")
            }
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "listlab" or module.startswith("listlab."):
                source = module.removeprefix("listlab").lstrip(".")
                found |= {(node.lineno, source or a.name) for a in node.names}
        found |= _load_time_imports(node)
    return found


def test_cli_and_config_import_no_domain_module_as_they_load():
    extra = [
        f"{name}.py line {line}: imports {module}"
        for name, allowed in LOAD_TIME_IMPORTS.items()
        for line, module in sorted(_load_time_imports(
            ast.parse((SOURCES[0].parent / f"{name}.py").read_text(encoding="utf-8"))
        ))
        if module not in allowed
    ]
    assert not extra, extra


def test_load_time_import_detector():
    tree = ast.parse(
        "import numpy\nimport listlab.seeds\nfrom .galois import f\nfrom . import oracle\n"
        "from listlab import bounds\nfrom listlab.errors import E\nif True:\n"
        "    from .plurality import g\nclass C:\n    from .chaining import h\n"
        "def run():\n    from .harness import i\n"
    )
    assert _load_time_imports(tree) == {
        (2, "seeds"), (3, "galois"), (4, "oracle"), (5, "bounds"), (6, "errors"),
        (8, "plurality"), (10, "chaining"),
    }
