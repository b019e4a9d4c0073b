"""Every name a public ``__all__`` lists must exist, or a star import fails;
every name the benchmark scripts import from causalpch must exist too."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import causalpch

MODULES = ["causalpch", *(f"causalpch.{m.name}"
                          for m in pkgutil.iter_modules(causalpch.__path__))]

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", ())
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(listed) <= namespace.keys()


def causalpch_imports(path):
    """(module, name) for each name a ``from causalpch[.x] import`` in the
    file names, and (module, None) for each ``import causalpch[.x]``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "causalpch"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "causalpch")


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_resolve(script):
    # the benchmark runs the parent commit's scripts against this package,
    # so deleting a name they import fails it
    missing = []
    for module, name in causalpch_imports(BENCH / script):
        try:
            found = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_bench_import_guard_sees_imports():
    names = {pair for path in BENCH.glob("*.py")
             for pair in causalpch_imports(path)}
    assert ("causalpch", "HazardModel") in names
    assert ("causalpch.cli", "posterior_from_files") in names
    assert ("causalpch.cli", None) in names
