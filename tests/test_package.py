"""Every name a public ``__all__`` lists must exist, or a star import fails."""

import importlib
import pkgutil

import pytest

import causalpch

MODULES = ["causalpch", *(f"causalpch.{m.name}"
                          for m in pkgutil.iter_modules(causalpch.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", ())
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(listed) <= namespace.keys()
