from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["core", "graph", "bijection", "oracles", "cli"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"preisach.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), name
    namespace: dict = {}
    exec(f"from preisach.{module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()
