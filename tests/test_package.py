from __future__ import annotations

import ast
import importlib
import inspect

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


def test_cli_does_not_call_the_enumeration_oracles():
    # enumerate_increasing, the phi_inverse table and the literal validator
    # increasing_subsequence stay test oracles; production checks and
    # answers phi through the staircase codec
    import preisach.cli

    tree = ast.parse(inspect.getsource(preisach.cli))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert not names & {"enumerate_increasing", "phi_inverse", "increasing_subsequence"}


def test_oracles_import_only_core():
    # the oracles stand on the other side of every cross-check, so they
    # touch none of the graph or bijection machinery
    import preisach.oracles

    tree = ast.parse(inspect.getsource(preisach.oracles))
    modules = {
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    modules |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert {m for m in modules if m.startswith((".", "preisach"))} == {".core"}
