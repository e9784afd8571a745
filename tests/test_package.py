from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module", ["core", "graph", "bijection", "oracles", "cli", "oracle_routes"]
)
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


def _import_names(module) -> set[str]:
    """The modules and names that `module`'s import statements mention."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    return names


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


@pytest.mark.parametrize("module", ["__init__", "core", "graph", "bijection", "oracles", "cli"])
def test_production_does_not_import_the_oracle_routes(module):
    # the oracle routes are the tests' side of every cross-check; no
    # production module, and not the package itself, reaches them
    name = "preisach" if module == "__init__" else f"preisach.{module}"
    names = _import_names(importlib.import_module(name))
    assert not [m for m in names if "oracle_routes" in m], names


def test_importing_the_package_and_cli_leaves_the_oracle_routes_out():
    code = (
        "import sys, preisach, preisach.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('preisach')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert "preisach.cli" in out.stdout and "preisach.oracle_routes" not in out.stdout, out.stdout
