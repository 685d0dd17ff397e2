"""The package namespace re-exports exactly each module's public API."""

import ast
import importlib
import inspect

import pytest

import schrodloc as sl


def _reexports():
    """{module name: names the package imports from it}, read from __init__."""
    tree = ast.parse(inspect.getsource(sl))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


@pytest.mark.parametrize("module", sorted(_reexports()))
def test_package_reexports_match_module_all(module):
    mod = importlib.import_module("schrodloc." + module)
    assert sorted(_reexports()[module]) == sorted(mod.__all__)
    assert all(getattr(sl, name) is getattr(mod, name) for name in mod.__all__)
