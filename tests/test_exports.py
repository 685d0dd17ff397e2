"""The package namespace re-exports exactly each module's public API, and
every public name has a caller outside the unit tests."""

import ast
import importlib
import inspect
import pathlib

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


ROOT = pathlib.Path(__file__).resolve().parents[1]
# block_iteration is the exact reference the unit tests compare the inexact
# block iteration against; no run calls it.
REFERENCE_ONLY = {"block_iteration"}


def _used_names():
    """Every AST Name, Attribute and import alias in the code that runs: the
    package modules, the demos, the benchmark and the acceptance tests."""
    src = ROOT / "src" / "schrodloc"
    files = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("module", sorted(_reexports()))
def test_public_names_have_a_caller(module):
    public = set(importlib.import_module("schrodloc." + module).__all__)
    assert sorted(public - _used_names() - REFERENCE_ONLY) == []


def test_no_private_scipy_or_numpy_imports():
    """No package module imports a private (underscore) module or name of
    scipy or numpy, whose layout may change in any release."""
    found = []
    for path in sorted((ROOT / "src" / "schrodloc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
            else:
                continue
            for name in names:
                root, *rest = name.split(".")
                if root in ("scipy", "numpy") and any(part.startswith("_") for part in rest):
                    found.append("%s: %s" % (path.name, name))
    assert found == []
