"""The package namespace re-exports exactly each module's public API, and
every public name has a caller outside the unit tests."""

import ast
import importlib
import inspect
import pathlib
import textwrap

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


def _package_nodes():
    """(module file name, node) for every AST node of the package modules."""
    for path in sorted((ROOT / "src" / "schrodloc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_private_scipy_or_numpy_imports():
    """No package module imports a private (underscore) module or name of
    scipy or numpy, whose layout may change in any release."""
    found = []
    for fname, node in _package_nodes():
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
        else:
            continue
        for name in names:
            root, *rest = name.split(".")
            if root in ("scipy", "numpy") and any(part.startswith("_") for part in rest):
                found.append("%s: %s" % (fname, name))
    assert found == []


def test_one_home_for_the_sparse_lu_and_arpack():
    """SuperLU's factorization and its solve mode stay inside fem, which
    hands out solves (and the pivots of an LDL^T factor, for the
    eigenvalue count), and the package makes one ARPACK call."""

    def calls(name):
        return [
            fname
            for fname, node in _package_nodes()
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]

    trans = {
        fname
        for fname, node in _package_nodes()
        if isinstance(node, ast.keyword) and node.arg == "trans"
    }
    assert set(calls("splu")) == {"fem.py"} and trans == {"fem.py"}
    assert len(calls("eigsh")) == 1


def test_one_pair_oracle_for_the_pipelines():
    """Every pipeline takes its pairs from shift_invert_oracle at every
    size: no package module calls dense_oracle, which stays the tests'
    exact reference, and no size switch between the two exists."""
    called = {
        fname
        for fname, node in _package_nodes()
        if isinstance(node, ast.Call)
        and "dense_oracle" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    named = {
        fname
        for fname, node in _package_nodes()
        if "auto_oracle" in [getattr(node, key, None) for key in ("id", "attr", "name", "value")]
    }
    assert called == set() and named == set()
    assert not hasattr(sl, "auto_oracle") and not hasattr(sl.eig, "auto_oracle")


def test_one_home_for_the_lapack_capsule():
    """The package reads a LAPACK routine out of scipy's cython_lapack
    capsules (__pyx_capi__, PyCapsule_GetPointer) in one function, and
    nowhere else."""
    foreign = {"__pyx_capi__", "PyCapsule_GetPointer"}

    def mentions(nodes):
        return [
            name
            for node in nodes
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "value", None))
            if isinstance(name, str) and name in foreign
        ]

    homes = [
        (fname, node.name, sorted(set(mentions(ast.walk(node)))))
        for fname, node in _package_nodes()
        if isinstance(node, ast.FunctionDef) and mentions(ast.walk(node))
    ]
    assert [found for *_, found in homes] == [sorted(foreign)], homes
    assert sorted(mentions(node for _, node in _package_nodes())) == sorted(foreign)


def _perfbench(module, monkeypatch):
    """A benchmark module, imported (never edited) from the repository root."""
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench." + module)


def _hook_reads(hook):
    """The keys a perfbench span hook reads from its bound arguments: every
    constant subscript of the name `args` in the hook's source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


def test_names_the_benchmark_traces_resolve(monkeypatch):
    """The benchmark times and counts from outside, by wrapping the public
    functions it names: the SETUP_NAMES spans add up to setup_s, and each
    span hook reads arguments of its call by name. A rename or a dropped
    parameter would silently drop a span or crash traced runs."""
    importlib.import_module("schrodloc.cli")  # loads every layer module
    tracing = _perfbench("tracing", monkeypatch)
    layers = _perfbench("layers", monkeypatch)
    traced = dict(tracing._layer_functions())
    assert sorted(tracing.SETUP_NAMES - traced.keys()) == []
    hooks = layers.Capture().hooks()
    assert sorted(hooks.keys() - traced.keys()) == []
    reads = {}
    for name, hook in hooks.items():
        params = inspect.signature(traced[name]).parameters
        reads[name] = _hook_reads(hook)
        assert sorted(reads[name] - params.keys()) == [], name
    assert set().union(*reads.values()) == {"iters", "load", "steps", "smoother", "sys"}
    assert inspect.isfunction(sl.AssembledSystem.solve)
