"""Spans around the calls into schrodloc's modules, recorded from outside.

The package itself is not edited. Instead, `Instrumentation.install`
replaces each public function of the layer modules by a timing wrapper in
every module namespace that holds it (the defining module and every module
that imported the name), and `uninstall` puts the originals back. A span
records name, start, end and the index of its parent span; spans stay in
memory and are written out when the run ends.

Two sets of wrappers exist. The boundary set covers only the set-up
functions that define `setup_s`, which are called a handful of times per
pass, so it stays on in the untraced runs. The full set covers every
public function plus `AssembledSystem.solve`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PKG = "schrodloc"
LAYERS = ("potential", "fem", "schwarz", "eig", "analysis", "reports", "cli")

# set-up boundaries: field generators, geometry, assembly, preconditioner
# construction and contraction estimate / smoother composition
SETUP_NAMES = frozenset(
    [
        "potential.gen_periodic",
        "potential.gen_iid",
        "potential.gen_tensor",
        "potential.gen_planted",
        "potential.gen_domino",
        "potential.analyze_geometry",
        "fem.assemble",
        "schwarz.build_preconditioner",
        "schwarz.estimate_contraction",
        "schwarz.compose_smoother",
    ]
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "info": self.info,
        }


class Tracer:
    """In-memory span recorder with an explicit open-span stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def innermost(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order: %d closed, %d open" % (idx, popped))

    def reset(self):
        if self._stack:
            raise RuntimeError("reset with %d spans still open" % len(self._stack))
        self.spans = []


def _layer_functions():
    """(layer.name, function) for every public function the layer modules define."""
    out = []
    for layer in LAYERS:
        mod = sys.modules["%s.%s" % (PKG, layer)]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            out.append(("%s.%s" % (layer, attr), obj))
    return out


class Instrumentation:
    """Installs span wrappers into the loaded schrodloc modules and removes them.

    hooks maps a qualified name to a callable (span, bound_arguments, result)
    that stores counters in span.info; it runs after the call returns and
    outside the span's interval.
    """

    def __init__(self, tracer, full, hooks=None):
        self.tracer = tracer
        self.full = full
        self.hooks = hooks or {}
        self._saved = []

    def _wrap(self, qualname, fn):
        tracer = self.tracer
        hook = self.hooks.get(qualname)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.innermost() == qualname:
                # a recursive call (reports.jsonable) folds into its caller's span
                return fn(*args, **kwargs)
            idx = tracer.open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span = tracer.spans[idx]
                span.info = span.info or {}
                hook(span, bound.arguments, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        targets = [
            (q, fn) for q, fn in _layer_functions() if self.full or q in SETUP_NAMES
        ]
        namespaces = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PKG or name.startswith(PKG + "."))
        ]
        for qualname, fn in targets:
            wrapper = self._wrap(qualname, fn)
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        self._saved.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        if self.full:
            cls = sys.modules[PKG + ".fem"].AssembledSystem
            self._saved.append((cls, "solve", cls.solve))
            cls.solve = self._wrap("fem.AssembledSystem.solve", cls.solve)

    def uninstall(self):
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved = []


def self_times(spans):
    """Per-layer self time: span durations minus the time their direct children cover."""
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration
        if s.parent is not None:
            parent = spans[s.parent]
            out[parent.layer] = out.get(parent.layer, 0.0) - s.duration
    return out


def outer_spans(spans, names):
    """Spans in `names` that have no ancestor in `names`."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def outer_time(spans, names):
    """Total duration of the outermost spans in `names`, nested calls counted once."""
    return sum(s.duration for s in outer_spans(spans, names))
