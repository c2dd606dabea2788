"""Outside-in tracer for the sphertwist layers.

The package has no instrumentation of its own, so the tracer wraps its
public functions from outside.  Modules import each other with
``from .exactlin import rref``, which copies the function object into the
importing namespace; a wrapper is therefore rebound in every loaded
``sphertwist.*`` module that holds the original.  Methods (``__init__``,
``mul``, ``sub``) are wrapped on their class.  ``uninstall`` puts every
original back, so untraced runs in the same process pay nothing.

Each wrapped call records one span ``[name, parent, start, end, size,
outermost]`` in a list held in memory; ``parent`` is the index of the
enclosing span (-1 for a root), ``outermost`` is false when a call of the
same name is already open, so recursion is not double counted in
inclusive time.  ``aggregate`` turns the list into per-name totals: calls,
inclusive seconds, self seconds (duration minus the durations of direct
child spans) and the recorded sizes.  Targets too hot for a span
(``COUNTED``) only have their calls counted.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

PACKAGE = "sphertwist"


def _rref_size(args, kwargs, result):
    m = args[0]
    return (m.nrows, m.nrows * m.ncols, len(result[1]))


def _cells(args, kwargs, result):
    return result.nrows * result.ncols


def _self_dim(args, kwargs, result):
    return args[0].dim


def _result_dim(args, kwargs, result):
    return result.dim


def _hom_unknowns(args, kwargs, result):
    return args[0].dim * args[1].dim


def _terms(args, kwargs, result):
    return len(result.terms)


# (module, attribute, size function).  An attribute "Class.method" is
# wrapped on the class; a plain name is rebound wherever it is imported.
TARGETS = [
    ("exactlin", "rref", _rref_size),
    ("exactlin", "kronecker", _cells),
    ("exactlin", "solve", None),
    ("exactlin", "kernel_basis", None),
    ("exactlin", "Matrix.mul", None),
    ("exactlin", "Matrix.sub", None),
    ("algebra", "Algebra.__init__", _self_dim),
    ("algebra", "enveloping", _result_dim),
    ("algebra", "lift_idempotents", None),
    ("modules", "Module.__init__", None),
    ("modules", "hom_space", _hom_unknowns),
    ("modules", "projective_cover", None),
    ("modules", "in_add", None),
    ("modules", "endomorphism_algebra", None),
    ("resolutions", "minimal_resolution", _terms),
    ("resolutions", "partially_minimal_resolution", _terms),
    ("frobenius", "build_context", None),
    ("frobenius", "stable_hom", None),
    ("frobenius", "injective_envelope", None),
    ("homology", "ext_dims", None),
    ("homology", "tor_dims", None),
    ("homology", "tensor_square", None),
    ("homology", "cotwist_data", None),
    ("spherical", "tilting_audit", None),
    ("spherical", "relatively_spherical_check", None),
    ("spherical", "add_periodicity_check", None),
    ("twist", "equivalence_certificate", None),
    ("twist", "hom_complex", None),
    ("twist", "twist_apply", None),
    ("twist", "perfect_model", None),
]

# Targets too hot for a span each: only their calls are counted.
COUNTED = [
    ("exactlin", "Matrix.__init__"),
]


def span_name(module, attr):
    """Metric prefix of a target: ``Matrix.__init__`` becomes ``Matrix.init``."""
    return "%s.%s" % (module, attr.replace("__init__", "init"))


class Tracer:
    """Records spans of the wrapped layer calls; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = {span_name(m, a): [0] for m, a in COUNTED}
        self._stack = []
        self._patches = []

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import everything first: a module imported after the patching
        # would copy a wrapper into its namespace that uninstall never sees
        mods = {
            module: importlib.import_module("%s.%s" % (PACKAGE, module))
            for module, _ in COUNTED + [t[:2] for t in TARGETS]
        }
        for module, attr in COUNTED:
            cell = self.counts[span_name(module, attr)]
            self._rebind(mods[module], attr, lambda fn: self._count(cell, fn))
        for module, attr, size in TARGETS:
            name = span_name(module, attr)
            self._rebind(mods[module], attr, lambda fn: self._wrap(name, fn, size))

    def _rebind(self, mod, attr, make_wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            self._patch(cls, meth, make_wrapper(cls.__dict__[meth]))
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(original)
        for holder in self._namespaces():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    @staticmethod
    def _namespaces():
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    # -- recording -----------------------------------------------------------

    @staticmethod
    def _count(cell, fn):
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counter

    def _wrap(self, name, fn, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, depth[0] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[0] += 1
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                depth[0] -= 1
                stack.pop()
            if size is not None:
                rec[4] = size(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def stage(self, name):
        """A span opened by the caller itself, e.g. around a workload stage."""
        stack = self._stack
        rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, True]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            stack.pop()

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset with open spans")
        self.spans.clear()
        for cell in self.counts.values():
            cell[0] = 0


def aggregate(spans):
    """Per-name totals of a span list.

    Returns ``{name: {"calls", "s", "self_s", "size"}}`` where ``s`` sums
    the durations of outermost calls, ``self_s`` sums duration minus the
    durations of direct children, and ``size`` is the list of recorded
    sizes (empty when the target has no size function).
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, size, outer in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, parent, start, end, size, outer) in enumerate(spans):
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "size": []}
        dur = end - start
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        if outer:
            agg["s"] += dur
        if size is not None:
            agg["size"].append(size)
    return out

