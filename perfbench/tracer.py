"""Per-layer spans and counts for qortho, installed from outside the package.

``Tracer.install`` replaces every public function of the six layer modules,
and the public methods and arithmetic operators of their classes, with a
wrapper that records a span.  The package source is not touched.  Because
``from .rmatrix import build_R`` copies a reference into the importing
module, and ``Scalar.__radd__ = __add__`` copies one into the class, each
wrapper is written back wherever the original object is referenced: every
``qortho`` module namespace and every class attribute.  ``install`` then
checks that no reference to an unwrapped original is left.

``GaussRat`` is left unwrapped.  Its operations are the coefficient
arithmetic inside every Scalar operation, so their time is counted in the
span that calls them.

Self time of a span is its duration minus the durations of its direct
child spans; a layer's self time is the sum over its spans, so the six
layer self times add up to the traced wall time of ``cli.main``.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scalars", "linalg", "rmatrix", "realforms", "qplane", "cli")

_OPERATORS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__eq__",
))
_UNWRAPPED_CLASSES = frozenset(("scalars.GaussRat",))
_CONSTRUCTORS = frozenset(("scalars.Scalar",))

# Groups of spans whose inclusive time is a metric.  A group's time is added
# only when its outermost span ends, so recursion and nesting inside the
# group are not counted twice.
GROUPS = {
    "scalars.mul": ("scalars.Scalar.__mul__",),
    "linalg.elim": ("linalg.inverse", "linalg.rank",
                    "linalg.antilinear_fixed_basis", "linalg.signature"),
    "rmatrix.build": ("rmatrix.build_R", "rmatrix.build_metric",
                      "rmatrix.build_projectors"),
    "rmatrix.ybe": ("rmatrix.check_ybe",),
    "rmatrix.projectors": ("rmatrix.build_projectors",),
    "realforms.classify": ("realforms.classify",),
    "realforms.sostar": ("realforms.check_sostar",),
    "qplane.relations": ("qplane.plane_relations",),
    "qplane.confluence": ("qplane.check_confluence",),
    "qplane.star_consistency": ("qplane.check_star_consistency",),
}


def _nonzero_terms(poly):
    return sum(1 for v in poly.values() if not v.is_zero())


class Tracer:
    """Spans and counts of one traced replay.  Create, install, run, read."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.products = 0
        self.product_s = 0.0
        self.product_nnz_out = 0
        self.gcd_constructs = 0
        self.projectors_in_relations_s = 0.0
        self._stack = []
        self._group_depth = Counter()
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        groups = tuple(g for g, names in GROUPS.items() if name in names)
        after = {"linalg.SqMat.__mul__": self._after_product,
                 "scalars.Scalar.__init__": self._after_construct}.get(name)
        stack, depth = self._stack, self._group_depth
        calls, self_s, group_s = self.calls, self.self_s, self.group_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[layer] += dt - frame[0]
                calls[name] += 1
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += dt
                        if (g == "rmatrix.projectors"
                                and depth["qplane.relations"]):
                            self.projectors_in_relations_s += dt
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return span

    def _after_product(self, args, kwargs, result, dt):
        if len(args) == 2 and type(args[1]) is type(args[0]):
            self.products += 1
            self.product_s += dt
            self.product_nnz_out += len(result.entries)

    def _after_construct(self, args, kwargs, result, dt):
        # Scalar(n0, n1, d) runs polynomial gcds exactly when the numerator
        # is nonzero and d has more than one nonzero term.
        n0, n1, d = (args[1:] + (None, None, None))[:3]
        n0 = kwargs.get("n0", n0) or {}
        n1 = kwargs.get("n1", n1) or {}
        d = kwargs.get("d", d)
        if d is not None and _nonzero_terms(d) > 1 and (
                _nonzero_terms(n0) or _nonzero_terms(n1)):
            self.gcd_constructs += 1

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer modules in place; ``uninstall`` puts them back."""
        modules = {layer: importlib.import_module(f"qortho.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._remember(wrapped, obj, f"{layer}.{name}", layer)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                        and f"{layer}.{name}" not in _UNWRAPPED_CLASSES):
                    self._wrap_class(wrapped, obj, f"{layer}.{name}", layer)
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == "qortho" or n.startswith("qortho.")]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, key, value))
                    ns[key] = hit[1]
        for mod in modules.values():
            for cls in _layer_classes(mod):
                for key, value in list(vars(cls).items()):
                    raw = value.__func__ if isinstance(
                        value, (staticmethod, classmethod)) else value
                    hit = wrapped.get(id(raw))
                    if hit is not None and hit[0] is raw:
                        self._patches.append((cls, key, value))
                        setattr(cls, key, hit[1] if raw is value
                                else type(value)(hit[1]))
        originals = {pair[0] for pair in wrapped.values()}
        leftover = _references_to(originals, namespaces, modules.values())
        if leftover:
            self.uninstall()
            raise RuntimeError("tracer bypassed by unwrapped references: "
                               + ", ".join(leftover))

    def uninstall(self):
        """Restore every reference ``install`` replaced."""
        while self._patches:
            where, key, value = self._patches.pop()
            if isinstance(where, dict):
                where[key] = value
            else:
                setattr(where, key, value)

    def _wrap_class(self, wrapped, cls, qual, layer):
        for key, value in vars(cls).items():
            if key.startswith("_") and key not in _OPERATORS:
                continue
            if key == "__init__" and qual not in _CONSTRUCTORS:
                continue
            raw = value.__func__ if isinstance(
                value, (staticmethod, classmethod)) else value
            if inspect.isfunction(raw):
                # Aliases such as __radd__ = __add__ share one object and so
                # one span name, taken from the defining method.
                span_name = f"{layer}.{raw.__qualname__}"
                self._remember(wrapped, raw, span_name, layer)

    def _remember(self, wrapped, fn, name, layer):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = (fn, self._wrap(fn, name, layer))


def _layer_classes(mod):
    return [obj for obj in vars(mod).values()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__]


def _references_to(originals, namespaces, modules):
    """Names through which an original can still be reached unwrapped."""
    found = []

    def scan(where, value, depth=0):
        if depth > 2:
            return
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if inspect.isfunction(value):
            if value in originals:
                found.append(where)
            # A wrapper's defaults are those of the function it wraps.
            inner = getattr(value, "__wrapped__", value)
            for d in (inner.__defaults__ or ()):
                scan(f"{where} default", d, depth + 1)
        elif isinstance(value, (tuple, list, frozenset, set)):
            for v in value:
                scan(f"{where} item", v, depth + 1)
        elif isinstance(value, dict):
            for k, v in value.items():
                scan(f"{where}[{k!r}]", v, depth + 1)

    for ns in namespaces:
        for key, value in ns.items():
            if key.startswith("__"):
                continue
            scan(f"{ns['__name__']}.{key}", value)
    for mod in modules:
        for cls in _layer_classes(mod):
            for key, value in vars(cls).items():
                scan(f"{cls.__module__}.{cls.__qualname__}.{key}", value)
    return found
