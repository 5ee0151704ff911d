"""Span tracing of jetforge from outside the library.

``Tracer.install`` replaces jetforge functions and methods with wrappers
that record spans; ``Tracer.uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.  Each span records its name, start, end, parent
span and op id in flat arrays kept in memory; ``write`` stores them at the
end of the run.  A span's self time is its duration minus the time its
child spans cover, accumulated as spans close.

What is wrapped:

* In the orchestration modules (jets, hsmodules, p1, checks, dsl, cli)
  every public module-level function and every public method of the
  classes they define.
* In the core modules (poly, series, localized, scalars) the arithmetic,
  evaluation and rendering entry points listed in ``CORE_SPANS``.  Small
  helpers called per term (``Monomial.__init__``, ``JetVar.sort_key``,
  ``Poly.__init__``, ...) are not wrapped: their time stays in the calling
  span's self time.  ``fractions.Fraction`` is stdlib and is not wrapped
  either, so rational arithmetic shows up as self time of the poly,
  series and localized spans that perform it.
* ``Monomial.mul`` and the field ``coerce`` methods get call counters
  only, because a timed span around them would cost more than they do.
* ``Fp`` arithmetic is timed as leaf spans, but aggregated without being
  logged one by one: on F_p inputs it is the most frequent call.
"""

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict
from types import FunctionType

ORCHESTRATION = ("jets", "hsmodules", "p1", "checks", "dsl", "cli")

CORE_SPANS = {
    "poly": {"Poly": ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                      "__neg__", "__pow__", "eval", "render", "partial", "substitute",
                      "rename", "unit_inverse")},
    "series": {"TruncSeries": ("__mul__", "__add__", "__sub__", "__neg__", "__pow__"),
               "BiSeries": ("__mul__", "__add__", "__pow__"),
               None: ("series_invert",)},
    "localized": {"LocalPoly": ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                                "__rmul__", "unit_inverse", "eval", "render")},
}
COUNTERS = {"poly": {"Monomial": ("mul",)},
            "scalars": {"Rationals": ("coerce",), "PrimeField": ("coerce",)}}
LEAF_SPANS = {"scalars": {"Fp": ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                                 "__neg__", "inverse")}}

# Aliases share one span name, so __rmul__ counts as __mul__.
ALIASES = {"__rmul__": "__mul__", "__radd__": "__add__"}


def _public_methods(cls):
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, (FunctionType, classmethod))]


class Tracer:
    def __init__(self, jetforge_package):
        self.pkg = jetforge_package
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.term_products = 0
        self.terms_out = 0
        self.peak_terms = 0
        self.op = -1
        self._patches = []
        self._poly_cls = None

    # -- wrappers ----------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        starts, ends = self.span_start, self.span_end
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        poly_cls = self._poly_cls
        is_mul = name == "poly.Poly.__mul__"

        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - start
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if type(result) is poly_cls:
                size = len(result.terms)
                if size > self.peak_terms:
                    self.peak_terms = size
                if is_mul and type(args[1]) is poly_cls:
                    self.term_products += len(args[0].terms) * len(args[1].terms)
                    self.terms_out += size
            return result

        return traced

    def _leaf(self, fn, name):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                calls[nid] += 1
                self_s[nid] += dur
                total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur

        return timed

    def _counter(self, fn, name):
        nid = self._name_id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------

    def _patch_method(self, cls, attr, make, name):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__, name))
        else:
            new = make(raw, name)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_table(self, modules, table, make):
        for layer, classes in table.items():
            mod = modules[layer]
            for cls_name, attrs in classes.items():
                if cls_name is None:
                    for attr in attrs:
                        self._patch_function(modules, mod, attr, make, "%s.%s" % (layer, attr))
                    continue
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    name = "%s.%s.%s" % (layer, cls_name, ALIASES.get(attr, attr))
                    self._patch_method(cls, attr, make, name)

    def _patch_function(self, modules, mod, attr, make, name):
        original = getattr(mod, attr)
        wrapper = make(original, name)
        for m in list(modules.values()) + [self.pkg]:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapper)

    def install(self):
        modules = {layer: importlib.import_module("%s.%s" % (self.pkg.__name__, layer))
                   for layer in ORCHESTRATION + ("poly", "series", "localized", "scalars")}
        self._poly_cls = modules["poly"].Poly
        self._patch_table(modules, CORE_SPANS, self._span)
        self._patch_table(modules, COUNTERS, self._counter)
        self._patch_table(modules, LEAF_SPANS, self._leaf)
        for layer in ORCHESTRATION:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    for meth in _public_methods(value):
                        self._patch_method(value, meth, self._span,
                                           "%s.%s.%s" % (layer, attr, meth))
                elif isinstance(value, FunctionType):
                    self._patch_function(modules, mod, attr, self._span, "%s.%s" % (layer, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------

    def by_name(self, table):
        """Re-key a per-name-id table by span name."""
        return {self.names[nid]: value for nid, value in table.items()}

    def write(self, path):
        """Spans as gzip'd text: a JSON header, then one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start", "end", "parent", "op"]}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                fh.write("%d %.9f %.9f %d %d\n" % row)
