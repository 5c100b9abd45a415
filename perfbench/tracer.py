"""Span tracing of the ``hodge_series`` layers, from outside the package.

``Tracer.install`` wraps every public function and public method defined in
the layer modules (``ratfun``, ``rootdata``, ``formulas``, ``recursion``,
``cli``), plus the arithmetic operators of their classes, and rebinds each
wrapped function in every ``hodge_series`` namespace that holds it, so a
call through ``formulas.to_polynomial`` is traced like one through
``ratfun.to_polynomial``.  Aliases such as ``BivarPoly.__rmul__ =
__mul__`` share one wrapper and one span name (``ratfun.BivarPoly.mul``).

Each span records its operation id, its own id, its parent's id, its name
and its start and end (``perf_counter_ns``).  Spans stay in memory and are
written out once, by ``write_spans``.  Self time is a span's duration minus
the durations of its direct children; a layer's self time is the sum over
its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("ratfun", "rootdata", "formulas", "recursion", "cli")

# Operators traced besides public names; time in any other private helper
# counts as self time of the public span that called it.
OPERATORS = frozenset((
    "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__pow__", "__truediv__", "__str__"))

# (module, name) bindings that must be traced when they exist.
REQUIRED_BINDINGS = (
    ("ratfun", "to_polynomial"), ("formulas", "to_polynomial"),
    ("formulas", "a_series_term"), ("recursion", "a_series_term"),
    ("formulas", "assemble_series"), ("recursion", "assemble_series"),
    ("formulas", "closed_series_for"), ("recursion", "closed_series_for"),
)

# Spans whose presence as a direct child marks a cache miss of the parent.
MISS_CHILDREN = frozenset(("formulas.assemble_series", "formulas.closed_ratfun"))

# name of a traced function -> the per-function metrics reported for it
FUNCTION_METRICS = {
    "ratfun.BivarPoly.mul": ("calls", "self_s", "term_pairs"),
    "ratfun.BivarPoly.mul_trunc": ("calls", "self_s", "term_pairs"),
    "ratfun.RatFun2.expand": ("calls", "self_s"),
    "ratfun.RatFun2.rat_eq": ("calls", "self_s"),
    "ratfun.BivarPoly.divide_exact": ("calls", "self_s"),
    "ratfun.to_polynomial": ("calls", "self_s"),
    "formulas.assemble_exact": ("calls", "self_s"),
    "formulas.hp_moduli_fixed_det": ("calls", "self_s"),
    "formulas.assemble_series": ("calls", "self_s"),
    "formulas.closed_series_for": ("calls", "hit_ratio"),
    "formulas.hp_semistable_closed": ("calls", "hit_ratio"),
    "recursion.enumerate_hn_types": ("calls", "self_s", "strata"),
    "recursion.verify_recursion": ("calls",),
    "recursion.recursion_rhs": ("self_s",),
    "rootdata.build_root_system": ("calls", "self_s"),
    "rootdata.RootDatum.project_to_center": ("calls", "self_s"),
    "rootdata.RootDatum.two_rho_pairings": ("self_s",),
    "rootdata.RootDatum.sub_datum": ("self_s",),
}

UNITS = {"calls": "count", "self_s": "s", "term_pairs": "count",
         "strata": "count", "hit_ratio": "ratio", "share": "ratio"}


def _span_name(layer, qualname):
    return layer + "." + ".".join(part.strip("_") or part
                                  for part in qualname.split("."))


def _is_function(obj):
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def _pairs(args):
    a, b = args[0], args[1]
    n = len(a.terms)
    return n * len(b.terms) if hasattr(b, "terms") else n


class Tracer:
    """Collects spans of the wrapped layer functions of one process."""

    def __init__(self):
        self.spans = []          # [op, id, parent, name, start_ns, end_ns]
        self.stack = []
        self.op = -1
        self.names = set()       # every traced span name
        self.counts = defaultdict(int)
        self.orders = []         # truncation orders of enclosing recursion calls

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        pre = self._pre_hooks.get(name)
        post = self._post_hooks.get(name)
        on_result = self._count_strata if name == "recursion.enumerate_hn_types" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args, kwargs)
            sid = len(spans)
            span = [self.op, sid, stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
                if post is not None:
                    post(self, args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.perfbench_span = name
        self.names.add(name)
        return traced

    def _push_order(self, args, kwargs):
        self.orders.append(kwargs.get("order", args[3] if len(args) > 3 else None))

    def _pop_order(self, args, kwargs):
        self.orders.pop()

    def _count_mul(self, args, kwargs):
        self.counts["ratfun.BivarPoly.mul.term_pairs"] += _pairs(args)

    def _count_mul_trunc(self, args, kwargs):
        self.counts["ratfun.BivarPoly.mul_trunc.term_pairs"] += _pairs(args)

    def _count_strata(self, args, kwargs, result):
        self.counts["recursion.enumerate_hn_types.strata"] += len(result)
        order = self.orders[-1] if self.orders else None
        if order is None:
            order = kwargs.get("max_codim", args[3] if len(args) > 3 else None)
        codims = [getattr(t, "codim", None) for t in result]
        if order is None or None in codims:
            self.counts["recursion.strata_useful.unknown"] += 1
        else:
            self.counts["recursion.strata_useful"] += sum(2 * c <= order for c in codims)

    _pre_hooks = {
        "ratfun.BivarPoly.mul": _count_mul,
        "ratfun.BivarPoly.mul_trunc": _count_mul_trunc,
        "recursion.verify_recursion": _push_order,
        "recursion.recursion_rhs": _push_order,
    }
    _post_hooks = {
        "recursion.verify_recursion": _pop_order,
        "recursion.recursion_rhs": _pop_order,
    }

    def begin_op(self, op):
        """Open the root span of operation ``op``; returns the span."""
        self.op = op
        span = [op, len(self.spans), -1, "op", perf_counter_ns(), 0]
        self.spans.append(span)
        self.stack.append(span[1])
        return span

    def end_op(self, span):
        span[5] = perf_counter_ns()
        self.stack.pop()
        self.op = -1

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layer functions and rebind them everywhere."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("hodge_series." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _is_function(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(_span_name(layer, obj.__qualname__), obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "hodge_series" and not modname.startswith("hodge_series."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
        for layer, attr in REQUIRED_BINDINGS:
            obj = getattr(importlib.import_module("hodge_series." + layer), attr, None)
            if obj is not None and not hasattr(obj, "perfbench_span"):
                raise RuntimeError("binding %s.%s escaped tracing" % (layer, attr))

    def _install_class(self, layer, cls):
        done = {}
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            static = isinstance(obj, staticmethod)
            fn = obj.__func__ if static else obj
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                done[id(fn)] = self._wrap(_span_name(layer, fn.__qualname__), fn)
            setattr(cls, attr, staticmethod(done[id(fn)]) if static else done[id(fn)])

    # -- results ------------------------------------------------------------

    def write_spans(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, fields=["op", "id", "parent", "name",
                                                     "start_ns", "end_ns"])) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self):
        """Per-layer metrics of everything recorded, and the missing names."""
        dur = [s[5] - s[4] for s in self.spans]
        child = [0] * len(self.spans)
        child_names = defaultdict(set)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += dur[s[1]]
                child_names[s[2]].add(s[3])
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        hits = defaultdict(int)
        wall_ns = 0
        for s in self.spans:
            own = dur[s[1]] - child[s[1]]
            if s[3] == "op":
                wall_ns += dur[s[1]]
                continue
            calls[s[3]] += 1
            self_ns[s[3]] += own
            if not (child_names.get(s[1], frozenset()) & MISS_CHILDREN):
                hits[s[3]] += 1

        out, missing = {}, []
        for name, kinds in FUNCTION_METRICS.items():
            if name not in self.names:
                missing.append(name)
                continue
            for kind in kinds:
                if kind == "calls":
                    value = calls[name]
                elif kind == "self_s":
                    value = self_ns[name] / 1e9
                elif kind == "hit_ratio":
                    value = hits[name] / calls[name] if calls[name] else 0.0
                else:
                    value = self.counts[name + "." + kind]
                out[name + "." + kind] = (value, UNITS[kind])
        for layer in LAYERS:
            own = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
            out[layer + ".self_s"] = (own / 1e9, "s")
            out[layer + ".share"] = (own / wall_ns if wall_ns else 0.0, "ratio")

        verifies = calls["recursion.verify_recursion"]
        if {"recursion.enumerate_hn_types", "recursion.verify_recursion"} <= self.names:
            out["recursion.enumerate_per_verify"] = (
                calls["recursion.enumerate_hn_types"] / verifies if verifies else 0.0,
                "ratio")
        else:
            missing.append("recursion.enumerate_per_verify")
        if "recursion.enumerate_hn_types" in self.names \
                and not self.counts["recursion.strata_useful.unknown"]:
            strata = self.counts["recursion.enumerate_hn_types.strata"]
            out["recursion.strata_useful_ratio"] = (
                self.counts["recursion.strata_useful"] / strata if strata else 0.0,
                "ratio")
        else:
            missing.append("recursion.strata_useful_ratio")
        return out, missing
