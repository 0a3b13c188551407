"""Outside-in tracer for qbailey.

The tracer wraps the public callables of each qbailey module from the
outside and changes nothing under src/.  Each wrapper records one span
(name, start, end, parent) in flat in-memory arrays; the spans are
written out and reduced to per-layer figures only after the traced
pass has ended.  A layer's self time is the summed duration of its
spans minus the time covered by their child spans.

Python binds a function under more than one name: the class aliases
`__rmul__ = __mul__` and `__radd__ = __add__`, and the copies that
`from .qfunctions import ...` leaves in other modules.  A wrapper on one
name misses calls through the others without any error, so `install`
rebinds every name that refers to a wrapped function and then fails if
any original is still reachable.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Layers in the order they are reported; a span's layer is the part of
# its name before the first dot.
LAYERS = ("series", "macdonald", "qfunctions", "bailey", "hypergeometric", "report", "cli")

# Ring-kernel methods and the span name each is recorded under.
SERIES_METHODS = {
    "__mul__": "series.mul", "__rmul__": "series.mul",
    "__add__": "series.add", "__radd__": "series.add",
    "invert": "series.invert",
    "shift": "series.shift", "scale": "series.scale", "flip_z": "series.flip_z",
    "specialize": "series.specialize", "__neg__": "series.neg",
    "__sub__": "series.sub", "__rsub__": "series.rsub", "__eq__": "series.eq",
    "__pow__": "series.pow",
}

MACDONALD_FNS = ("bosonic_index", "fermionic_index", "fermionic2_index",
                 "original_index", "generalized_sides", "multi_rogers_ramanujan")
QFUNCTIONS_FNS = ("poch_finite", "poch_infinite", "inv_poch_infinite", "combined_poch",
                  "qbinomial", "inv_qq", "inv_tq", "poch_ratio", "hermite")
BAILEY_VERIFY_FNS = ("verify_conjugate_pair", "verify_wp_conjugate",
                     "wp_collapse_check", "bailey_transform_check")
HG_VALUE_FNS = ("poch_value", "inv_poch_value")

# Every per-layer metric and its unit, in report order.  `reduce` computes
# all of them except trace.overhead, which needs the untraced runs too.
METRIC_UNITS: dict[str, str] = {}


def _metric(name: str, unit: str) -> None:
    METRIC_UNITS[name] = unit


_metric("trace.overhead", "ratio")
_metric("trace.cold_s", "s")
_metric("trace.spans", "count")
for _layer in LAYERS:
    _metric(f"{_layer}.self_s", "s")
    _metric(f"{_layer}.share", "ratio")
for _op in ("mul", "add", "invert"):
    _metric(f"series.{_op}.calls", "count")
    _metric(f"series.{_op}.self_s", "s")
_metric("series.mul.term_pairs", "count")
_metric("series.mul.out_terms", "count")
_metric("series.mul.yield", "ratio")
_metric("series.mul.ns_per_pair", "ns")
_metric("series.other.calls", "count")
_metric("series.other.self_s", "s")
for _fn in MACDONALD_FNS:
    for _kind, _unit in (("calls", "count"), ("self_s", "s"), ("incl_s", "s")):
        _metric(f"macdonald.{_fn}.{_kind}", _unit)
_metric("qfunctions.compute_frac", "ratio")
for _fn in QFUNCTIONS_FNS:
    _metric(f"qfunctions.{_fn}.calls", "count")
    _metric(f"qfunctions.{_fn}.incl_s", "s")
_metric("bailey.entry.calls", "count")
_metric("bailey.entry.compute_frac", "ratio")
for _fn in BAILEY_VERIFY_FNS:
    _metric(f"bailey.{_fn}.incl_s", "s")
for _fn in HG_VALUE_FNS:
    _metric(f"hypergeometric.{_fn}.calls", "count")
    _metric(f"hypergeometric.{_fn}.self_s", "s")
_metric("hypergeometric.points.drawn", "count")
_metric("hypergeometric.point_yield", "ratio")
_metric("report.first_mismatch.calls", "count")
_metric("report.first_mismatch.self_s", "s")

# Counts that must repeat exactly between two traced runs of the same
# inputs; later changes may name them in advance as count-based claims.
EXACT_COUNTS = ("series.mul.calls", "series.mul.term_pairs", "series.mul.out_terms",
                "hypergeometric.poch_value.calls", "macdonald.original_index.calls")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.term_pairs = 0
        self.out_terms = 0
        self._drawn: dict[int, object] = {}    # id -> point, kept alive so ids stay unique
        self._rejected: set[int] = set()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """A wrapper that records one span per call of fn."""
        from qbailey.errors import PoleError

        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        drawn, rejected = self._drawn, self._rejected

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except PoleError:
                # a drawn point that meets a pole is rejected by the caller
                rejected.update(id(a) for a in args if id(a) in drawn)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def wrap_mul(self, fn):
        """The span wrapper for the ring product, which also counts term
        pairs visited (|a|*|b|) and output terms."""
        def counted(a, b):
            out = fn(a, b)
            if out is not NotImplemented:
                right = b.term_count() if hasattr(b, "term_count") else 1
                self.term_pairs += a.term_count() * right
                self.out_terms += out.term_count()
            return out

        return self.wrap(functools.wraps(fn)(counted), "series.mul")

    def wrap_draw(self, fn):
        """The span wrapper for draw_point, which also keeps every drawn point."""
        def recorded(*args, **kwargs):
            point = fn(*args, **kwargs)
            self._drawn[id(point)] = point
            return point

        return self.wrap(functools.wraps(fn)(recorded), "hypergeometric.draw_point")

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind every name
        that refers to them, in all qbailey modules."""
        from qbailey import series

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qbailey" or name.startswith("qbailey.")]
        layer_of = {f"qbailey.{layer}": layer for layer in LAYERS}
        replace: dict[int, tuple[object, object]] = {}    # id(original) -> (original, wrapper)

        def add(orig, wrapper):
            replace.setdefault(id(orig), (orig, wrapper))

        for name, span in SERIES_METHODS.items():
            orig = series.TruncatedSeries.__dict__[name]
            if id(orig) not in replace:    # __rmul__ and __radd__ share one wrapper
                add(orig, self.wrap_mul(orig) if span == "series.mul" else self.wrap(orig, span))

        for module in modules:
            layer = layer_of.get(module.__name__)
            if layer is None or layer == "series":
                continue
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, add)
                elif layer == "hypergeometric" and name == "draw_point":
                    add(obj, self.wrap_draw(obj))
                elif callable(obj):
                    add(obj, self.wrap(obj, f"{layer}.{name}"))

        for module in modules:
            self._rebind(vars(module), lambda k, v, m=module: setattr(m, k, v), replace)
            for obj in list(vars(module).values()):
                if isinstance(obj, type) and obj.__module__.startswith("qbailey"):
                    self._rebind(obj.__dict__, lambda k, v, c=obj: setattr(c, k, v), replace)
        self._check_no_original(modules, replace)

    def _wrap_class(self, cls, layer: str, add) -> None:
        entry = layer == "bailey" and cls.__name__ == "PairFamily"
        for name, attr in list(cls.__dict__.items()):
            if entry and name in ("__getitem__", "core"):
                add(attr, self.wrap(attr, "bailey.entry"))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, (classmethod, staticmethod)):
                add(attr, type(attr)(self.wrap(attr.__func__, f"{layer}.{cls.__name__}.{name}")))
            elif callable(attr) and not isinstance(attr, type):
                add(attr, self.wrap(attr, f"{layer}.{cls.__name__}.{name}"))

    @staticmethod
    def _rebind(namespace, setter, replace) -> None:
        for key, value in list(namespace.items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setter(key, hit[1])

    @staticmethod
    def _check_no_original(modules, replace) -> None:
        def is_original(value) -> bool:
            hit = replace.get(id(value))
            return hit is not None and hit[0] is value

        def holds(value) -> bool:
            if isinstance(value, (dict, list, tuple, set, frozenset)):
                items = value.values() if isinstance(value, dict) else value
                return any(is_original(v) for v in items)
            return is_original(value)

        missed = []
        for module in modules:
            for key, value in vars(module).items():
                if holds(value):
                    missed.append(f"{module.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("qbailey"):
                    missed += [f"{module.__name__}.{key}.{k}"
                               for k, v in value.__dict__.items() if holds(v)]
                defaults = getattr(value, "__defaults__", None) or ()
                if any(holds(d) for d in defaults):
                    missed.append(f"{module.__name__}.{key} (default argument)")
        if missed:
            raise RuntimeError("tracer left unwrapped bindings: " + ", ".join(sorted(set(missed))))

    # -- output ------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def reduce(self, traced_cold_s: float) -> dict[str, float]:
        """Per-layer metrics (except trace.overhead) from the recorded spans."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n_names = len(self.names)
        count = len(names)
        covered = [0] * count
        kernel = bytearray(count)
        is_series = [n.startswith("series.") for n in self.names]
        for i in range(count - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
                if kernel[i] or is_series[names[i]]:
                    kernel[p] = 1

        calls = [0] * n_names
        self_ns = [0] * n_names
        incl_ns = [0] * n_names
        computed = [0] * n_names
        open_spans: list[int] = []
        open_count = [0] * n_names
        for i in range(count):
            nid = names[i]
            p = parents[i]
            while open_spans and open_spans[-1] != p:
                open_count[names[open_spans.pop()]] -= 1
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_ns[nid] += dur - covered[i]
            computed[nid] += kernel[i]
            if open_count[nid] == 0:        # outermost span of this name: no double count
                incl_ns[nid] += dur
            open_spans.append(i)
            open_count[nid] += 1

        by_name = {name: i for i, name in enumerate(self.names)}

        def total(values, *span_names) -> int:
            return sum(values[by_name[s]] for s in span_names if s in by_name)

        def in_layer(prefix: str) -> list[str]:
            return [n for n in self.names if n.startswith(prefix)]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {"trace.cold_s": traced_cold_s, "trace.spans": count}
        for layer in LAYERS:
            layer_self = total(self_ns, *in_layer(layer + ".")) / 1e9
            m[f"{layer}.self_s"] = layer_self
            m[f"{layer}.share"] = ratio(layer_self, traced_cold_s)
        for op in ("mul", "add", "invert"):
            m[f"series.{op}.calls"] = total(calls, f"series.{op}")
            m[f"series.{op}.self_s"] = total(self_ns, f"series.{op}") / 1e9
        others = [n for n in in_layer("series.")
                  if n not in ("series.mul", "series.add", "series.invert")]
        m["series.other.calls"] = total(calls, *others)
        m["series.other.self_s"] = total(self_ns, *others) / 1e9
        m["series.mul.term_pairs"] = self.term_pairs
        m["series.mul.out_terms"] = self.out_terms
        m["series.mul.yield"] = ratio(self.out_terms, self.term_pairs)
        m["series.mul.ns_per_pair"] = ratio(total(self_ns, "series.mul"), self.term_pairs)
        for fn in MACDONALD_FNS:
            span = f"macdonald.{fn}"
            m[f"{span}.calls"] = total(calls, span)
            m[f"{span}.self_s"] = total(self_ns, span) / 1e9
            m[f"{span}.incl_s"] = total(incl_ns, span) / 1e9
        q_spans = in_layer("qfunctions.")
        m["qfunctions.compute_frac"] = ratio(total(computed, *q_spans), total(calls, *q_spans))
        for fn in QFUNCTIONS_FNS:
            span = f"qfunctions.{fn}"
            m[f"{span}.calls"] = total(calls, span)
            m[f"{span}.incl_s"] = total(incl_ns, span) / 1e9
        m["bailey.entry.calls"] = total(calls, "bailey.entry")
        m["bailey.entry.compute_frac"] = ratio(total(computed, "bailey.entry"),
                                               total(calls, "bailey.entry"))
        for fn in BAILEY_VERIFY_FNS:
            m[f"bailey.{fn}.incl_s"] = total(incl_ns, f"bailey.{fn}") / 1e9
        for fn in HG_VALUE_FNS:
            span = f"hypergeometric.{fn}"
            m[f"{span}.calls"] = total(calls, span)
            m[f"{span}.self_s"] = total(self_ns, span) / 1e9
        drawn = len(self._drawn)
        m["hypergeometric.points.drawn"] = drawn
        m["hypergeometric.point_yield"] = ratio(drawn - len(self._rejected), drawn)
        m["report.first_mismatch.calls"] = total(calls, "report.first_mismatch")
        m["report.first_mismatch.self_s"] = total(self_ns, "report.first_mismatch") / 1e9
        return m
