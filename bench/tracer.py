"""Spans around calls into the public functions of each ``bicomplex`` module.

The tracer wraps, from outside the package, every public module-level
function and every public method or arithmetic operator of every public
class defined in a module, and rebinds each wrapper wherever the original
is bound: in its own module, in each module that imported it by name, in
the package namespace and in the benchmark's own workload module.  Calls
between modules therefore produce nested spans, just as calls from the
benchmark do.  Nothing under ``src/`` is modified.

A span records its name, start, end, parent and whether it raised (a
layer's ``failed`` count includes exceptions the library catches itself,
such as the probe behind ``has_cartesian_view``).  Spans
of one operation are kept in memory and folded into per-layer totals after
the operation ends, so memory stays bounded however long the run is.  A
layer's ``busy_s`` is self time: span time minus the time covered by child
spans.  A tracked function's ``busy_s`` is the part of its layer's self
time spent inside that function's spans, including same-layer callees and
excluding time in other layers.
"""
from __future__ import annotations

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = ("scalars", "element", "polys", "minpoly", "census", "gaussian",
          "numtheory", "rings", "zeta", "radix", "cli")

# Functions whose in-layer time is reported on its own.
TRACKED = ("polys.sturm_real_root_count", "polys.poly_gcd", "polys.cyclotomic",
           "census.numeric_roots", "census.locus_factors", "numtheory.factorint",
           "rings.factor", "zeta.coefficient_table")

# Methods wrapped besides public ones: the arithmetic and comparison operators.
OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__",
             "__pow__", "__divmod__", "__call__", "__eq__")


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


class Tracer:
    """Records spans and counters while ``active``; fold() after each operation."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.tracked_ids: set[int] = set()
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.failed = {layer: 0 for layer in LAYERS}
        self.fn_busy = {name: 0.0 for name in TRACKED}
        self.fn_calls: dict[str, int] = {}
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.max_input_bits = 0
        self.table_entries = 0
        self.radix_digits = 0
        self.encode_calls = 0
        self.encode_cycles = 0

    # -- installation ---------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap the public functions of every bicomplex module in place."""
        package = sys.modules["bicomplex"]
        modules = {layer: sys.modules[f"bicomplex.{layer}"] for layer in LAYERS
                   if f"bicomplex.{layer}" in sys.modules}
        namespaces = [vars(m) for m in modules.values()] + [vars(package)]
        namespaces += [vars(ns) for ns in extra_namespaces]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                ns[key] = wrapper
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            span_name = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, span_name, layer)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, span_name, layer))

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        if name in TRACKED:
            self.tracked_ids.add(name_id)
        observe = self._observer(name, layer)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name_id, start, perf_counter(), parent, True)
                stack.pop()
                if name == "radix.encode":
                    self.encode_calls += 1
                    self.encode_cycles += type(exc).__name__ == "NonTerminationError"
                raise
            spans[idx] = (name_id, start, perf_counter(), parent, False)
            stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return span

    # -- counters observed at the call boundary ---------------------------------

    def _observer(self, name: str, layer: str):
        if layer == "polys" and name.count(".") == 1:
            return self._observe_polys
        if layer == "numtheory":
            return self._observe_numtheory
        if name == "zeta.coefficient_table":
            return self._observe_table
        if name == "radix.encode":
            return self._observe_encode
        return None

    def _observe_polys(self, args, result):
        values = list(args)
        values.extend(result if isinstance(result, list) else [result])
        for value in values:
            coeffs = getattr(value, "coeffs", None)
            if isinstance(coeffs, tuple) and coeffs:
                self.max_degree = max(self.max_degree, len(coeffs) - 1)
                self.max_coeff_bits = max(self.max_coeff_bits, max(map(_coeff_bits, coeffs)))

    def _observe_numtheory(self, args, result):
        for value in args:
            if isinstance(value, int):
                self.max_input_bits = max(self.max_input_bits, abs(value).bit_length())

    def _observe_table(self, args, result):
        self.table_entries += len(result.values)

    def _observe_encode(self, args, result):
        self.encode_calls += 1
        self.radix_digits += len(result.digits)

    # -- folding ------------------------------------------------------------------

    def fold(self):
        """Add the finished spans to the per-layer totals and forget them."""
        spans, layer_of, tracked_ids = self.spans, self.layer_of, self.tracked_ids
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        inside: list[tuple] = [()] * len(spans)
        for i, (name_id, start, end, parent, failed) in enumerate(spans):
            layer = layer_of[name_id]
            held = inside[parent] if parent >= 0 and layer_of[spans[parent][0]] == layer else ()
            if name_id in tracked_ids and name_id not in held:
                held = held + (name_id,)
            inside[i] = held
            self_time = end - start - child[i]
            self.busy[layer] += self_time
            self.calls[layer] += 1
            if failed:
                self.failed[layer] += 1
            name = self.names[name_id]
            self.fn_calls[name] = self.fn_calls.get(name, 0) + 1
            for tracked in held:
                self.fn_busy[self.names[tracked]] += self_time
        spans.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals as ``{metric name: (value, unit)}``."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.failed"] = (self.failed[layer], "count")
        for name in TRACKED:
            out[f"{name}.busy_s"] = (self.fn_busy[name], "s")
        out["polys.is_squarefree.calls"] = (self.fn_calls.get("polys.is_squarefree", 0), "count")
        out["polys.max_degree"] = (self.max_degree, "degree")
        out["polys.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        out["numtheory.max_input_bits"] = (self.max_input_bits, "bits")
        out["zeta.table_entries"] = (self.table_entries, "count")
        out["radix.digits"] = (self.radix_digits, "count")
        out["radix.cycle_frac"] = (self.encode_cycles / self.encode_calls
                                   if self.encode_calls else 0.0, "ratio")
        return out
