"""Outside-in spans around the public functions of each polyauto layer.

The tracer wraps functions and methods from the benchmark's side: every
module namespace of the package that holds the original object gets the
wrapper, so ``from .degeneration import closure_witness`` in ``cli`` and
re-exports in ``polyauto/__init__`` are traced too.  Aliases such as
``Poly.__rmul__`` (the same function as ``__mul__``) get their own wrapper.

A span is (name, start, end, parent span).  Self time is a span's duration
minus the durations of its child spans; calls are single-threaded, so
children never overlap.  Spans stay in memory and are written out once,
after the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (module, attribute path, span name).  Every entry is a public function or
# method of the layer named by the first part of the span name.
TARGETS = [
    ("polyauto.poly", "Poly.__mul__", "poly.mul"),
    ("polyauto.poly", "Poly.__rmul__", "poly.mul"),
    ("polyauto.poly", "Poly.__add__", "poly.add"),
    ("polyauto.poly", "Poly.__radd__", "poly.add"),
    ("polyauto.poly", "Poly.substitute", "poly.substitute"),
    ("polyauto.poly", "Poly.__pow__", "poly.pow"),
    ("polyauto.poly", "Poly.with_t_set", "poly.with_t_set"),
    ("polyauto.endo", "Endo.compose", "endo.compose"),
    ("polyauto.endo", "Endo.jacobian_det", "endo.jacobian_det"),
    ("polyauto.endo", "poly_det", "endo.poly_det"),
    ("polyauto.groups", "Word.to_endo", "groups.word_to_endo"),
    ("polyauto.groups", "Word.inverse", "groups.inverse"),
    ("polyauto.groups", "AffineMap.inverse", "groups.inverse"),
    ("polyauto.groups", "TriangularMap.inverse", "groups.inverse"),
    ("polyauto.degeneration", "normalize", "degeneration.normalize"),
    ("polyauto.degeneration", "degeneration_data", "degeneration.degeneration_data"),
    ("polyauto.degeneration", "torus_conjugate", "degeneration.torus_conjugate"),
    ("polyauto.degeneration", "degenerate", "degeneration.degenerate"),
    ("polyauto.degeneration", "verify_limit", "degeneration.verify_limit"),
    ("polyauto.degeneration", "closure_witness", "degeneration.closure_witness"),
    ("polyauto.degeneration", "ParamEndo.specialize", "degeneration.specialize"),
    ("polyauto.planefactor", "factor_plane", "planefactor.factor_plane"),
    ("polyauto.parsing", "parse_endo", "parsing.parse_endo"),
    ("polyauto.cli", "main", "cli.main"),
]

STAGES = [
    "normalize",
    "degeneration_data",
    "torus_conjugate",
    "degenerate",
    "verify_limit",
    "closure_witness",
    "specialize",
]


class Tracer:
    """Span recorder plus the per-layer counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.keep_spans = False
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.stack: list[list] = []  # [name id, start, child seconds, span id]
        self.mul_products = 0
        self.mul_out_max = 0
        self.det_products = 0
        self.det_depth = 0
        self.reduction_steps = 0
        self.parse_chars = 0
        self.parse_seconds = 0.0
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, nid: int) -> list:
        span = -1
        if self.keep_spans:
            span = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [nid, 0.0, 0.0, span]
        self.stack.append(frame)
        frame[1] = start = perf_counter()
        if span >= 0:
            self.span_start[span] = start
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        nid, start, child, span = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span >= 0:
            self.span_end[span] = end

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        if name == "poly.mul":

            def wrapper(a, b):
                if not tracer.active:
                    return fn(a, b)
                if type(b) is type(a):
                    products = len(a) * len(b)
                elif isinstance(b, (int, Fraction)):
                    products = len(a) if b else 0
                else:
                    products = 0
                tracer.mul_products += products
                if tracer.det_depth:
                    tracer.det_products += products
                frame = tracer._enter(nid)
                try:
                    out = fn(a, b)
                finally:
                    tracer._exit(frame)
                if out is not NotImplemented and len(out) > tracer.mul_out_max:
                    tracer.mul_out_max = len(out)
                return out

        elif name == "endo.poly_det":

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer.det_depth += 1
                frame = tracer._enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                    tracer.det_depth -= 1

        elif name == "planefactor.factor_plane":

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = tracer._enter(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                tracer.reduction_steps += len(out.steps)
                return out

        elif name == "parsing.parse_endo":

            def wrapper(text, *args, **kwargs):
                if not tracer.active:
                    return fn(text, *args, **kwargs)
                frame = tracer._enter(nid)
                try:
                    return fn(text, *args, **kwargs)
                finally:
                    tracer._exit(frame)
                    tracer.parse_chars += len(text)
                    tracer.parse_seconds += perf_counter() - frame[1]

        else:

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = tracer._enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Patch every target in the currently imported polyauto modules."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "polyauto"]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, parts[-1], wrapper)
            else:
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def write_spans(self, path) -> int:
        """Write the kept spans as gzip CSV: id,parent,name,start_s,end_s."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(
                    f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f}\n"
                )
        return len(self.span_name)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over ``ops`` operations."""
    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(span: str, key: str, with_calls: bool = True):
        calls, self_s = tracer.totals(span)
        if with_calls:
            out[f"{key}.calls"] = (calls, "count")
        out[f"{key}.self_s"] = (self_s, "s")

    calls_and_self("poly.mul", "poly.mul")
    out["poly.mul.term_products"] = (tracer.mul_products, "count")
    out["poly.mul.out_terms_max"] = (tracer.mul_out_max, "count")
    calls_and_self("poly.add", "poly.add")
    calls_and_self("poly.substitute", "poly.substitute")
    calls_and_self("poly.pow", "poly.pow", with_calls=False)
    calls_and_self("poly.with_t_set", "poly.with_t_set", with_calls=False)
    calls_and_self("endo.compose", "endo.compose")
    calls_and_self("endo.jacobian_det", "endo.jacobian_det")
    calls_and_self("endo.poly_det", "endo.poly_det", with_calls=False)
    out["endo.poly_det.term_products"] = (tracer.det_products, "count")
    calls_and_self("groups.word_to_endo", "groups.word_to_endo")
    calls_and_self("groups.inverse", "groups.inverse", with_calls=False)
    for stage in STAGES:
        calls, self_s = tracer.totals(f"degeneration.{stage}")
        out[f"degeneration.{stage}.calls_per_op"] = (calls / ops, "call/op")
        out[f"degeneration.{stage}.self_s"] = (self_s, "s")
    calls_and_self("planefactor.factor_plane", "planefactor.factor_plane")
    out["planefactor.reduction_steps"] = (tracer.reduction_steps, "count")
    calls_and_self("parsing.parse_endo", "parsing.parse_endo")
    rate = tracer.parse_chars / tracer.parse_seconds if tracer.parse_seconds else 0.0
    out["parsing.chars_per_s"] = (rate, "char/s")
    calls_and_self("cli.main", "cli.main", with_calls=False)
    return out
