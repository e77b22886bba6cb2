"""Span tracer that measures fptkit's layers from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules
(and ``FpPoly.multiply`` and ``TermBudget.charge``) with a wrapper that
records a span: name, parent span, start, end, and for a few functions the
number of terms going in and out.  Modules that imported a function by
value (``from .exactnum import truncate``) hold their own binding of it;
every such binding in the package is patched too, so no call escapes.
Nothing under ``src/`` changes: leaving the context restores every binding.

Spans are kept in memory; ``layer_metrics`` turns a list of them into the
benchmark's per-layer metrics.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import threading
import time
from collections import defaultdict

PACKAGE = "fptkit"
LAYERS = ("parsing", "ratlp", "polygeo", "exactnum", "charp", "thresholds", "cli")
METHODS = (("charp", "FpPoly", "multiply"), ("charp", "TermBudget", "charge"))

# name -> (terms in, from the arguments; terms out, from the result)
SIZES = {
    "charp.FpPoly.multiply": (None, lambda r: len(r.terms)),
    "charp.frobenius_reduce": (lambda a: len(a[0].terms), lambda r: len(r.terms)),
    "charp.TermBudget.charge": (lambda a: a[1], None),
    "thresholds.theta_for_point": (None, lambda r: len(r.terms)),
    "thresholds.theta_polynomial": (None, lambda r: len(r.terms)),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "size_in", "size_out")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.size_in = 0
        self.size_out = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        size_in, size_out = SIZES.get(name, (None, None))
        clock = self.clock
        spans = self.spans
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the span that is open
            # in the main thread, which is waiting for it
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, parent, clock())
            spans.append(span)
            if size_in is not None:
                span.size_in = size_in(args)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if size_out is not None:
                span.size_out = size_out(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the time covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {
        id(s): (s.end - s.start) - _covered(s.start, s.end, children.get(id(s), []))
        for s in spans
    }


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in names that have no ancestor named in names."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced pass."""
    self_t = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_sum(pred) -> float:
        return sum(self_t[id(s)] for s in spans if pred(s.name))

    def inclusive(*names: str) -> float:
        return sum(s.end - s.start for s in _outermost(spans, set(names)))

    def size(name: str, which: str) -> int:
        return sum(getattr(s, which) for s in by_name[name])

    def layer(prefix: str):
        return lambda n: n.startswith(prefix + ".")

    multiply = "charp.FpPoly.multiply"
    reduce_in = size("charp.frobenius_reduce", "size_in")
    return {
        "charp.multiplies": len(by_name[multiply]),
        "charp.terms_out": size(multiply, "size_out"),
        "charp.multiply_s": self_sum(lambda n: n == multiply),
        "charp.terms_kept_ratio": size("charp.frobenius_reduce", "size_out") / reduce_in if reduce_in else 0.0,
        "charp.reduce_s": self_sum(lambda n: n == "charp.frobenius_reduce"),
        "charp.terms_charged": size("charp.TermBudget.charge", "size_in"),
        "charp.bracket_s": inclusive("charp.bracket"),
        "charp.certify_s": inclusive("charp.certify_lower", "charp.fpt_is_one"),
        "charp.self_s": self_sum(layer("charp")),
        "thresholds.gap_s": inclusive("thresholds.generic_gap_test"),
        "thresholds.theta_terms": size("thresholds.theta_for_point", "size_out")
        + size("thresholds.theta_polynomial", "size_out"),
        "thresholds.report_s": inclusive("thresholds.scan_csv_text", "thresholds.scan_json_document"),
        "thresholds.self_s": self_sum(layer("thresholds")),
        "cli.self_s": self_sum(layer("cli")),
        "ratlp.solves": len(by_name["ratlp.maximize"]),
        "ratlp.self_s": self_sum(layer("ratlp")),
        "polygeo.self_s": self_sum(lambda n: layer("polygeo")(n) and n != "polygeo.newton_threshold"),
        "polygeo.vertex_enum_s": self_sum(lambda n: n == "polygeo.newton_threshold"),
        "exactnum.self_s": self_sum(layer("exactnum")),
        "exactnum.is_prime_calls": len(by_name["exactnum.is_prime"]),
        "parsing.self_s": self_sum(layer("parsing")),
    }


COUNTS = (
    "charp.multiplies",
    "charp.terms_out",
    "charp.terms_charged",
    "thresholds.theta_terms",
    "ratlp.solves",
    "exactnum.is_prime_calls",
)


def span_records(spans: list[Span], origin: float) -> list[list]:
    """Spans as JSON-ready rows: name, parent row, start, end (seconds from
    origin), terms in, terms out."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        [s.name, index.get(id(s.parent), -1), round(s.start - origin, 7),
         round(s.end - origin, 7), s.size_in, s.size_out]
        for s in spans
    ]
