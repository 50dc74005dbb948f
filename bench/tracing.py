"""Spans and counters around calls into diskalloc's public layer functions.

``install`` replaces each wrapped function in every loaded ``diskalloc``
module namespace that holds a reference to it (``restructure`` and ``cli``
import them by name), and turns ``PairWeights.attach_cost`` into a counter
charged to the innermost open span. Nothing is recorded outside a request,
so output checks and set-up stay untraced. Only the traced run calls
``install``; the untraced run measures the package untouched.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import sys
import time
from collections import defaultdict

# Layer functions wrapped with a span named "<module>.<function>".
LAYER_FUNCTIONS = {
    "io": ("parse_instance", "parse_solution", "write_document"),
    "relations": ("integrate_relations", "detect_communities"),
    "allocator": (
        "solve_stage",
        "spread_allocate",
        "local_search",
        "exact_solve",
        "evaluate_objective",
    ),
    "restructure": ("restructure_one_stage", "plan_trajectory"),
    "cli": ("run_command",),
}
# Every ``*_report`` function of the report module shares this span.
REPORT_SPAN = "report.render"

SPANS = tuple(
    [f"{m}.{f}" for m in ("io",) for f in LAYER_FUNCTIONS[m]]
    + [REPORT_SPAN]
    + [f"{m}.{f}" for m in ("cli", "relations", "allocator", "restructure") for f in LAYER_FUNCTIONS[m]]
)
# Spans whose ``PairWeights.attach_cost`` calls are reported.
ATTACH_SPANS = (
    "allocator.exact_solve",
    "allocator.local_search",
    "restructure.restructure_one_stage",
)
# Counters reported per pass, beside the spans' times and calls.
COUNTERS = (
    "allocator.exact_solve.refusals",
    "allocator.local_search.cap_hits",
    "relations.edges",
    "relations.communities",
    "restructure.moves_sum",
    "restructure.rho_sum",
    "restructure.cap_refusals",
    "io.bytes_read",
    "io.bytes_written",
)


class Tracer:
    """In-memory spans of the requests run while ``request`` is set.

    A span is ``[name, start, end, parent index, request id]``, in wall
    seconds. Self time is a span's duration minus the durations of its
    direct children; calls are strictly nested in one thread, so children
    never overlap. The summed times are multiplied by ``scale``, which the
    runner sets per request to convert wall time to reference time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.scale = 1.0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.attach = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._open = defaultdict(int)
        self._degraded = 0
        self._allowance = 0

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, tracer.request]
            tracer.spans.append(span)
            tracer._child.append(0.0)
            stack.append(index)
            tracer._open[name] += 1
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                end = time.perf_counter()
                span[2] = end
                stack.pop()
                tracer._open[name] -= 1
                duration = (end - span[1]) * tracer.scale
                if not tracer._open[name]:  # outermost span of this name
                    tracer.total[name] += duration
                tracer.self_time[name] += duration - tracer._child[index]
                tracer.calls[name] += 1
                if parent is not None:
                    tracer._child[parent] += duration
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc)

        return traced

    def count_attach(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(weights, f, others):
            if tracer._stack:
                tracer.attach[tracer.spans[tracer._stack[-1]][0]] += 1
            return fn(weights, f, others)

        return counted

    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each summed over the traced requests and
        divided by the number of passes, except the shares."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.total_ms"] = self.total[name] * 1000 / passes
            out[f"{name}.self_ms"] = self.self_time[name] * 1000 / passes
            out[f"{name}.calls"] = self.calls[name] / passes
        for name in ATTACH_SPANS:
            out[f"{name}.attach_calls"] = self.attach[name] / passes
        for name in COUNTERS:
            out[name] = self.counts[name] / passes
        spreads = self.calls["allocator.spread_allocate"]
        out["allocator.spread_allocate.degraded_share"] = (
            self._degraded / spreads if spreads else 0.0
        )
        moves = self.counts["restructure.moves_sum"]
        out["restructure.budget_use"] = moves / self._allowance if self._allowance else 0.0
        return out

    def dump(self, labels: dict) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "requests": labels,
            "spans": self.spans,
        }


def _refused(exc) -> bool:
    return type(exc).__name__ == "EnumerationCapError"


def _on_exact(tracer, args, kwargs, result, exc):
    if _refused(exc):
        tracer.counts["allocator.exact_solve.refusals"] += 1


def _on_spread(tracer, args, kwargs, result, exc):
    if result is not None and result.degraded:
        tracer._degraded += 1


def _on_restructure(tracer, args, kwargs, result, exc):
    if _refused(exc):
        tracer.counts["restructure.cap_refusals"] += 1
    if result is None:
        return
    problem = args[0] if args else kwargs["problem"]
    unit = problem.instance.relocation_unit_cost
    tracer.counts["restructure.moves_sum"] += len(result.plan.moves)
    tracer.counts["restructure.rho_sum"] += result.proximity
    if unit > 0:
        tracer._allowance += math.floor(problem.budget / unit + 1e-9)


def _on_edges(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["relations.edges"] += len(result.edges)


def _on_communities(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["relations.communities"] += len(result)


def _on_read(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["io.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _on_write(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["io.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


OBSERVERS = {
    "allocator.exact_solve": _on_exact,
    "allocator.spread_allocate": _on_spread,
    "restructure.restructure_one_stage": _on_restructure,
    "relations.integrate_relations": _on_edges,
    "relations.detect_communities": _on_communities,
    "io.parse_instance": _on_read,
    "io.parse_solution": _on_read,
    "io.write_document": _on_write,
}


class _CapHits(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if self.tracer.request is not None and "evaluation cap" in record.getMessage():
            self.tracer.counts["allocator.local_search.cap_hits"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the loaded package in place."""
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name == "diskalloc" or name.startswith("diskalloc.")
    }
    replacements = {}
    for short, names in LAYER_FUNCTIONS.items():
        module = modules[f"diskalloc.{short}"]
        for fname in names:
            span = f"{short}.{fname}"
            original = getattr(module, fname)
            replacements[id(original)] = tracer.wrap(span, original, OBSERVERS.get(span))
    report = modules["diskalloc.report"]
    for fname, value in vars(report).items():
        if fname.endswith("_report") and callable(value):
            replacements[id(value)] = tracer.wrap(REPORT_SPAN, value)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    weights = modules["diskalloc.allocator"].PairWeights
    weights.attach_cost = tracer.count_attach(weights.attach_cost)
    logging.getLogger("diskalloc.allocator").addHandler(_CapHits(tracer))
