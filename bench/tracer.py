"""Span tracer that wraps markovj's functions from outside the package.

``install`` replaces every public module-level function of each layer
(plus the few methods and helpers in ``EXTRA``) with a timing wrapper,
and rebinds every reference to it inside the ``markovj`` modules, since
they import each other's functions by name.  Nothing in the package
itself is edited.

Each wrapped call is a span.  A span's self time is its duration minus
the time of the wrapped calls made inside it; its layer time is its
duration minus the time spent in other layers below it.  ``metrics``
turns the raw spans and counters into the per-layer metrics that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "tree", "cf", "jfunction", "integrals", "analysis")

# Wrapped in addition to each layer's public functions: the Period
# constructor (rotation canonicalisation), the quadrature methods, and the
# cli helper that knows how many nodes were asked of the result cache.
EXTRA = {
    "cf": ("Period.__post_init__",),
    "integrals": ("ArcIntegrator.weighted_j", "ArcIntegrator.integrate_states"),
    "cli": ("_values_with_cache",),
}


def origin_layer(exc: BaseException) -> str:
    """The markovj module of the innermost traceback frame inside the
    package, or 'none' when the exception never passed through it."""
    layer = "none"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("markovj."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def _count_nodes(tracer: "Tracer", args, result) -> None:
    for node in result if isinstance(result, list) else [result]:
        tracer.counts["tree.nodes"] += 1
        tracer.counts["tree.sum_q"] += node.q
        tracer.counts["tree.max_q"] = max(tracer.counts["tree.max_q"], node.q)


def _count_lines(path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


# Counters taken from a span's arguments or result, after its timer stops.
HOOKS = {
    "cf.cycle_states": lambda t, a, r: t.add("cf.states", len(r)),
    "tree.build_tree": _count_nodes,
    "tree.node_at": _count_nodes,
    "tree.find_fraction": _count_nodes,
    "jfunction.j_eval":
        lambda t, a, r: t.add("jfunction.j_eval_points", int(getattr(a[0], "size", 1))),
    "integrals.ArcIntegrator.weighted_j":
        lambda t, a, r: t.add("integrals.weighted_j_points", len(a[1])),
    "integrals.compute_values":
        lambda t, a, r: t.add("integrals.compute_values_nodes", len(r)),
    "integrals.read_cache":
        lambda t, a, r: t.add("integrals.cache_records_read", len(r)),
    "integrals.write_cache":
        lambda t, a, r: t.add("integrals.cache_records_written", _count_lines(a[1])),
    "cli._values_with_cache":
        lambda t, a, r: t.add("integrals.cache_requests", len(a[0])),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, layer_s]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [layer, child_s, foreign_s] per open span
        self._counted: list[BaseException] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def _span(self, name: str, layer: str, fn, args, kwargs, count_call: bool = True):
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except Exception as exc:
            if not any(exc is seen for seen in self._counted):
                self._counted.append(exc)
                self.counts[origin_layer(exc) + ".errors"] += 1
            raise
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                parent = self._stack[-1]
                parent[1] += dur
                parent[2] += frame[2] if parent[0] == layer else dur
            rec = self.spans[name]
            rec[0] += count_call
            rec[1] += dur
            rec[2] += dur - frame[1]
            rec[3] += dur - frame[2]

    def wrap(self, name: str, layer: str, fn):
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            # One call per generator; each resumption is timed as a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.spans[name][0] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._span(name, layer, next, (it,), {}, count_call=False)
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(name, layer, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def install(tracer: Tracer) -> None:
    """Wrap the layers' functions; call after markovj is importable."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"markovj.{layer}")
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", layer, obj)
        for dotted in EXTRA.get(layer, ()):
            owner_name, _, method = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, method, None) if owner is not None else None
            if not inspect.isfunction(fn):
                tracer.missing.append(f"{layer}.{dotted}")
                continue
            wrapped = tracer.wrap(f"{layer}.{dotted}", layer, fn)
            if owner is module:
                replaced[fn] = wrapped
            else:
                setattr(owner, method, wrapped)
    for name, module in list(sys.modules.items()):
        if name == "markovj" or name.startswith("markovj."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])


# Per-layer metric -> (span, field).  Field 0 is calls, 1 is total time
# (children included), 3 is time in the span's own layer.
SPAN_METRICS = {
    "cf.cycle_states_s": ("cf.cycle_states", 1),
    "cf.cycle_states_calls": ("cf.cycle_states", 0),
    "cf.eval_periodic_s": ("cf.eval_periodic", 1),
    "cf.eval_periodic_calls": ("cf.eval_periodic", 0),
    "cf.conjunction_s": ("cf.conjunction", 1),
    "cf.conjunction_calls": ("cf.conjunction", 0),
    "cf.period_init_s": ("cf.Period.__post_init__", 1),
    "cf.period_init_calls": ("cf.Period.__post_init__", 0),
    "cf.format_period_s": ("cf.format_period", 1),
    "tree.build_tree_s": ("tree.build_tree", 1),
    "tree.build_tree_calls": ("tree.build_tree", 0),
    "tree.walk_path_s": ("tree.walk_path", 1),
    "tree.walk_path_calls": ("tree.walk_path", 0),
    "jfunction.j_coefficients_s": ("jfunction.j_coefficients", 1),
    "jfunction.j_eval_s": ("jfunction.j_eval", 1),
    "jfunction.j_eval_calls": ("jfunction.j_eval", 0),
    "integrals.integrate_J_calls": ("integrals.integrate_J", 0),
    "integrals.integrate_J_self_s": ("integrals.integrate_J", 3),
    "integrals.read_cache_s": ("integrals.read_cache", 1),
    "integrals.write_cache_s": ("integrals.write_cache", 1),
    "analysis.check_q_recursion_s": ("analysis.check_q_recursion", 1),
    "analysis.check_interlacing_s": ("analysis.check_interlacing", 1),
    "analysis.check_J_recursion_s": ("analysis.check_J_recursion", 1),
    "analysis.gg_prime_ranges_s": ("analysis.gg_prime_ranges", 1),
    "analysis.coincidence_bound_s": ("analysis.coincidence_bound", 1),
    "analysis.decompose_path_calls": ("analysis.decompose_path", 0),
}

COUNT_METRICS = (
    "cf.states", "tree.nodes", "tree.sum_q", "tree.max_q",
    "jfunction.j_eval_points", "integrals.weighted_j_points",
    "integrals.compute_values_nodes", "integrals.cache_records_read",
    "integrals.cache_records_written",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def metrics(raw: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced process."""
    spans, counts = raw["spans"], raw["counts"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            rec[2] for name, rec in spans.items() if name.split(".")[0] == layer
        )
        out[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = spans.get(span, [0, 0.0, 0.0, 0.0])[field]
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    weighted = counts.get("integrals.weighted_j_points", 0)
    out["integrals.memo_hit_ratio"] = (
        1.0 - counts.get("jfunction.j_eval_points", 0) / weighted if weighted else 0.0
    )
    requested = counts.get("integrals.cache_requests", 0)
    out["integrals.cache_hit_ratio"] = (
        1.0 - counts.get("integrals.compute_values_nodes", 0) / requested
        if requested else 0.0
    )
    out["cli.output_bytes"] = output_bytes
    return out
