"""Layer spans recorded from outside skewlab, and the per-layer metrics.

The child side (``Tracer``) wraps the public functions of every skewlab
module at each place that binds them by name, keeps one span per call
(name, start, end, parent) in memory, and writes the spans when the
command ends.  Counts are computed from a call's arguments and result
after its span closes; the time that takes is kept as a ``trace`` span
under the caller, so it never lands in a layer's self time.

The parent side (``layer_metrics``) turns one traced run into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

from oracle import power_domain

LIBRARY = ("groups", "distributions", "matching", "systems", "towers", "improvement", "driver")
# called once per orbit point (millions of times); their work shows in the callers' counts
PER_POINT = frozenset({"cocycle_product", "apply_speedup", "speedup_name"})
CLI_SPANS = {"run_command": "cli", "load_system": "cli.load_system"}

PER_LAYER = (
    # (metric, unit, better)
    ("improvement.build_model_name.self_s", "s", "lower"),
    ("improvement.check_regular.self_s", "s", "lower"),
    ("improvement.check_regular.calls", "count", "lower"),
    ("improvement.check_regular.certified", "count", "higher"),
    ("improvement.improve.self_s", "s", "lower"),
    ("improvement.improve.calls", "count", "lower"),
    ("distributions.kantorovich.self_s", "s", "lower"),
    ("distributions.kantorovich.calls", "count", "lower"),
    ("distributions.kantorovich.flow_calls", "count", "lower"),
    ("distributions.kantorovich.flow_pairs", "count", "lower"),
    ("distributions.kantorovich.zero_calls", "count", "higher"),
    ("systems.name_distribution.self_s", "s", "lower"),
    ("systems.name_distribution.names", "count", "lower"),
    ("systems.name_distribution.support", "count", "lower"),
    ("systems.speedup_name_distribution.self_s", "s", "lower"),
    ("systems.speedup_name_distribution.names", "count", "lower"),
    ("systems.twist.s", "s", "lower"),
    ("systems.check_extension_ergodic.s", "s", "lower"),
    ("towers.ladder.s", "s", "lower"),
    ("towers.broken_fraction.s", "s", "lower"),
    ("driver.run_isomorphism.self_s", "s", "lower"),
    ("driver.copy_partition.self_s", "s", "lower"),
    ("driver.complete_speedup.s", "s", "lower"),
    ("driver.bootstrap_regular.self_s", "s", "lower"),
    ("driver.iterations", "count", "lower"),
    ("groups.cyclic.s", "s", "lower"),
    ("groups.cyclic.calls", "count", "lower"),
    ("groups.order_max", "count", "lower"),
    ("cli.load_system.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


# ---------------------------------------------------------------------------
# counts, taken outside the timed span


def _count_check_regular(add, call, result) -> None:
    if type(result).__name__ == "RegularityCertificate":
        add("improvement.check_regular.certified")


def _count_kantorovich(add, call, result) -> None:
    d1, d2 = call.arguments["d1"], call.arguments["d2"]
    if result == 0:
        add("distributions.kantorovich.zero_calls")
    if d1.weights == d2.weights:
        return
    a, b = d1.as_dict(), d2.as_dict()
    keys = a.keys() | b.keys()
    supply = sum(1 for k in keys if a.get(k, 0) > b.get(k, 0))
    demand = sum(1 for k in keys if a.get(k, 0) < b.get(k, 0))
    if supply and (call.arguments.get("method", "auto") != "auto" or not d1.space.discrete):
        add("distributions.kantorovich.flow_calls")
        add("distributions.kantorovich.flow_pairs", supply * demand)


def _count_name_distribution(add, call, result) -> None:
    ext = call.arguments["ext"]
    add("systems.name_distribution.names", ext.size * ext.group.order)
    add("systems.name_distribution.support", len(result.weights))


def _count_speedup_name_distribution(add, call, result) -> None:
    speedup = call.arguments["speedup"]
    starts = call.arguments.get("starts")
    if starts is None:
        starts = power_domain(list(speedup.exponent), call.arguments["n"])
    add("systems.speedup_name_distribution.names", len(tuple(starts)) * speedup.parent.group.order)


def _count_cyclic(add, call, result) -> None:
    add("groups.order_max", call.arguments["m"], keep=max)


HOOKS = {
    "improvement.check_regular": _count_check_regular,
    "distributions.kantorovich": _count_kantorovich,
    "systems.name_distribution": _count_name_distribution,
    "systems.speedup_name_distribution": _count_speedup_name_distribution,
    "groups.cyclic": _count_cyclic,
}


# ---------------------------------------------------------------------------
# child side


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def add(self, key: str, amount: int = 1, keep=None) -> None:
        old = self.counters.get(key)
        if old is None:
            self.counters[key] = amount
        else:
            self.counters[key] = keep(old, amount) if keep else old + amount

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                start = clock()
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                hook(self.add, call, result)
                spans.append(["trace", start, clock(), span[3]])
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function in the loaded skewlab modules."""
        import skewlab.cli

        wrapped = {}
        for short in LIBRARY:
            module = importlib.import_module("skewlab." + short)
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in PER_POINT
                ):
                    wrapped[obj] = self.wrap("%s.%s" % (short, attr), obj)
        for attr, span_name in CLI_SPANS.items():
            fn = getattr(skewlab.cli, attr)
            wrapped[fn] = self.wrap(span_name, fn)
        for name, module in list(sys.modules.items()):
            if name == "skewlab" or name.startswith("skewlab."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# parent side


def layer_metrics(trace: dict, wall_s: float, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (without trace.overhead)."""
    spans = trace["spans"]
    count = len(spans)
    child_ns = [0] * count
    trace_ns = [0] * count
    for i in range(count - 1, -1, -1):  # children always follow their parent
        name, start, end, parent = spans[i]
        if name == "trace":
            trace_ns[i] = end - start
        if parent >= 0:
            child_ns[parent] += end - start
            trace_ns[parent] += trace_ns[i]

    def ancestors(i: int):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    iterations = 0
    covered_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "trace":
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]
        above = list(ancestors(i))
        if name not in above:
            total_ns[name] = total_ns.get(name, 0) + end - start - trace_ns[i]
        if name == "improvement.improve" and any(a.startswith("driver.run_") for a in above):
            iterations += 1
        if not name.startswith("cli") and all(a.startswith("cli") for a in above):
            covered_ns += end - start - trace_ns[i]
    tracing_ns = sum(end - start for name, start, end, _ in spans if name == "trace")

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric in trace["counters"]:
            out[metric] = trace["counters"][metric]
            continue
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_ns.get(layer, 0) / 1e9
        elif kind == "s":
            out[metric] = total_ns.get(layer, 0) / 1e9
        elif kind == "calls":
            out[metric] = calls.get(layer, 0)
        else:
            out[metric] = 0
    out["driver.iterations"] = iterations
    out["cli.report_bytes"] = report_bytes
    out["trace.coverage"] = covered_ns / (wall_s * 1e9 - tracing_ns)
    return out
