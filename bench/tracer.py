"""Span tracer for the traced run.

``Tracer.install()`` wraps the public functions of each layer module of
``sumlike`` plus the few methods the per-layer metrics name, then patches
every ``sumlike`` namespace that bound one of them by name (for example
``metrization.quasi_constants`` and ``reductions.best_admissible``), so
calls inside a module and ``from .x import y`` bindings are traced alike.
Nothing under ``src/`` changes, and ``remove()`` restores every attribute.

Each call adds to its span's call count, total time, self time (its time
minus the time of the traced calls it made) and raise count; a few spans also
count the work they were given.  Span records (id, name, start, end, parent,
job) stay in memory, capped per name and job so that calls made per element
do not fill it, and ``write_spans`` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter

PACKAGE = "sumlike"
LAYERS = ("core", "conditions", "metrization", "catalog", "reductions", "cli")

# (module, class, method, span name); the spec classes share one span
METHODS = (
    ("core", "PiecewiseModulus", "value", "core.PiecewiseModulus.value"),
    ("metrization", "MetrizationCertificate", "to_dict", "metrization.MetrizationCertificate.to_dict"),
    ("core", "TableModulus", "as_sample", "core.as_sample"),
    ("core", "PowerModulus", "as_sample", "core.as_sample"),
    ("core", "IndicatorModulus", "as_sample", "core.as_sample"),
    ("core", "FunctionModulus", "as_sample", "core.as_sample"),
)

# Per-element calls (millions per example4-scan pass) are only counted: their
# time stays in the caller's self time, where a vectorised rewrite moves it.
COUNTED = ("core.PiecewiseModulus.value",)

# A per-element parser called twice for every psi value of a power
# coordinate (millions of times per family-mix pass); wrapped, it alone more
# than doubles the traced time and buries the layers it is called from.
UNTRACED = ("core.as_real",)

SPANS_PER_NAME_PER_JOB = 50


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# counters: span name -> (counter name, amount taken from (args, kwargs, result))
COUNTERS = {
    "conditions.quasi_constants": ("triples", lambda a, k, r: _arg(a, k, 0, "s").size ** 3),
    "metrization.build_level_sets": ("levels", lambda a, k, r: r.L),
    "metrization.certify_sandwich": (
        "records", lambda a, k, r: len(getattr(r, "sandwich", ())) + len(getattr(r, "threshold", ()))
    ),
    "catalog.verify_example4_inequalities": ("pairs", lambda a, k, r: r.pair_count),
    "conditions.mazur_orlicz_check": ("pairs", lambda a, k, r: len(set(_arg(a, k, 1, "grid"))) ** 2),
}
# spans whose peak Python-visible allocation is measured with tracemalloc
MEMORY = ("conditions.quasi_constants",)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "raised", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.counters = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = None
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._per_job: Counter = Counter()
        self._patches: list[tuple] = []

    # --- installation --------------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"{layer}.{attr}"
                if obj.__module__ == module.__name__ and name not in UNTRACED:
                    wrappers[obj] = self._wrap(name, obj)
        for layer, cls_name, method, name in METHODS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            fn = vars(getattr(module, cls_name, object)).get(method)
            if fn is None:
                self.missing.append(f"{layer}.{cls_name}.{method}")
                continue
            wrappers[fn] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod_name:
                    for cls_attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and member in wrappers:
                            self._patch(obj, cls_attr, wrappers[member])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.raised += 1
                    raise

            return counted
        counter = COUNTERS.get(name)
        memory = name in MEMORY
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    stat.counters["peak_bytes"] = max(stat.counters["peak_bytes"], peak)
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                self._record(frame[1], name, start, end, parent)
            if counter is not None:
                stat.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def _record(self, span_id, name, start, end, parent) -> None:
        key = (name, self.job)
        if self._per_job[key] >= SPANS_PER_NAME_PER_JOB:
            self.dropped += 1
            return
        self._per_job[key] += 1
        self.spans.append((span_id, name, start, end, parent, self.job))

    # --- output --------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")

    def table(self) -> dict:
        """Per-span totals: calls, total and self seconds, raises, counters."""
        return {
            name: {
                "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                "raised": s.raised, **s.counters,
            }
            for name, s in sorted(self.stats.items())
        }
