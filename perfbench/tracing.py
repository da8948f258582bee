"""Benchmark-side tracing: spans around the program's public functions.

The program has no spans of its own yet, so the traced run wraps the
public functions at the names their callers bind (a module attribute
or a class attribute) and records one span per call: name, start,
end and the enclosing span on the same thread.  Spans stay in memory
and are written out once, when the run ends.

Only the process that installed the wrappers records.  Executor child
processes forked later inherit the wrappers but record nothing: their
work shows as the parent's ``shard.scatter`` wall time plus the
counters the parent reads from ``stats_dict()``.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import threading
import time
import types


class Tracer:
    """An in-memory span recorder, safe for a threading HTTP server."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.spans: list[tuple] = []   # (id, parent, name, start, end)
        self.apps: list = []            # ServingApp instances seen
        self.workbenches: list = []     # Workbench instances seen
        self.setup_spans: list[tuple] = []
        self._baseline: dict = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, classify=None):
        """``func`` recording a span named ``name`` per call.

        ``classify(args, before)`` may rename the span after the call:
        it is called once with ``before=None`` ahead of the call (its
        result is passed back as ``before``) and once after it.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.owner:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            before = classify(args, None) if classify else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = classify(args, before) if classify else name
                tracer.spans.append((span_id, parent, label, start, end))

        return traced

    # -- output --------------------------------------------------------------

    def adopt(self) -> None:
        """Record in this process (a fork of the installer) from now
        on, starting empty."""
        self.owner = os.getpid()
        self.reset()

    def mark(self) -> None:
        """End of set-up: later spans and counter changes are the
        measured ones; set-up spans are kept apart."""
        self.setup_spans.extend(self.spans)
        self.spans.clear()
        self._baseline = self._counters()

    def reset(self) -> None:
        self.spans.clear()
        self.setup_spans.clear()
        self.apps.clear()
        self.workbenches.clear()
        self._baseline = {}

    def snapshot(self) -> dict:
        """Spans plus the program's counters since :meth:`mark`."""
        counters = self._counters()
        for group, values in counters.items():
            base = self._baseline.get(group, {})
            for key in values:
                values[key] -= base.get(key, 0)
        return {"pid": os.getpid(), "spans": list(self.spans),
                "setup_spans": list(self.setup_spans),
                "counters": counters}

    def _counters(self) -> dict:
        counters = {"response_cache": {}, "query_cache": {},
                    "executor": {}, "store": {}}
        for app in self.apps:
            _add(counters["response_cache"],
                 app.core.response_cache.stats_dict())
        for workbench in self.workbenches:
            _add(counters["query_cache"], workbench.query_cache_stats())
            executor = workbench.engine.executor
            if executor is not None:
                _add(counters["executor"], executor.stats_dict())
            store_counters = getattr(workbench.store, "counters", None)
            if isinstance(store_counters, dict):
                _add(counters["store"], store_counters)
        return counters

    def dump(self, path: str) -> None:
        staged = f"{path}.tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(staged, path)


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


def _opened(args, before):
    store = args[0]
    if before is None:
        return store.open_shard_count
    return ("shard.open" if store.open_shard_count > before
            else "shard.open_cached")


def _materialized(args, before):
    store = args[0]
    if before is None:
        return store.counters["row_materializations"]
    return ("shard.materialize"
            if store.counters["row_materializations"] > before
            else "shard.materialize_cached")


def install(tracer: Tracer) -> None:
    """Wrap every traced function at the names its callers bind."""
    import repro.query.engine as engine_mod
    import repro.serving.core as core_mod
    import repro.serving.middleware as middleware_mod
    import repro.viz.cohort_views as cohort_views_mod
    import repro.workbench as workbench_mod
    from repro.events.store import EventStore
    from repro.serving.core import RequestCore
    from repro.serving.middleware import ServingApp
    from repro.shard.delta import Compactor, DeltaWriter
    from repro.shard.executor import ParallelExecutor
    from repro.shard.store import ShardedEventStore
    from repro.viz.timeline_view import TimelineView
    from repro.workbench import Workbench

    def patch(owner, attr, name, classify=None):
        setattr(owner, attr,
                tracer.wrap(getattr(owner, attr), name, classify))

    # Callers bind these by module attribute.
    patch(core_mod, "parse_query", "query.parse")
    patch(workbench_mod, "parse_query", "query.parse")
    patch(core_mod, "plan_query", "query.plan")
    patch(engine_mod, "plan_query", "query.plan")
    patch(cohort_views_mod, "render_cohort_density", "viz.density")
    patch(workbench_mod, "render_cohort_density", "viz.density")
    patch(cohort_views_mod, "render_cohort_flow", "viz.flow")
    patch(workbench_mod, "render_cohort_flow", "viz.flow")
    patch(workbench_mod, "export_personal_timeline", "viz.patient_html")
    patch(os, "fsync", "os.fsync")
    # The middleware calls ``gzip.compress`` through its module global.
    middleware_mod.gzip = types.SimpleNamespace(
        compress=tracer.wrap(gzip.compress, "serving.gzip"))

    # Methods are bound through the class.
    patch(ServingApp, "handle", "serving.middleware")
    patch(RequestCore, "handle", "serving.core")
    patch(Workbench, "select", "query.select")
    patch(Workbench, "stats", "cohort.summarize")
    patch(Workbench, "analyze", "query.analyze")
    patch(Workbench, "cohort_sketch", "sketch.fold")
    patch(ParallelExecutor, "patients", "shard.scatter")
    patch(ParallelExecutor, "sketch_shards", "shard.scatter")
    patch(ShardedEventStore, "shard", "shard.open", _opened)
    patch(ShardedEventStore, "materialize_store", "shard.materialize",
          _materialized)
    patch(ShardedEventStore, "refresh", "shard.refresh")
    patch(DeltaWriter, "append", "shard.append")
    patch(Compactor, "compact", "shard.compact")
    patch(EventStore, "mask_patients", "events.mask_patients")
    patch(TimelineView, "render", "viz.timeline")


def calibrate(calls: int = 20000) -> float:
    """Seconds one recorded span costs over an unwrapped call.

    Measured on a no-op in a private tracer, so the spans it records
    never mix with the run's.
    """
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        best = min(best, (wrapped - plain) / calls)
        probe.spans.clear()
    return max(best, 0.0)


# -- analysis ------------------------------------------------------------------

def self_times(spans) -> list[tuple[str, float, float]]:
    """``(name, wall_ms, self_ms)`` per span; ``spans`` as recorded (a
    list of ``(id, parent, name, start, end)``)."""
    child_ns: dict[int, int] = {}
    for _span_id, parent, _name, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    result = []
    for span_id, _parent, name, start, end in spans:
        wall = end - start
        result.append((name, wall / 1e6,
                       (wall - child_ns.get(span_id, 0)) / 1e6))
    return result


def roots_of(spans) -> dict[int, int]:
    """span id -> id of the outermost span enclosing it."""
    parent_of = {span_id: parent for span_id, parent, *_rest in spans}
    root: dict[int, int] = {}
    for span_id in parent_of:
        node = span_id
        while parent_of.get(node):
            node = parent_of[node]
        root[span_id] = node
    return root
