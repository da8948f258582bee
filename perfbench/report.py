"""Metric arithmetic and printing for the workbench benchmark."""

from __future__ import annotations

import math
import os
import statistics

from tracing import roots_of, self_times

ROUTES = ("cohort", "timeline", "density", "flow", "patient")


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failures)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def disk_bytes(path: str) -> int:
    """Bytes of every regular file under ``path`` (or ``path`` itself)."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(directory, name)
            if not os.path.islink(full):
                total += os.path.getsize(full)
    return total


def latency_metrics(samples, window_s: float) -> dict:
    """Throughput, latency percentiles and wire size over ``samples``.

    A failed or wrong answer counts as missing any latency limit, so it
    enters the percentiles as infinitely slow.
    """
    latencies = [s.latency_s * 1e3 if s.error is None else math.inf
                 for s in samples]
    ok = sum(1 for s in samples if s.error is None)
    return {
        "throughput_rps": ok / window_s,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "wire_kb_per_request":
            sum(s.wire_bytes for s in samples) / len(samples) / 1024.0,
    }


def route_medians(samples) -> dict:
    result = {}
    for route in ROUTES:
        values = [s.latency_s * 1e3 for s in samples
                  if s.route == route and s.error is None]
        result[f"route.{route}_ms"] = (statistics.median(values)
                                       if values else 0.0)
    return result


# -- per-layer table -------------------------------------------------------------

def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(traces: list[dict], samples, span_cost_s: float,
                  bytes_written_per_event: float) -> dict:
    """The per-layer table from the traced run's spans and counters.

    ``traces`` holds one snapshot per serving process.  Times are the
    mean per call of the named span (self time where the layer has
    traced callees, wall time otherwise); the serving figures are per
    request.  Set-up spans count only for the once-per-revision layers
    (shard open, materialization).
    """
    rows: dict[str, list[tuple[float, float]]] = {}
    setup_rows: dict[str, list[float]] = {}
    requests = 0
    spans_total = 0
    fsyncs_in_append = 0
    counters = {"response_cache": {}, "query_cache": {}, "executor": {},
                "store": {}}
    for trace in traces:
        spans = [tuple(span) for span in trace["spans"]]
        spans_total += len(spans)
        for name, wall, own in self_times(spans):
            rows.setdefault(name, []).append((wall, own))
        for name, wall, _own in self_times(
                [tuple(span) for span in trace["setup_spans"]]):
            setup_rows.setdefault(name, []).append(wall)
        requests += sum(1 for span in spans
                        if span[2] == "serving.middleware")
        root = roots_of(spans)
        names = {span[0]: span[2] for span in spans}
        fsyncs_in_append += sum(
            1 for span in spans
            if span[2] == "os.fsync"
            and names.get(root[span[0]]) == "shard.append")
        for group, values in trace["counters"].items():
            for key, value in values.items():
                counters[group][key] = counters[group].get(key, 0) + value

    def wall(name):
        return _mean([w for w, _own in rows.get(name, [])])

    def own(name):
        return _mean([o for _w, o in rows.get(name, [])])

    def calls(name):
        return len(rows.get(name, []))

    def once(name):  # set-up and measured calls together
        values = setup_rows.get(name, []) + [w for w, _o in rows.get(name, [])]
        return _mean(values)

    response_cache = counters["response_cache"]
    query_cache = counters["query_cache"]
    executor = counters["executor"]
    store = counters["store"]
    appends = calls("shard.append")
    metrics = {
        "serving.middleware_self_ms": own("serving.middleware"),
        "serving.gzip_ms": _ratio(sum(w for w, _o in
                                      rows.get("serving.gzip", [])),
                                  requests),
        "serving.response_cache_hit_rate": _ratio(
            response_cache.get("hits", 0),
            response_cache.get("hits", 0) + response_cache.get("misses", 0)),
        "query.parse_calls_per_request": _ratio(calls("query.parse"),
                                                requests),
        "query.plan_calls_per_request": _ratio(calls("query.plan"),
                                               requests),
        "query.parse_ms": own("query.parse"),
        "query.plan_ms": own("query.plan"),
        "query.analyze_ms": own("query.analyze"),
        "query.select_ms": own("query.select"),
        "query.cache_hit_rate": _ratio(
            query_cache.get("hits", 0),
            query_cache.get("hits", 0) + query_cache.get("misses", 0)),
        "shard.scatter_ms": wall("shard.scatter"),
        "shard.shards_scanned_per_query": _ratio(
            executor.get("shards_scanned", 0),
            executor.get("queries", 0) + executor.get("sketch_queries", 0)),
        "shard.materialize_ms": once("shard.materialize"),
        "shard.row_materializations": float(
            len(setup_rows.get("shard.materialize", []))
            + calls("shard.materialize")),
        "shard.open_ms": once("shard.open"),
        "shard.refresh_ms": wall("shard.refresh"),
        "shard.append_ms": wall("shard.append"),
        "shard.fsyncs_per_append": _ratio(fsyncs_in_append, appends),
        "shard.bytes_written_per_event": bytes_written_per_event,
        "shard.compact_ms": wall("shard.compact"),
        "cohort.summarize_ms": own("cohort.summarize"),
        "events.mask_patients_ms": wall("events.mask_patients"),
        "sketch.fold_ms": wall("sketch.fold"),
        "sketch.delta_resketches": float(
            store.get("sketch_delta_resketches", 0)),
        "viz.timeline_ms": wall("viz.timeline"),
        "viz.density_ms": wall("viz.density"),
        "viz.flow_ms": wall("viz.flow"),
        "viz.patient_html_ms": wall("viz.patient_html"),
        "viz.svg_kb_per_timeline": _mean(
            [s.plain_bytes / 1024.0 for s in samples
             if s.route == "timeline" and s.status == 200]),
    }
    metrics.update(route_medians(samples))
    spans_per_request = _ratio(spans_total, requests or len(samples))
    metrics["trace.spans_per_request"] = spans_per_request
    metrics["trace.overhead_per_request_ms"] = (
        spans_per_request * span_cost_s * 1e3)
    return metrics


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:14.4f} {units.get(name, '')}")
