"""Per-layer metrics of a traced run: spans plus the program's counters.

Span durations come from ``spans.json`` (see tracing.py), restricted to
the measured window (closed and open loop, after warm-up). Counters are
the server's end-of-run values minus the values at the start of that
window. A latency of a layer the workload never calls is reported as 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from loadgen import latencies, percentile_ms


#: every per-layer metric: name -> unit
METRICS = {
    "net.handler_p50_ms": "ms",
    "net.handler_p99_ms": "ms",
    "net.outside_handler_p50_ms": "ms",
    "net.refused": "count",
    "io.bytes_per_op": "B",
    "serving.get_features_p50_ms": "ms",
    "serving.get_features_p99_ms": "ms",
    "serving.write_features_p50_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.batch_mean_size": "requests",
    "serving.upstream_read_p50_ms": "ms",
    "serving.upstream_read_p99_ms": "ms",
    "serving.upstream_read_calls": "count",
    "serving.degraded": "count",
    "serving.retries": "count",
    "serving.stale_read_share": "ratio",
    "cluster.client_get_p50_ms": "ms",
    "cluster.client_put_p50_ms": "ms",
    "cluster.client_put_p99_ms": "ms",
    "cluster.transport_get_p50_ms": "ms",
    "cluster.transport_put_p50_ms": "ms",
    "cluster.transport_replicate_p50_ms": "ms",
    "cluster.transport_replicate_p99_ms": "ms",
    "cluster.node_put_self_p50_ms": "ms",
    "cluster.node_replicate_p50_ms": "ms",
    "cluster.transport_overhead_replicate_p50_ms": "ms",
    "cluster.ship_per_put": "frames",
    "cluster.ship_failures": "count",
    "cluster.client_retries": "count",
    "bus.append_p50_ms": "ms",
    "bus.append_many_p50_ms": "ms",
    "bus.append_many_records": "records",
    "bus.apply_backlog_records": "records",
    "storage.read_p50_ms": "ms",
    "storage.write_many_rows_per_call": "rows",
    "vecserve.search_p50_ms": "ms",
    "vecserve.search_p99_ms": "ms",
    "vecserve.shard_search_p50_ms": "ms",
    "vecserve.shard_search_p99_ms": "ms",
    "vecserve.partials": "count",
    "vecserve.recall_at_10": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(result: dict, run_dir: Path) -> dict[str, tuple[float, str]]:
    spans_path = next(run_dir.glob("server-*/spans.json"))
    spans = json.loads(spans_path.read_text())
    counters = result["report"]["counters"]
    total = result["total"]
    closed = [rec for rec, __ in result["closed"]]
    windows = [window for __, window in result["closed"]]

    durations: dict[str, list[float]] = {}
    sizes: dict[str, list[int]] = {}
    replicating: dict[int, float] = {}  # span id -> its replicate requests' time
    for __, parent, __, name, start, end, size in spans:
        durations.setdefault(name, []).append(end - start)
        sizes.setdefault(name, []).append(size)
        if name == "transport.replicate" and parent:
            replicating[parent] = replicating.get(parent, 0.0) + (end - start)
    put_self = [
        (end - start) - replicating.get(span_id, 0.0)
        for span_id, __, __, name, start, end, __ in spans
        if name == "node.put"
    ]

    def d(name):
        return durations.get(name, [])

    def c(prefix):
        return sum(v for k, v in counters.items() if k == prefix or k.startswith(prefix + ","))

    client_latencies = [v for rec in closed for v in latencies(rec)]
    client_p50 = percentile_ms(client_latencies, 50)
    handler_p50 = percentile_ms(d("net.handle"), 50)
    requests = c("net_requests_total")
    hits, misses = c("serving_cache_hits_total"), c("serving_cache_misses_total")
    puts = counters.get("node_writes_acked", 0)
    appended = sizes.get("bus.append_many", [])
    written = sizes.get("storage.write_many", [])
    served_s = sum(
        end - start
        for __, __, __, name, start, end, __ in spans
        if name == "net.handle"
        and any(begin <= start <= finish for begin, finish in windows)
    )
    observed_s = sum(client_latencies)
    tput = len(client_latencies) / sum(end - begin for begin, end in windows)
    untraced = result["untraced_tput"]
    values = {
        "net.handler_p50_ms": handler_p50,
        "net.handler_p99_ms": percentile_ms(d("net.handle"), 99),
        "net.outside_handler_p50_ms": client_p50 - handler_p50,
        "net.refused": c("net_responses_total,status=429")
        + c("net_responses_total,status=503"),
        "io.bytes_per_op": _ratio(
            c("io_bytes_read_total") + c("io_bytes_written_total"), requests
        ),
        "serving.get_features_p50_ms": percentile_ms(d("serving.get_features"), 50),
        "serving.get_features_p99_ms": percentile_ms(d("serving.get_features"), 99),
        "serving.write_features_p50_ms": percentile_ms(d("serving.write_features"), 50),
        "serving.cache_hit_ratio": _ratio(hits, hits + misses),
        "serving.batch_mean_size": _ratio(
            counters.get("batched_requests", 0), counters.get("batches", 0)
        ),
        "serving.upstream_read_p50_ms": percentile_ms(d("serving.upstream_read"), 50),
        "serving.upstream_read_p99_ms": percentile_ms(d("serving.upstream_read"), 99),
        "serving.upstream_read_calls": len(d("serving.upstream_read")),
        "serving.degraded": c("serving_degraded_total"),
        "serving.retries": c("serving_retries_total"),
        "serving.stale_read_share": _ratio(result["stale_reads"], len(total.reads)),
        "cluster.client_get_p50_ms": percentile_ms(d("cluster.client_get"), 50),
        "cluster.client_put_p50_ms": percentile_ms(d("cluster.client_put"), 50),
        "cluster.client_put_p99_ms": percentile_ms(d("cluster.client_put"), 99),
        "cluster.transport_get_p50_ms": percentile_ms(d("transport.get"), 50),
        "cluster.transport_put_p50_ms": percentile_ms(d("transport.put"), 50),
        "cluster.transport_replicate_p50_ms": percentile_ms(d("transport.replicate"), 50),
        "cluster.transport_replicate_p99_ms": percentile_ms(d("transport.replicate"), 99),
        "cluster.node_put_self_p50_ms": percentile_ms(put_self, 50),
        "cluster.node_replicate_p50_ms": percentile_ms(d("node.replicate"), 50),
        "cluster.transport_overhead_replicate_p50_ms": (
            percentile_ms(d("transport.replicate"), 50) - percentile_ms(d("node.replicate"), 50)
        ),
        "cluster.ship_per_put": _ratio(counters.get("node_frames_shipped", 0), puts),
        "cluster.ship_failures": counters.get("node_ship_failures", 0),
        "cluster.client_retries": counters.get("client_retries", 0),
        "bus.append_p50_ms": percentile_ms(d("bus.append"), 50),
        "bus.append_many_p50_ms": percentile_ms(d("bus.append_many"), 50),
        "bus.append_many_records": _ratio(sum(appended), len(appended)),
        "bus.apply_backlog_records": result["report"]["max_apply_backlog"],
        "storage.read_p50_ms": percentile_ms(d("storage.read"), 50),
        "storage.write_many_rows_per_call": _ratio(sum(written), len(written)),
        "vecserve.search_p50_ms": percentile_ms(d("vecserve.search"), 50),
        "vecserve.search_p99_ms": percentile_ms(d("vecserve.search"), 99),
        "vecserve.shard_search_p50_ms": percentile_ms(d("vecserve.shard_search"), 50),
        "vecserve.shard_search_p99_ms": percentile_ms(d("vecserve.shard_search"), 99),
        "vecserve.partials": c("vecserve_partials_total"),
        "vecserve.recall_at_10": statistics.fmean(total.recall) if total.recall else 0.0,
        "loadgen.late_p99_ms": percentile_ms([v for rec in result["open"] for v in rec.late], 99),
        "trace.overhead_share": 1.0 - tput / untraced if untraced else 0.0,
        "trace.unattributed_share": 1.0 - _ratio(served_s, observed_s),
    }
    return {name: (float(values[name]), unit) for name, unit in METRICS.items()}
