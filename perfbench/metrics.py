"""End-to-end and per-layer metrics of one finished run.

End-to-end metrics come from untraced runs.  Per-layer metrics come
from the traced run: span times around the public calls into each
layer, plus counts the service reports already carry.  Per-layer times
taken during traffic are summed over the open and closed windows and
divided by the queries answered there (``ms/query``).  Report counts
are taken over the open windows, whose request sequence the seed fixes,
so they repeat exactly from run to run.
"""

from __future__ import annotations

import statistics

from perfbench.tracing import span_cost_ns
from perfbench.workloads import nearest_rank

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "qps": "queries/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "update_ms": "ms",
    "index_bytes": "bytes",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "oracle.build_s": "s",
    "oracle.freeze_s": "s",
    "oracle.save_s": "s",
    "serving.start_s": "s",
    "oracle.snapshot_load_ms": "ms",
    "sharding.build_s": "s",
    "oracle.kernel_us_per_query": "us/query",
    "serving.batch_queries": "queries",
    "serving.worker_util": "fraction",
    "serving.dispatch_us_per_batch": "us/batch",
    "serving.dispatch_self_ms": "ms/query",
    "cache.hit_ratio": "fraction",
    "cache.precomputed_hits": "count",
    "cache.evictions": "count",
    "cache.stale_drops": "count",
    "cache.refresh_ms": "ms/query",
    "serving.swap_ms": "ms",
    "oracle.maintain_ms": "ms",
    "sharding.legs_per_query": "legs/query",
    "sharding.shard_run_ms": "ms/query",
    "sharding.stitch_ms": "ms/query",
    "sharding.closure_hits": "count",
    "sharding.stitch_groups": "count",
    "sharding.plan_self_ms": "ms/query",
    "sharding.load_imbalance": "ratio",
    "trace.overhead_pct": "%",
}

MEASURED = ("open", "closed")
SWAP_SPANS = {
    "QueryService.swap_snapshot",
    "ShardedQueryService.start",
    "ShardedQueryService.stop",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run, outcome: dict) -> dict:
    latencies = run.phases["open"].latencies
    windows = run.phases["closed"].windows
    return {
        "setup_s": _median(run.setup_times),
        "qps": _ratio(
            sum(answered for answered, _, _ in windows),
            sum(seconds for _, seconds, _ in windows),
        ),
        "p50_ms": 1e3 * nearest_rank(latencies, 0.50),
        "p99_ms": 1e3 * nearest_rank(latencies, 0.99),
        "update_ms": 1e3 * _median(run.update_times),
        "index_bytes": outcome["index_bytes"],
        "peak_rss_mb": max(run.memory_samples),
    }


def _worker_totals(reports) -> tuple[float, int, int]:
    stats = [worker for report in reports for worker in report.per_worker]
    return (
        sum(worker.busy_seconds for worker in stats),
        sum(worker.queries for worker in stats),
        sum(report.result_batches for report in reports),
    )


def per_layer(run, outcome: dict) -> dict:
    spans = run.recorder.spans
    kids = run.recorder.children()
    by_id = {span.id: span for span in spans}
    measured = [
        item for name in MEASURED for item in run.phases[name].served
    ]
    reports = [item.report for item in measured]
    queries = sum(len(item.queries) for item in measured)
    open_reports = [item.report for item in run.phases["open"].served]
    open_queries = run.phases["open"].queries

    def setup_median(names: set) -> float:
        return _median(
            sum(child.seconds for child in kids.get(span.id, ()) if child.name in names)
            for span in spans
            if span.name == "setup"
        )

    def update_median(names: set) -> float:
        return 1e3 * _median(
            sum(child.seconds for child in kids.get(span.id, ()) if child.name in names)
            for span in spans
            if span.name == "update"
        )

    def traffic_ms(predicate) -> float:
        return 1e3 * _ratio(
            sum(
                span.seconds for span in spans
                if span.phase in MEASURED and predicate(span)
            ),
            queries,
        )

    def inside_sharded_run(span) -> bool:
        return by_id.get(span.parent) is not None and (
            by_id[span.parent].name == "ShardedQueryService.run"
        )

    metrics = {
        "oracle.build_s": setup_median({"DISO"}),
        "oracle.freeze_s": setup_median({"DISO.freeze"}),
        "oracle.save_s": setup_median({"save_snapshot"}),
        "serving.start_s": setup_median(
            {"QueryService.start", "ShardedQueryService.start"}
        ),
        "oracle.snapshot_load_ms": 1e3 * _median(
            worker.load_seconds for worker in reports[0].per_worker
        ),
        "sharding.build_s": setup_median(
            {"build_sharded", "save_sharded_snapshot"}
        ),
    }
    busy, reached, batches = _worker_totals(reports)
    metrics["oracle.kernel_us_per_query"] = 1e6 * _ratio(busy, reached)
    metrics["serving.batch_queries"] = _ratio(reached, batches)
    metrics["serving.worker_util"] = _ratio(
        busy, sum(report.workers * report.wall_seconds for report in reports)
    )
    metrics["serving.dispatch_us_per_batch"] = 1e6 * _ratio(
        sum(report.dispatch_seconds for report in reports), batches
    )
    metrics["serving.dispatch_self_ms"] = 1e3 * _ratio(
        sum(
            span.seconds - span.args.get("busy_max", 0.0)
            for span in spans
            if span.phase in MEASURED and span.name == "QueryService.run"
        ),
        queries,
    )

    counts = outcome["cache_counts"]
    metrics.update({
        "cache.hit_ratio": _ratio(
            sum(report.cache_hits for report in open_reports), open_queries
        ),
        "cache.precomputed_hits": sum(
            report.precomputed_hits for report in open_reports
        ),
        "cache.evictions": counts.get("evictions", 0),
        "cache.stale_drops": counts.get("stale_drops", 0),
        "cache.refresh_ms": traffic_ms(
            lambda span: span.name == "QueryService.refresh_hot_pairs"
        ),
        "serving.swap_ms": update_median(SWAP_SPANS),
        "oracle.maintain_ms": update_median({"OracleMaintainer.change_weight"}),
    })

    loads = [0] * max((len(report.shard_loads) for report in open_reports), default=0)
    for report in open_reports:
        for shard, load in enumerate(report.shard_loads):
            loads[shard] += load
    inner_ms = traffic_ms(
        lambda span: span.name == "QueryService.run" and inside_sharded_run(span)
    )
    stitch_ms = 1e3 * _ratio(
        sum(report.stitch_seconds for report in reports), queries
    )
    metrics.update({
        "sharding.legs_per_query": _ratio(sum(loads), open_queries),
        "sharding.shard_run_ms": inner_ms,
        "sharding.stitch_ms": stitch_ms,
        "sharding.closure_hits": sum(
            report.closure_hits for report in open_reports
        ),
        "sharding.stitch_groups": sum(
            1 for span in spans
            if span.phase == "open" and span.name == "FrozenOverlay.stitch_batch"
        ),
        "sharding.plan_self_ms": (
            traffic_ms(lambda span: span.name == "ShardedQueryService.run")
            - inner_ms - stitch_ms
            if loads else 0.0
        ),
        "sharding.load_imbalance": _ratio(
            max(loads, default=0), _ratio(sum(loads), len(loads))
        ),
        "trace.overhead_pct": 100.0 * _ratio(
            len(spans) * span_cost_ns() / 1e9, outcome["run_wall"]
        ),
    })
    return {name: metrics[name] for name in PER_LAYER}
