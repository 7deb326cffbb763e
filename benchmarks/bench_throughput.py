"""Bench: process-pool serving throughput over a frozen-index snapshot.

Freezes a DISO over the paper's standard road-network scale, saves the
index as a binary snapshot (:mod:`repro.oracle.snapshot`), and measures
aggregate query throughput three ways:

* sequential — the in-memory frozen oracle answering the batch alone
  (the single-core reference);
* ``QueryService`` at 1, 2, and 4 workers — each worker a separate
  process mapping the same snapshot read-only, answers coming back
  through the shared-memory result ring.

Every pool run first asserts exact answer parity with the sequential
baseline.  Each row serves the batch ``ROUNDS`` times through one
service (qps from the best round, dispatch overhead the median across
rounds — a single run's per-batch decode cost is scheduler-noise-bound
on small chunk counts) and records its ``result_plane`` (``"pipe"``
only if the run fell back for lack of shared memory), the
dispatcher-side ``dispatch_overhead_us`` per accepted batch (unpickle
plus ring memcpy plus splice; the OS wait for the pipe is excluded)
and ``pipe_bytes_per_batch`` (the completion records that actually
crossed the pipe).
Results merge into the repo-root ``BENCH_throughput.json``, where
``merge_json`` stamps ``git_rev`` + ``cpu_count`` into every entry
centrally; ``cpu_count`` matters here because process-level speed-up is
physically bounded by the cores actually present — on a single-core
container the 4-worker row documents dispatch overhead, not scaling.

Standalone usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_throughput.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_throughput.py --smoke

``--smoke`` serves a tiny graph with 2 workers only — a CI-sized
end-to-end check of snapshot, worker bootstrap, sharding, and parity
(no files written, no speedup asserted).
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.graph.generators import grid_network, road_network, scale_free_network
from repro.oracle.diso import DISO
from repro.oracle.parallel import latency_percentile
from repro.oracle.snapshot import save_snapshot, snapshot_info
from repro.serving import QueryService, ShardedQueryService
from repro.sharding import (
    FrozenOverlay,
    ShardedOracle,
    build_sharded,
    save_sharded_snapshot,
    sharded_snapshot_info,
    stitch_over_borders,
)
from repro.sharding.oracle import INFINITY
from repro.workload.queries import generate_queries, generate_zipf_queries

from bench_util import THROUGHPUT_JSON, merge_json, write_result

SEED = 7
QUERY_COUNT = 600
WORKER_COUNTS = (1, 2, 4)
#: Serve rounds per row: qps is best-of, dispatch overhead the median.
ROUNDS = 5
#: Dispatcher result-cache capacity for the cached zipf rows.
CACHE_SIZE = 4096
HOT_PAIRS = 32

GRAPH_NAME = "road2k"

#: Shard counts for the sharded-serving comparison.
SHARD_COUNTS = (2, 4)
#: Workers per shard for the sharded rows (total = shards * this).
SHARD_WORKER_COUNTS = (1, 2)

#: Graphs for the zipf-skewed serving comparison (name, builder).
ZIPF_GRAPHS = (
    ("road2k", lambda: road_network(48, 48, seed=SEED)),
    ("scalefree1k5", lambda: scale_free_network(1500, seed=SEED)),
)


def build_graph(smoke: bool):
    if smoke:
        return road_network(8, 8, seed=SEED)
    return road_network(48, 48, seed=SEED)


def sequential_row(oracle, batch) -> dict:
    """Time the in-memory frozen oracle answering the batch alone."""
    latencies = []
    answers = []
    started = time.perf_counter()
    for query in batch:
        tick = time.perf_counter()
        answers.append(oracle.query(query.source, query.target, query.failed))
        latencies.append(time.perf_counter() - tick)
    wall = time.perf_counter() - started
    return {
        "answers": answers,
        "qps": round(len(batch) / wall, 2) if wall > 0 else float("inf"),
        "p50_us": round(1e6 * latency_percentile(latencies, 0.50), 3),
        "p99_us": round(1e6 * latency_percentile(latencies, 0.99), 3),
    }


def run(smoke: bool = False, query_count: int | None = None) -> dict:
    """Snapshot a frozen DISO, serve it at each pool size, return rows."""
    graph = build_graph(smoke)
    count = query_count or (20 if smoke else QUERY_COUNT)
    worker_counts = (2,) if smoke else WORKER_COUNTS

    oracle = DISO(graph, tau=4, theta=1.0).freeze()
    batch = generate_queries(graph, count, f_gen=5, p=0.0005, seed=SEED)

    result: dict = {
        "graph": GRAPH_NAME if not smoke else "road-smoke",
        "oracle": oracle.name,
        "queries": count,
        "cpu_count": os.cpu_count(),
    }
    with tempfile.TemporaryDirectory(prefix="dso-bench-") as tmp:
        path = Path(tmp) / "oracle.dsosnap"
        save_snapshot(oracle, path)
        result["snapshot_bytes"] = snapshot_info(path)["file_bytes"]

        seq = sequential_row(oracle, batch)
        expected = seq.pop("answers")
        result["sequential"] = seq
        print(
            f"{'sequential':>12}: qps {seq['qps']:>9.1f}  "
            f"p50 {seq['p50_us']:>7.1f}us  p99 {seq['p99_us']:>7.1f}us"
        )

        result["workers"] = {}
        rounds = 1 if smoke else ROUNDS
        for workers in worker_counts:
            reports = _serve_rounds(path, batch, expected, workers, rounds)
            best = max(reports, key=lambda r: r.queries_per_second)
            row = best.summary()
            row["rounds"] = rounds
            row["dispatch_overhead_us"] = round(
                statistics.median(r.dispatch_overhead_us for r in reports),
                3,
            )
            row["speedup_vs_sequential"] = round(
                best.queries_per_second / seq["qps"], 3
            )
            result["workers"][f"{workers}w"] = row
            print(
                f"{workers:>4} wkr: qps {row['qps']:>9.1f}  "
                f"p50 {row['p50_us']:>7.1f}us  "
                f"p99 {row['p99_us']:>7.1f}us  "
                f"speedup {row['speedup_vs_sequential']:.2f}x  "
                f"dispatch {row['dispatch_overhead_us']:>7.1f}us  "
                f"pipe {row['pipe_bytes_per_batch']:>8.1f}B/batch  "
                f"errors {row['errors']}  restarts {row['restarts']}"
            )
    return result


def _serve_rounds(path, batch, expected, workers, rounds, **knobs):
    """Serve ``batch`` ``rounds`` times through one service; return
    the reports (parity and zero-errors asserted every round)."""
    reports = []
    with QueryService(path, workers=workers, **knobs) as service:
        for _ in range(rounds):
            report = service.run(batch)
            assert report.answers == expected, (
                f"{workers}-worker answers diverge from sequential "
                f"baseline (knobs {knobs})"
            )
            assert report.error_count == 0, (
                f"{workers}-worker run reported per-query errors on a "
                f"clean workload: {report.error_indices[:5]}"
            )
            reports.append(report)
    return reports


def run_zipf(smoke: bool = False, query_count: int | None = None) -> dict:
    """The skewed-workload serving comparison: cached vs uncached.

    For each graph, serves the same seeded zipf batch (repeated pairs
    with recurring failure variants — the commuter workload of the
    paper's Example 1) through a plain dispatcher and through one with
    the result cache + hot-pair precomputation enabled, at each pool
    size.  Warm rounds answer hot keys from the dispatcher dict, so the
    cached qps measures what workload skew is worth end to end.
    """
    count = query_count or (60 if smoke else QUERY_COUNT)
    worker_counts = (2,) if smoke else WORKER_COUNTS
    rounds = 2 if smoke else ROUNDS
    graphs = (
        (("road-smoke", lambda: road_network(8, 8, seed=SEED)),)
        if smoke
        else ZIPF_GRAPHS
    )

    results: dict = {}
    for name, build in graphs:
        graph = build()
        oracle = DISO(graph, tau=4, theta=1.0).freeze()
        batch = generate_zipf_queries(graph, count, seed=SEED)
        unique = {(q.source, q.target, q.failed) for q in batch}
        result: dict = {
            "graph": name,
            "oracle": oracle.name,
            "workload": "zipf",
            "queries": count,
            "unique_keys": len(unique),
            "cache_size": CACHE_SIZE,
            "hot_pairs": HOT_PAIRS,
            "rounds": rounds,
            "cpu_count": os.cpu_count(),
        }
        with tempfile.TemporaryDirectory(prefix="dso-bench-") as tmp:
            path = Path(tmp) / "oracle.dsosnap"
            save_snapshot(oracle, path)
            seq = sequential_row(oracle, batch)
            expected = seq.pop("answers")
            result["sequential"] = seq
            result["workers"] = {}
            for workers in worker_counts:
                plain = _serve_rounds(
                    path, batch, expected, workers, rounds
                )
                cached = _serve_rounds(
                    path, batch, expected, workers, rounds,
                    cache_size=CACHE_SIZE, hot_pairs=HOT_PAIRS,
                )
                best_plain = max(
                    plain, key=lambda r: r.queries_per_second
                )
                best_cached = max(
                    cached, key=lambda r: r.queries_per_second
                )
                uncached_row = best_plain.summary()
                cached_row = best_cached.summary()
                # The warm ratio is the steady-state number; the cold
                # (first-round) ratio shows what within-batch dedup
                # alone buys before any entry is reused across runs.
                cached_row["cold_hit_ratio"] = round(
                    cached[0].cache_hit_ratio, 3
                )
                cached_row["speedup_vs_uncached"] = round(
                    best_cached.queries_per_second
                    / best_plain.queries_per_second,
                    3,
                )
                result["workers"][f"{workers}w"] = {
                    "uncached": uncached_row,
                    "cached": cached_row,
                }
                print(
                    f"{name:>14} {workers} wkr: "
                    f"uncached {uncached_row['qps']:>9.1f} qps  "
                    f"cached {cached_row['qps']:>11.1f} qps  "
                    f"({cached_row['speedup_vs_uncached']:.2f}x, "
                    f"hit ratio {cached_row['cache_hit_ratio']:.3f}, "
                    f"cold {cached_row['cold_hit_ratio']:.3f})"
                )
        results[name] = result
    return results


def run_sharded(smoke: bool = False, query_count: int | None = None) -> dict:
    """The sharded serving plane: K per-shard pools plus stitching.

    Serves the same batch through :class:`ShardedQueryService` at each
    ``(workers_per_shard, shards)`` combination, asserting *bitwise*
    answer parity with the sequential unsharded oracle every round.
    The graph is a unit-weight grid so float addition is exact and the
    stitched sums cannot drift.  Each row is the best round, including
    ``stitch_us``, ``closure_hits``, and the same-/cross-shard latency
    split from ``summary()``.
    """
    rows_cols = 8 if smoke else 20
    graph = grid_network(rows_cols, rows_cols)
    graph_name = f"grid{rows_cols}x{rows_cols}" + ("-smoke" if smoke else "")
    count = query_count or (20 if smoke else QUERY_COUNT)
    worker_counts = (1,) if smoke else SHARD_WORKER_COUNTS
    shard_counts = (2,) if smoke else SHARD_COUNTS
    rounds = 1 if smoke else ROUNDS

    oracle = DISO(graph, tau=4, theta=1.0).freeze()
    batch = generate_queries(graph, count, f_gen=5, p=0.0005, seed=SEED)
    seq = sequential_row(oracle, batch)
    expected = seq.pop("answers")

    result: dict = {
        "graph": graph_name,
        "oracle": "DISO-SHARD",
        "queries": count,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "sequential": seq,
        "workers": {},
    }
    with tempfile.TemporaryDirectory(prefix="dso-bench-shard-") as tmp:
        for shards in shard_counts:
            build = build_sharded(graph, shards, method="metis", seed=SEED)
            target = save_sharded_snapshot(
                build, Path(tmp) / f"sharded-{shards}"
            )
            info = sharded_snapshot_info(target)
            shard_bytes = info["shard_file_bytes"]
            for workers in worker_counts:
                reports = []
                with ShardedQueryService(
                    target, workers_per_shard=workers
                ) as service:
                    for _ in range(rounds):
                        report = service.run(batch)
                        assert report.answers == expected, (
                            f"{workers}w-{shards}shard answers diverge "
                            f"from the unsharded sequential baseline"
                        )
                        assert report.error_count == 0, (
                            f"{workers}w-{shards}shard run reported "
                            f"per-query errors on a clean workload: "
                            f"{report.error_indices[:5]}"
                        )
                        reports.append(report)
                best = max(reports, key=lambda r: r.queries_per_second)
                row = best.summary()
                row["rounds"] = rounds
                row["shard_loads"] = list(best.shard_loads)
                row["per_shard_bytes"] = shard_bytes
                row["manifest_bytes"] = info["manifest_bytes"]
                row["speedup_vs_sequential"] = round(
                    best.queries_per_second / seq["qps"], 3
                )
                result["workers"][f"{workers}w-{shards}shard"] = row
                print(
                    f"{workers:>2}w x {shards} shards: "
                    f"qps {row['qps']:>9.1f}  "
                    f"p50 {row['p50_us']:>7.1f}us  "
                    f"stitch {row['stitch_us']:>7.1f}us  "
                    f"cross {row['cross_shard_ratio']:.3f}  "
                    f"closure {row['closure_hits']}  "
                    f"loads {row['shard_loads']}  "
                    f"errors {row['errors']}"
                )
    return result


def run_stitch_micro(smoke: bool = False, query_count: int | None = None) -> dict:
    """Dispatcher-side stitch cost: scalar heap walk vs frozen closure.

    Single-process measurement on the paper's road scale at K=4: for a
    batch of failure-free cross-shard queries the border legs are
    precomputed once, then the per-query *stitch* step alone is timed —
    the scalar multi-source Dijkstra over the overlay versus the frozen
    plane's closure fast path (two leg lookups + one matrix min).  This
    isolates exactly the cost the frozen plane removes; worker leg time
    is identical on both planes and excluded.  Answers are checked with
    a 1e-9 relative tolerance (the closure re-associates float sums, so
    bitwise equality is only guaranteed on exact-weight graphs — the
    sharded parity suite covers that side).  The stamped ``cpu_count``
    carries the usual caveat: on a single-core container the absolute
    times are upper bounds, but both planes pay the same core.
    """
    rows_cols = 8 if smoke else 48
    shards = 2 if smoke else 4
    graph = road_network(rows_cols, rows_cols, seed=SEED)
    graph_name = f"road{rows_cols}x{rows_cols}"
    count = query_count or (20 if smoke else 200)

    build = build_sharded(graph, shards, method="metis", seed=SEED)
    oracle = ShardedOracle.from_build(build)
    overlay = oracle.overlay
    frozen = FrozenOverlay.from_overlay(overlay, closure=build.border_closure)
    adjacency = overlay.adjacency(None, None)

    # Failure-free cross-shard queries with both leg sets precomputed.
    batch = generate_queries(
        graph, 4 * count, f_gen=0, p=0.0, seed=SEED
    )
    prepared = []
    for query in batch:
        shard_s = overlay.assignment[query.source]
        shard_t = overlay.assignment[query.target]
        if shard_s == shard_t:
            continue
        oracle_s = oracle.shard_oracles[shard_s]
        oracle_t = oracle.shard_oracles[shard_t]
        sources = [
            (border, oracle_s.query(query.source, border, frozenset()))
            for border in overlay.shard_borders[shard_s]
        ]
        targets = [
            (border, oracle_t.query(border, query.target, frozenset()))
            for border in overlay.shard_borders[shard_t]
        ]
        prepared.append((sources, targets))
        if len(prepared) >= count:
            break

    def timed(stitch_one):
        values = []
        costs = []
        for sources, targets in prepared:
            tick = time.perf_counter()
            values.append(stitch_one(sources, targets))
            costs.append(time.perf_counter() - tick)
        return values, costs

    scalar_values, scalar_costs = timed(
        lambda sources, targets: stitch_over_borders(
            sources,
            {b: v for b, v in targets if v < INFINITY},
            adjacency,
            INFINITY,
        )
    )
    closure_values, closure_costs = timed(
        lambda sources, targets: frozen.closure_answer(
            sources, targets, INFINITY
        )
    )
    import math

    for scalar, closure in zip(scalar_values, closure_values):
        assert (scalar == closure) or math.isclose(
            scalar, closure, rel_tol=1e-9
        ), f"closure stitch diverged: {scalar!r} vs {closure!r}"

    scalar_us = 1e6 * statistics.median(scalar_costs)
    closure_us = 1e6 * statistics.median(closure_costs)
    result = {
        "graph": graph_name,
        "shards": shards,
        "borders": frozen.num_borders,
        "queries": len(prepared),
        "cpu_count": os.cpu_count(),
        "scalar_stitch_us_p50": round(scalar_us, 3),
        "closure_stitch_us_p50": round(closure_us, 3),
        "closure_speedup": round(scalar_us / closure_us, 3)
        if closure_us > 0
        else float("inf"),
        "caveat": (
            "single-process stitch-step-only measurement; worker leg "
            "time identical on both planes and excluded; absolute "
            "times are 1-core-container bound"
        ),
    }
    print(
        f"stitch micro ({graph_name}, {shards} shards, "
        f"{frozen.num_borders} borders): scalar "
        f"{result['scalar_stitch_us_p50']:.1f}us vs closure "
        f"{result['closure_stitch_us_p50']:.1f}us -> "
        f"{result['closure_speedup']:.2f}x"
    )
    return result


def format_stitch_micro(result: dict) -> str:
    return (
        "Frozen-closure stitch vs scalar heap walk "
        "(failure-free cross-shard, stitch step only)\n"
        f"graph={result['graph']}  shards={result['shards']}  "
        f"borders={result['borders']}  queries={result['queries']}  "
        f"cpu_count={result['cpu_count']}\n"
        f"scalar p50 {result['scalar_stitch_us_p50']:.1f}us  "
        f"closure p50 {result['closure_stitch_us_p50']:.1f}us  "
        f"speedup {result['closure_speedup']:.2f}x"
    )


def format_sharded_result(result: dict) -> str:
    lines = [
        "Sharded serving: per-shard pools + border stitching",
        f"graph={result['graph']}  queries={result['queries']}  "
        f"rounds(best-of)={result['rounds']}  "
        f"cpu_count={result['cpu_count']}  "
        f"sequential qps={result['sequential']['qps']:.1f}",
        f"{'backend':>12} {'qps':>10} {'p50 us':>9} "
        f"{'speedup':>8} {'stitch us':>10} "
        f"{'closure':>8} {'cross':>6} {'manifest B':>11}",
    ]
    for backend, row in result["workers"].items():
        lines.append(
            f"{backend:>12} "
            f"{row['qps']:>10.1f} {row['p50_us']:>9.1f} "
            f"{row['speedup_vs_sequential']:>8.2f} "
            f"{row['stitch_us']:>10.1f} "
            f"{row['closure_hits']:>8} "
            f"{row['cross_shard_ratio']:>6.3f} "
            f"{row['manifest_bytes']:>11}"
        )
    return "\n".join(lines)


def format_zipf_result(results: dict) -> str:
    lines = [
        "Zipf-skewed serving: dispatcher cache + hot pairs vs plain",
        f"queries={next(iter(results.values()))['queries']}  "
        f"cache={CACHE_SIZE}  hot_pairs={HOT_PAIRS}  rounds(best-of)="
        f"{next(iter(results.values()))['rounds']}",
        f"{'graph':>14} {'workers':>8} {'uncached qps':>13} "
        f"{'cached qps':>12} {'speedup':>8} {'hit ratio':>10} "
        f"{'cold ratio':>11} {'shed':>5}",
    ]
    for name, result in results.items():
        for backend, row in result["workers"].items():
            cached = row["cached"]
            lines.append(
                f"{name:>14} {backend:>8} "
                f"{row['uncached']['qps']:>13.1f} "
                f"{cached['qps']:>12.1f} "
                f"{cached['speedup_vs_uncached']:>8.2f} "
                f"{cached['cache_hit_ratio']:>10.3f} "
                f"{cached['cold_hit_ratio']:>11.3f} "
                f"{cached['shed_rate']:>5.2f}"
            )
    return "\n".join(lines)


def format_result(result: dict) -> str:
    lines = [
        "Process-pool serving throughput over a frozen-index snapshot",
        f"graph={result['graph']}  oracle={result['oracle']}  "
        f"queries={result['queries']}  cpu_count={result['cpu_count']}  "
        f"snapshot={result['snapshot_bytes']}B",
        f"{'backend':>12} {'qps':>10} {'p50 us':>9} {'p99 us':>9} "
        f"{'speedup':>8} {'dispatch us':>12} {'pipe B/batch':>13}",
        f"{'sequential':>12} {result['sequential']['qps']:>10.1f} "
        f"{result['sequential']['p50_us']:>9.1f} "
        f"{result['sequential']['p99_us']:>9.1f} {'1.00':>8} "
        f"{'-':>12} {'-':>13}",
    ]
    for backend, row in result["workers"].items():
        lines.append(
            f"{backend:>12} {row['qps']:>10.1f} "
            f"{row['p50_us']:>9.1f} {row['p99_us']:>9.1f} "
            f"{row['speedup_vs_sequential']:>8.2f} "
            f"{row['dispatch_overhead_us']:>12.1f} "
            f"{row['pipe_bytes_per_batch']:>13.1f}"
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graph, 2 workers only, no files written",
    )
    parser.add_argument("--queries", type=int, default=None)
    args = parser.parse_args()
    result = run(smoke=args.smoke, query_count=args.queries)
    zipf = run_zipf(smoke=args.smoke, query_count=args.queries)
    sharded = run_sharded(smoke=args.smoke, query_count=args.queries)
    micro = run_stitch_micro(smoke=args.smoke, query_count=args.queries)
    if args.smoke:
        # The smoke contract for the caching plane: a skewed workload
        # must actually hit the cache, with zero errors anywhere.
        for graph_result in zipf.values():
            for row in graph_result["workers"].values():
                assert row["cached"]["cache_hit_ratio"] > 0.0, (
                    "zipf smoke run produced no cache hits"
                )
                assert row["cached"]["errors"] == 0
                assert row["uncached"]["errors"] == 0
        # ... and for the sharded plane: bitwise parity already held
        # inside run_sharded; the routing stats must be sane.
        for row in sharded["workers"].values():
            assert row["shards"] >= 2
            assert 0.0 <= row["cross_shard_ratio"] <= 1.0
            assert row["errors"] == 0
            assert row["stitch_us"] >= 0.0
        assert micro["closure_speedup"] > 0.0
        print(
            "smoke run OK (parity held, zipf hit the cache, "
            "sharded stitching matched the unsharded oracle bitwise)"
        )
        return
    # The failure-free closure fast path must at least halve the median
    # cross-shard stitch cost relative to the scalar heap walk at the
    # paper's road scale.
    assert micro["closure_speedup"] >= 2.0, (
        f"closure fast path only {micro['closure_speedup']:.2f}x "
        f"over the scalar stitcher (need >= 2x)"
    )
    write_result("throughput", format_result(result))
    write_result("throughput_zipf", format_zipf_result(zipf))
    write_result("throughput_sharded", format_sharded_result(sharded))
    write_result("throughput_stitch_micro", format_stitch_micro(micro))
    entries = {f"{result['oracle']}@{result['graph']}": result}
    for name, graph_result in zipf.items():
        entries[f"{graph_result['oracle']}@{name}-zipf"] = graph_result
    entries[f"{sharded['oracle']}@{sharded['graph']}"] = sharded
    entries[f"stitch-micro@{micro['graph']}-{micro['shards']}shard"] = micro
    path = merge_json(entries, THROUGHPUT_JSON)
    print(f"wrote {path}")
    print(format_result(result))
    print(format_zipf_result(zipf))
    print(format_sharded_result(sharded))
    print(format_stitch_micro(micro))


# ----------------------------------------------------------------------
# pytest entry point (small scale; the standalone main is the real run)
# ----------------------------------------------------------------------
def test_throughput_smoke():
    result = run(smoke=True)
    row = result["workers"]["2w"]
    assert row["queries"] == result["queries"]
    assert row["qps"] > 0.0
    assert row["result_plane"] == "shm"
    assert row["pipe_bytes_per_batch"] > 0.0


def test_zipf_cache_smoke():
    results = run_zipf(smoke=True)
    row = results["road-smoke"]["workers"]["2w"]
    # Skewed traffic must hit the dispatcher cache — already in the
    # cold round (within-batch dedup), fully in the warm best round —
    # and caching must never introduce errors or sheds.
    assert row["cached"]["cache_hit_ratio"] > 0.0
    assert row["cached"]["cold_hit_ratio"] > 0.0
    assert row["cached"]["errors"] == 0
    assert row["cached"]["shed_rate"] == 0.0
    assert row["uncached"]["errors"] == 0
    assert row["uncached"]["cache_hits"] == 0


def test_sharded_smoke():
    result = run_sharded(smoke=True)
    row = result["workers"]["1w-2shard"]
    # Parity with the unsharded oracle is asserted inside run_sharded
    # (bitwise — the grid's unit weights make float addition exact);
    # here: the routing stats, per-shard memory, and the stitch stamps
    # must all be present.
    assert row["shards"] == 2
    assert 0.0 <= row["cross_shard_ratio"] <= 1.0
    assert len(row["shard_loads"]) == 2
    assert len(row["per_shard_bytes"]) == 2
    assert all(size > 0 for size in row["per_shard_bytes"].values())
    assert row["manifest_bytes"] > 0
    assert row["errors"] == 0
    assert row["stitch_us"] >= 0.0
    assert isinstance(row["latency_split"], dict)


def test_stitch_micro_smoke():
    result = run_stitch_micro(smoke=True)
    # No speed bar at smoke scale (5-border overlays fit in the scalar
    # walk's noise floor); the answers must agree and the stamps exist.
    assert result["queries"] > 0
    assert result["scalar_stitch_us_p50"] > 0.0
    assert result["closure_stitch_us_p50"] > 0.0
    assert result["closure_speedup"] > 0.0


if __name__ == "__main__":
    main()
