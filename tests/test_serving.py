"""The process-pool serving plane must agree with in-process queries.

Workers map the snapshot independently, so parity across the pipe —
same answers, same order, for Query objects and plain tuples — is the
core contract.  On top of that: chunk sharding must restore input
order, a crashed worker must be replaced without losing answers, a
and a poison query must come back as a *per-query* error (zero
restarts).  Pools stay at 2 workers and graphs small: this suite runs
on one core in CI.

Set ``DSO_SERVING_START_METHOD=spawn`` (or ``fork``) to pin the
multiprocessing start method — CI runs this file under both.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time

import pytest

from repro.oracle.diso import DISO
from repro.oracle.maintenance import OracleMaintainer
from repro.oracle.parallel import (
    QueryEngine,
    ThroughputReport,
    latency_percentile,
)
from repro.oracle.snapshot import save_snapshot
from repro.serving import QueryService
from repro.serving.service import _WorkerHandle
from repro.serving.sharded import ShardedQueryService
from repro.sharding import build_sharded, save_sharded_snapshot
from repro.workload.queries import generate_queries
from util import random_failures_from, random_graph

START_METHOD = os.environ.get("DSO_SERVING_START_METHOD") or None


def make_service(path, **kwargs) -> QueryService:
    """A QueryService honouring the CI start-method override."""
    kwargs.setdefault("start_method", START_METHOD)
    return QueryService(path, **kwargs)


@pytest.fixture(scope="module")
def served():
    """One frozen DISO, its snapshot on disk, and a generated batch."""
    graph = random_graph(11, n=40, extra=90)
    frozen = DISO(graph, tau=3).freeze()
    batch = generate_queries(graph, 24, f_gen=3, p=0.01, seed=4)
    expected = [frozen.query(q.source, q.target, q.failed) for q in batch]
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = save_snapshot(frozen, Path(tmp) / "o.dsosnap")
        yield graph, frozen, path, batch, expected


class TestQueryService:
    def test_parity_and_order_two_workers(self, served):
        _, _, path, batch, expected = served
        with make_service(path, workers=2) as service:
            report = service.run(batch)
        assert report.answers == expected
        assert report.workers == 2
        assert len(report.latencies) == len(batch)
        assert all(latency >= 0.0 for latency in report.latencies)

    def test_accepts_plain_tuples_and_failure_sets(self, served):
        graph, frozen, path, _, _ = served
        failed = random_failures_from(graph, 5, 3)
        triples = [(0, 9, None), (3, 3, None), (1, 17, tuple(failed))]
        expected = [
            frozen.query(s, t, frozenset(f) if f else None)
            for s, t, f in triples
        ]
        with make_service(path, workers=2) as service:
            assert service.run(triples).answers == expected

    def test_tiny_chunks_exercise_many_batches(self, served):
        _, _, path, batch, expected = served
        with make_service(path, workers=2, chunk_size=1) as service:
            report = service.run(batch)
        assert report.answers == expected
        assert sum(s.batches for s in report.per_worker) == len(batch)
        # Round-robin dealing touches both workers.
        assert all(s.queries > 0 for s in report.per_worker)

    def test_empty_batch(self, served):
        _, _, path, _, _ = served
        with make_service(path, workers=2) as service:
            report = service.run([])
        assert report.answers == []
        assert report.queries_per_second == pytest.approx(0.0)

    def test_crashed_worker_is_replaced(self, served):
        _, _, path, batch, expected = served
        with make_service(path, workers=2) as service:
            first = service.run(batch)
            assert first.answers == expected
            victim = service._pool[0].process
            service.inject_crash(0)
            for _ in range(200):
                if not victim.is_alive():
                    break
                time.sleep(0.05)
            assert not victim.is_alive()
            report = service.run(batch)
        assert report.answers == expected

    def test_crash_mid_run_resends_outstanding_chunks(self, served):
        _, _, path, batch, expected = served
        with make_service(path, workers=2) as service:
            # The crash message is queued ahead of this run's chunks;
            # depending on timing the worker dies either just before the
            # run (replaced by the idle liveness check) or mid-run while
            # holding chunks (replaced and its work re-dispatched).
            # Either way the service must replace it and answer fully.
            service.inject_crash(1)
            report = service.run(batch)
            assert service.total_restarts >= 1
        assert report.answers == expected

    def test_missing_snapshot_fails_fast(self, tmp_path):
        with pytest.raises(RuntimeError, match="failed to load"):
            make_service(tmp_path / "nope.dsosnap", workers=1).start()

    def test_rejects_bad_worker_count(self, served):
        _, _, path, _, _ = served
        with pytest.raises(ValueError):
            QueryService(path, workers=0)

    def test_report_summary_schema(self, served):
        _, _, path, batch, _ = served
        with make_service(path, workers=1) as service:
            summary = service.run(batch).summary()
        assert set(summary) == {
            "workers", "queries", "qps", "p50_us", "p99_us", "restarts",
            "errors", "result_plane", "dispatch_overhead_us",
            "pipe_bytes_per_batch", "cache_hits", "cache_hit_ratio",
            "precomputed_hits", "shed_rate", "shards", "cross_shard_ratio",
        }
        assert summary["errors"] == 0
        # The unsharded plane reports no shard structure.
        assert summary["shards"] == 0
        assert summary["cross_shard_ratio"] == 0.0
        assert summary["result_plane"] in ("shm", "pipe")
        assert summary["pipe_bytes_per_batch"] > 0
        # Caching and admission are off by default: a plain service
        # reports zeros, not surprises.
        assert summary["cache_hits"] == 0
        assert summary["cache_hit_ratio"] == 0.0
        assert summary["precomputed_hits"] == 0
        assert summary["shed_rate"] == 0.0

    def test_clean_run_reports_no_errors(self, served):
        _, _, path, batch, _ = served
        with make_service(path, workers=2) as service:
            report = service.run(batch)
        assert report.errors == [None] * len(batch)
        assert report.error_count == 0
        assert report.error_indices == []
        assert report.statuses == ["ok"] * len(batch)

    def test_poison_query_is_per_query_error_zero_restarts(self, served):
        """The acceptance bar: one poison query -> exactly one error,
        zero restarts, bitwise-identical answers everywhere else."""
        _, _, path, batch, expected = served
        poisoned = list(batch)
        poisoned.insert(5, (10**9, 0, None))  # node id not in the graph
        with make_service(path, workers=2, chunk_size=3) as service:
            report = service.run(poisoned)
            assert service.total_restarts == 0
        assert report.restarts == 0
        assert report.error_count == 1
        assert report.error_indices == [5]
        assert "QueryError" in report.errors[5]
        assert math.isnan(report.answers[5])
        assert report.statuses[5] == "error"
        clean = [a for i, a in enumerate(report.answers) if i != 5]
        assert clean == expected


def corrupt_copy(source, target):
    """Copy a snapshot with one payload byte flipped (CRC mismatch)."""
    raw = bytearray(source.read_bytes())
    raw[-3] ^= 0xFF
    target.write_bytes(bytes(raw))
    return target


def record_live_workers_at_ready(monkeypatch) -> list[int]:
    """Count live worker processes each time a worker is waited on."""
    seen: list[int] = []
    await_ready = QueryService._await_ready

    def recording(service, handle: _WorkerHandle) -> _WorkerHandle:
        seen.append(len(multiprocessing.active_children()))
        return await_ready(service, handle)

    monkeypatch.setattr(QueryService, "_await_ready", recording)
    return seen


class TestPoolLifecycle:
    """Concurrent start, and what a failed start or swap leaves behind."""

    def test_start_launches_every_worker_before_waiting(
        self, served, monkeypatch
    ):
        _, _, path, batch, expected = served
        seen = record_live_workers_at_ready(monkeypatch)
        with make_service(path, workers=3) as service:
            assert seen[0] == 3
            assert service.run(batch).answers == expected

    def test_corrupt_snapshot_start_leaves_no_process(self, served, tmp_path):
        _, _, path, _, _ = served
        bad = corrupt_copy(path, tmp_path / "bad.dsosnap")
        service = make_service(bad, workers=3)
        with pytest.raises(RuntimeError, match="failed to load"):
            service.start()
        assert multiprocessing.active_children() == []
        assert service._pool == [] and not service._started

    def test_swap_to_corrupt_file_then_to_good_file(self, tmp_path):
        graph = random_graph(11, n=40, extra=90)
        oracle = DISO(graph, tau=3)
        first = save_snapshot(oracle.freeze(), tmp_path / "first.dsosnap")
        maintainer = OracleMaintainer(oracle)
        for tail, head, _ in sorted(graph.edges())[:6]:
            maintainer.delete_edge(tail, head)
        updated = oracle.freeze()
        second = save_snapshot(updated, tmp_path / "second.dsosnap")
        bad = corrupt_copy(second, tmp_path / "bad.dsosnap")
        batch = generate_queries(graph, 16, f_gen=2, p=0.01, seed=8)
        expected = [updated.query(q.source, q.target, q.failed) for q in batch]
        with make_service(first, workers=2, cache_size=64) as service:
            before = service.run(batch).answers
            assert before != expected  # the swap must be visible
            with pytest.raises(RuntimeError, match="failed to load"):
                service.swap_snapshot(bad)
            assert multiprocessing.active_children() == []
            service.swap_snapshot(second)
            report = service.run(batch)
            assert report.answers == expected
            assert report.cache_hits == 0
        assert multiprocessing.active_children() == []


class TestShardedPoolLifecycle:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        graph = random_graph(5, n=30, extra=60)
        build = build_sharded(graph, 2, seed=1)
        return save_sharded_snapshot(
            build, tmp_path_factory.mktemp("sharded") / "snap"
        )

    def test_start_launches_every_shard_before_waiting(
        self, sharded, monkeypatch
    ):
        seen = record_live_workers_at_ready(monkeypatch)
        service = ShardedQueryService(
            sharded, workers_per_shard=2, start_method=START_METHOD
        )
        with service:
            assert seen[0] == 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("shard", [0, 1])
    def test_one_corrupt_shard_leaves_no_process(
        self, sharded, tmp_path, shard
    ):
        import shutil

        target = tmp_path / "snap"
        shutil.copytree(sharded, target)
        shard_file = target / f"shard-{shard:04d}.dsosnap"
        corrupt_copy(shard_file, shard_file)
        service = ShardedQueryService(
            target, workers_per_shard=2, start_method=START_METHOD
        )
        try:
            with pytest.raises(RuntimeError, match="failed to load"):
                service.start()
            assert multiprocessing.active_children() == []
            assert not any(pool._started for pool in service._services)
        finally:
            service.stop()

    def test_failed_reach_build_leaves_no_process(self, sharded, monkeypatch):
        """The dispatcher reads the shard CSRs after the pools are up; a
        failure there must stop them again, since ``__exit__`` never
        runs when ``__enter__`` raises."""
        import repro.serving.sharded as sharded_module

        def broken_reach(path, borders, verify=True):
            raise KeyError(borders[0])

        monkeypatch.setattr(sharded_module, "load_shard_reach", broken_reach)
        service = ShardedQueryService(
            sharded, workers_per_shard=2, start_method=START_METHOD
        )
        with pytest.raises(KeyError):
            with service:
                pass  # pragma: no cover - __enter__ raises
        assert multiprocessing.active_children() == []
        assert not any(pool._started for pool in service._services)
        assert service._reach is None


class TestThroughputPercentiles:
    def test_latency_percentile_nearest_rank(self):
        samples = [0.004, 0.001, 0.002, 0.003]
        assert latency_percentile(samples, 0.50) == 0.002
        assert latency_percentile(samples, 0.99) == 0.004
        assert latency_percentile([], 0.99) == 0.0
        assert latency_percentile([7.0], 0.50) == 7.0

    def test_report_properties(self):
        report = ThroughputReport(
            answers=[1.0, 2.0, 3.0],
            wall_seconds=0.5,
            threads=2,
            latencies=[0.010, 0.030, 0.020],
        )
        assert report.queries_per_second == pytest.approx(6.0)
        assert report.p50_seconds == pytest.approx(0.020)
        assert report.p99_seconds == pytest.approx(0.030)

    def test_thread_and_sequential_runs_record_latencies(self):
        graph = random_graph(13)
        engine = QueryEngine(DISO(graph, tau=3), threads=2)
        batch = generate_queries(graph, 6, f_gen=2, p=0.01, seed=1)
        threaded = engine.run(batch)
        sequential = engine.run_sequential(batch)
        assert threaded.answers == sequential.answers
        assert len(threaded.latencies) == len(batch)
        assert len(sequential.latencies) == len(batch)
        assert sequential.p99_seconds >= sequential.p50_seconds > 0.0
