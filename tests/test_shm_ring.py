"""Lifecycle and integrity of the shared-memory result plane.

The ring (DESIGN.md §11) carries every answer of a pool, so its stamp
protocol must reject anything half-written or stale, the pipe fallback
(no ring could be created) must produce the same answers, errors and
cache counters, and — the non-negotiable — exactly one segment per
pool may exist while it runs and none may outlive ``stop()``, whether
runs ended cleanly, with an injected crash, a hang-and-replace or an
abort.  Steady-state runs make no ring calls at all; the ring is made
only at start, on growth and after an abort.  The leak scans key on
:data:`repro.serving.ring.NAME_PREFIX`; every segment this module ever
creates is accounted for against a baseline snapshot, so the tests
stay correct even when run in parallel with themselves.

Set ``DSO_SERVING_START_METHOD=spawn`` (or ``fork``) to pin the
multiprocessing start method — CI runs this file under both.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import re
import time
from array import array
from pathlib import Path

import pytest

from repro.oracle.diso import DISO
from repro.oracle.snapshot import save_snapshot
from repro.serving import FaultPlan, FaultSpec, QueryService
from repro.serving import service as service_module
from repro.serving.cache import canonical_query_key
from repro.serving.ring import HEADER_FLOATS, NAME_PREFIX, ResultRing
from repro.serving.worker import worker_main
from repro.workload.queries import generate_queries, generate_zipf_queries
from util import random_graph

START_METHOD = os.environ.get("DSO_SERVING_START_METHOD") or None

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="no /dev/shm: POSIX shared memory not observable",
)


def ring_segments() -> set[str]:
    """Names of every live ring segment on this box."""
    return {
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith(NAME_PREFIX)
    }


def own_ring_segments() -> set[str]:
    """Live ring segments created by this process's dispatchers.

    Ring names embed the creating pid, so this scan ignores rings that
    a concurrent run elsewhere on the box owns.
    """
    own = f"{NAME_PREFIX}{os.getpid()}-"
    return {name for name in ring_segments() if name.startswith(own)}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave ``/dev/shm`` exactly as it found it."""
    before = ring_segments()
    yield
    # Replacement-worker teardown can lag a beat behind run();
    # segments are unlinked by the dispatcher so any residue is a bug,
    # but give the kernel a moment before declaring one.
    for _ in range(40):
        leaked = ring_segments() - before
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def make_service(path, **kwargs) -> QueryService:
    kwargs.setdefault("start_method", START_METHOD)
    return QueryService(path, **kwargs)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    graph = random_graph(23, n=36, extra=80)
    frozen = DISO(graph, tau=3).freeze()
    batch = generate_queries(graph, 20, f_gen=2, p=0.01, seed=6)
    expected = [frozen.query(q.source, q.target, q.failed) for q in batch]
    path = save_snapshot(
        frozen, tmp_path_factory.mktemp("ring") / "o.dsosnap"
    )
    return path, batch, expected


class TestRingProtocol:
    def test_roundtrip_preserves_floats_and_nan(self):
        ring = ResultRing.create(slots=3, capacity=4)
        try:
            answers = [1.5, float("nan"), float("inf")]
            latencies = [0.25, 0.5, 0.75]
            ring.write(1, epoch=2, seq=1, answers=answers,
                       latencies=latencies, busy_seconds=0.125)
            got = ring.read(1, epoch=2, seq=1, count=3)
            assert got is not None
            got_answers, got_latencies, busy = got
            assert got_answers[0] == 1.5 and math.isnan(got_answers[1])
            assert got_answers[2] == float("inf")
            assert got_latencies == latencies
            assert busy == 0.125
        finally:
            ring.destroy()

    def test_unwritten_and_mismatched_stamps_read_none(self):
        ring = ResultRing.create(slots=2, capacity=3)
        try:
            assert ring.read(0, epoch=1, seq=0, count=2) is None
            ring.write(0, epoch=1, seq=0, answers=[1.0, 2.0],
                       latencies=[0.0, 0.0], busy_seconds=0.0)
            assert ring.read(0, epoch=1, seq=0, count=2) is not None
            # Any stale coordinate rejects: epoch, seq, or count.
            assert ring.read(0, epoch=2, seq=0, count=2) is None
            assert ring.read(0, epoch=1, seq=1, count=2) is None
            assert ring.read(0, epoch=1, seq=0, count=3) is None
        finally:
            ring.destroy()

    def test_read_into_lands_payload_at_offset(self):
        ring = ResultRing.create(slots=2, capacity=3)
        try:
            ring.write(1, epoch=4, seq=1, answers=[7.0, float("nan")],
                       latencies=[0.1, 0.2], busy_seconds=1.5)
            answers = array("d", [0.0]) * 6
            latencies = array("d", [0.0]) * 6
            busy = ring.read_into(
                1, 4, 1, 2, memoryview(answers), memoryview(latencies), 3
            )
            assert busy == 1.5
            assert answers[3] == 7.0 and math.isnan(answers[4])
            assert list(latencies[3:5]) == [0.1, 0.2]
            assert list(answers[:3]) == [0.0] * 3  # untouched
            stale = ring.read_into(
                1, 5, 1, 2, memoryview(answers), memoryview(latencies), 0
            )
            assert stale is None
        finally:
            ring.destroy()

    def test_attach_sees_owner_writes(self):
        ring = ResultRing.create(slots=1, capacity=2)
        try:
            other = ResultRing.attach(ring.spec())
            ring.write(0, epoch=1, seq=0, answers=[3.0],
                       latencies=[0.5], busy_seconds=0.0)
            got = other.read(0, epoch=1, seq=0, count=1)
            assert got is not None and got[0] == [3.0]
            other.close()
            other.close()  # idempotent
            # The attached close must not have unlinked the segment.
            assert ring.name in ring_segments()
        finally:
            ring.destroy()
            ring.destroy()  # idempotent
        assert ring.name not in ring_segments()

    def test_write_overflow_and_bad_slot_raise(self):
        ring = ResultRing.create(slots=1, capacity=2)
        try:
            with pytest.raises(ValueError, match="exceeds slot capacity"):
                ring.write(0, 1, 0, [1.0, 2.0, 3.0], [0.0] * 3, 0.0)
            with pytest.raises(IndexError):
                ring.read(5, 1, 0, 1)
        finally:
            ring.destroy()

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ResultRing.create(slots=0, capacity=4)
        with pytest.raises(ValueError):
            ResultRing.create(slots=4, capacity=0)

    def test_fresh_ring_is_zero_filled(self):
        ring = ResultRing.create(slots=2, capacity=2)
        try:
            lanes = 2 * (HEADER_FLOATS + 2 * 2)
            assert ring._view[:lanes].tolist() == [0.0] * lanes
        finally:
            ring.destroy()


def _no_ring(*args, **kwargs):
    raise OSError("no usable shared memory")


class TestServicePlanes:
    """Where no ring can be created, the run falls back to the pipe."""

    def test_both_planes_identical_reports(self, served, monkeypatch, caplog):
        path, batch, expected = served
        # A poison query mid-batch: the NaN sentinel and the error
        # message must survive both result channels identically.
        poisoned = list(batch[:10]) + [(0, 10**9, None)] + list(batch[10:])
        with make_service(path, workers=2) as svc:
            shm = svc.run(poisoned)
        monkeypatch.setattr(ResultRing, "create", _no_ring)
        with caplog.at_level("WARNING", logger="repro.serving.service"):
            with make_service(path, workers=2) as svc:
                pipe = svc.run(poisoned)
        assert shm.result_plane == "shm" and pipe.result_plane == "pipe"
        warnings = [
            record for record in caplog.records
            if record.name == "repro.serving.service"
        ]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert "no usable shared memory" in warnings[0].getMessage()
        assert len(shm.answers) == len(poisoned)
        for a, b in zip(shm.answers, pipe.answers):
            assert a == b or (math.isnan(a) and math.isnan(b))
        assert shm.answers[:10] == expected[:10]
        assert math.isnan(shm.answers[10])
        assert shm.errors == pipe.errors
        assert shm.error_indices == [10]
        # The whole point of the ring: answers never cross the pipe.
        assert shm.pipe_bytes < pipe.pipe_bytes

    def test_fallback_replaces_crashed_worker(self, served, monkeypatch):
        path, batch, expected = served
        monkeypatch.setattr(ResultRing, "create", _no_ring)
        plan = FaultPlan.single("crash", at=2, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan, chunk_size=4
        ) as svc:
            report = svc.run(batch)
            assert own_ring_segments() == set()
        assert report.result_plane == "pipe"
        assert report.answers == expected
        assert report.restarts == 1


class TestNoLeaks:
    """The autouse fixture asserts the scan; these drive the paths."""

    def test_normal_runs_leave_nothing(self, served):
        path, batch, expected = served
        with make_service(path, workers=2) as svc:
            # One pool-lifetime ring: exactly one own segment while the
            # service is live, the same one across runs once grown.
            assert len(own_ring_segments()) == 1
            assert svc.run(batch).answers == expected
            live = own_ring_segments()
            assert len(live) == 1
            for _ in range(3):
                assert svc.run(batch).answers == expected
                assert own_ring_segments() == live
        assert own_ring_segments() == set()

    def test_injected_crash_leaves_nothing(self, served):
        path, batch, expected = served
        plan = FaultPlan.single("crash", at=2, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan, chunk_size=4
        ) as svc:
            report = svc.run(batch)
        assert report.answers == expected
        assert report.restarts == 1

    def test_hang_and_replace_leaves_nothing(self, served):
        path, batch, expected = served
        plan = FaultPlan.single("hang", at=1, worker=0, seconds=60.0)
        with make_service(
            path, workers=2, fault_plan=plan, chunk_size=4,
            batch_timeout=0.4, ping_timeout=0.4,
        ) as svc:
            report = svc.run(batch)
        assert report.answers == expected
        assert report.restarts >= 1

    def test_aborted_run_unlinks_ring(self, served):
        path, batch, expected = served
        plan = FaultPlan.single("error_reply", at=2, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan, chunk_size=4
        ) as svc:
            # One chunk, worker 0's first batch: grows the ring to fit.
            assert svc.run(batch[:4]).answers == expected[:4]
            before = own_ring_segments()
            with pytest.raises(RuntimeError, match="injected error reply"):
                svc.run(batch)
            # The aborted run's ring is unlinked and a fresh one serves.
            after = own_ring_segments()
            assert len(after) == 1 and not after & before
            assert svc.run(batch).answers == expected
        assert own_ring_segments() == set()

    def test_straggler_write_after_abort_misses_the_next_run(self, served):
        """Worker 1 defers its second chunk's delivery past an abort:
        the late write lands in the retired ring, never in the slot
        the next run's ring holds for that chunk."""
        path, batch, expected = served
        plan = FaultPlan((
            FaultSpec("error_reply", at=1, worker=0),
            FaultSpec("defer_result", at=2, worker=1),
        ))
        with make_service(
            path, workers=2, fault_plan=plan, chunk_size=4
        ) as svc:
            with pytest.raises(RuntimeError, match="injected error reply"):
                svc.run(batch)
            aborted = svc._epoch
            # Two chunks of the same size, so the ring does not grow:
            # worker 1 flushes its deferred write (chunk 3 of the
            # aborted run) before it answers this run's chunk 1, and
            # nothing of this run writes chunk 3's slot.
            assert svc.run(batch[:8]).answers == expected[:8]
            ring = svc._ring
            straggler_slot = svc.workers + 3
            base = straggler_slot * (HEADER_FLOATS + 2 * ring.capacity)
            assert ring._view[base] != float(aborted)
        assert own_ring_segments() == set()

    def test_crash_during_refresh_keeps_one_ring(self, served):
        path, batch, expected = served
        hot = wire(batch[0])
        plan = FaultPlan.single("crash", at=len(batch) - 1, worker=0)
        with make_service(
            path, workers=1, cache_size=64, hot_pairs=1, fault_plan=plan,
        ) as svc:
            for _ in range(8):
                svc._front.hot.observe(canonical_query_key(*hot))
            svc.run(batch[1:])  # the refresh of ``hot`` crashes worker 0
            ring = own_ring_segments()
            assert len(ring) == 1
            report = svc.run([hot])
            assert report.answers == expected[:1]
            assert report.precomputed_hits == 1
            assert svc.total_restarts == 1
            # The replacement mapped the pool's ring; no new one.
            assert own_ring_segments() == ring
        assert own_ring_segments() == set()

    def test_stop_with_a_pending_refresh_unlinks_the_ring(self, served):
        path, batch, _ = served
        hot = wire(batch[0])
        with make_service(
            path, workers=2, cache_size=64, hot_pairs=2
        ) as svc:
            for _ in range(8):
                svc._front.hot.observe(canonical_query_key(*hot))
            svc.run(batch[1:])
            assert svc._refresh is not None
            assert len(own_ring_segments()) == 1
            svc.stop()
            assert own_ring_segments() == set()


def wire(query) -> tuple:
    """A :class:`Query` as a plain ``(s, t, failed)`` triple."""
    return (query.source, query.target, tuple(sorted(query.failed)) or None)


def _counting_worker(counter_dir, *args):
    """``worker_main`` with each ``ResultRing.attach`` logged to a file.

    Module-level so it pickles by reference under spawn, where the
    child imports this module afresh.
    """
    attach = ResultRing.attach.__func__

    def counted(cls, spec):
        name = os.path.join(counter_dir, f"{os.getpid()}.attach")
        with open(name, "a") as out:
            out.write(spec[0] + "\n")
        return attach(cls, spec)

    ResultRing.attach = classmethod(counted)
    worker_main(*args)


def _attach_count(counter_dir) -> int:
    """Attach calls logged by every worker ``_counting_worker`` ran."""
    return sum(
        len(path.read_text().split())
        for path in Path(counter_dir).iterdir()
    )


class TestPoolRing:
    """One ring per pool: made at start, grown, replaced after aborts,
    and otherwise left alone."""

    def test_name_is_stable_across_run_sizes_after_one_grow(self, served):
        path, batch, expected = served
        with make_service(path, workers=2) as svc:
            started = svc._ring.name
            svc.run(batch)  # 20 queries: chunks of 3 outgrow capacity 1
            grown = svc._ring.name
            assert grown != started
            assert own_ring_segments() == {grown}
            for size in (1, 7, 20, 3, 12, 20, 2):
                report = svc.run(batch[:size])
                assert report.answers == expected[:size]
                assert report.result_plane == "shm"
                assert svc._ring.name == grown
                assert own_ring_segments() == {grown}
        assert own_ring_segments() == set()

    def test_a_refresh_larger_than_the_slots_grows_the_ring(self, served):
        path, batch, expected = served
        with make_service(
            path, workers=1, cache_size=64, hot_pairs=2
        ) as svc:
            started = svc._ring.name
            for query in batch[:6]:
                svc._front.hot.observe(canonical_query_key(*wire(query)))
            assert svc.refresh_hot_pairs(limit=6) == 6
            assert svc.precomputed_total == 6
            assert svc._ring.name != started and svc._ring.capacity == 6
            report = svc.run(batch[:6])
            assert report.answers == expected[:6]
            assert report.precomputed_hits == 6
            assert not svc._pool[0].conn.poll(0)
        assert own_ring_segments() == set()

    def test_ring_calls_only_at_start_grow_abort_and_replacement(
        self, served, monkeypatch, tmp_path
    ):
        path, batch, expected = served
        counter_dir = str(tmp_path)
        monkeypatch.setattr(
            service_module, "worker_main",
            functools.partial(_counting_worker, counter_dir),
        )
        creates = []
        create = ResultRing.create.__func__

        def counted_create(cls, slots, capacity):
            creates.append((slots, capacity))
            return create(cls, slots, capacity)

        monkeypatch.setattr(ResultRing, "create", classmethod(counted_create))
        plan = FaultPlan.single("error_reply", at=1, worker=0)
        with make_service(path, workers=2, fault_plan=plan) as svc:
            # start: one ring, mapped by both workers before they are ready
            assert (len(creates), _attach_count(counter_dir)) == (1, 2)
            with pytest.raises(RuntimeError, match="injected error reply"):
                svc.run(batch[:2])
            assert len(creates) == 2  # abort
            assert svc.run(batch[:2]).answers == expected[:2]
            assert _attach_count(counter_dir) == 4
            svc.run(batch)  # grow
            assert (len(creates), _attach_count(counter_dir)) == (3, 6)
            for size in (5, 20, 1, 12, 8, 20, 3):
                assert svc.run(batch[:size]).answers == expected[:size]
            assert (len(creates), _attach_count(counter_dir)) == (3, 6)
            svc.inject_crash(0)
            assert svc.run(batch).answers == expected
            assert svc.total_restarts == 1
            # the replacement maps the ring once, at spawn
            assert (len(creates), _attach_count(counter_dir)) == (3, 7)
            for size in (4, 20, 9):
                assert svc.run(batch[:size]).answers == expected[:size]
            assert (len(creates), _attach_count(counter_dir)) == (3, 7)
        assert len(creates) == 3
        assert own_ring_segments() == set()

    def test_each_ring_creation_logs_one_record(self, served, caplog):
        path, batch, _ = served
        plan = FaultPlan.single("error_reply", at=1, worker=0)
        caplog.set_level(logging.INFO, logger="repro.serving.service")
        svc = make_service(path, workers=2, fault_plan=plan, hot_pairs=2,
                           cache_size=64)
        try:
            svc.start()
            with pytest.raises(RuntimeError, match="injected error reply"):
                svc.run(batch[:2])
            svc.run(batch)
            steady = len(caplog.records)
            for size in (3, 20, 1):
                svc.run(batch[:size])
            assert len(caplog.records) == steady  # nothing per request
            svc.stop()
            svc.start()
        finally:
            svc.stop()
        rings = [
            record for record in caplog.records
            if record.getMessage().startswith("result ring ")
        ]
        assert all(record.levelno == logging.INFO for record in rings)
        pattern = re.compile(
            rf"result ring {NAME_PREFIX}\S+: (\d+) slots x (\d+) answers "
            r"\((\w+)\)"
        )
        parsed = [pattern.fullmatch(r.getMessage()).groups() for r in rings]
        assert [reason for _, _, reason in parsed] == [
            "start", "abort", "grow", "restart",
        ]
        # 2 refresh + 8 run slots; capacity 1 until 20 queries needed 3.
        assert [(int(a), int(b)) for a, b, _ in parsed] == [
            (10, 1), (10, 1), (10, 3), (10, 1),
        ]


class TestRingExactness:
    def test_ring_and_pipe_fallback_agree_on_everything(
        self, tmp_path, monkeypatch
    ):
        """A seeded zipf sequence with hot pairs, LRU evictions and a
        swap: answers, cache counters and the precompute count match
        between the ring and the forced pipe fallback."""
        from repro.graph.digraph import DiGraph

        graph_a = random_graph(23, n=36, extra=80)
        graph_b = DiGraph()
        for tail, head, weight in graph_a.edges():
            graph_b.add_edge(tail, head, weight * 3.0 + 1.0)
        path_a = save_snapshot(DISO(graph_a, tau=3).freeze(), tmp_path / "a")
        path_b = save_snapshot(DISO(graph_b, tau=3).freeze(), tmp_path / "b")
        queries = [
            (query.source, query.target, query.failed)
            for query in generate_zipf_queries(
                graph_a, 240, pool_size=40, variants_per_pair=2, f_gen=1,
                p=0.02, seed=9,
            )
        ]
        batches = [queries[start:start + 4] for start in range(0, 240, 4)]

        def play():
            answers = []
            with make_service(
                path_a, workers=2, cache_size=12, hot_pairs=4
            ) as svc:
                for number, batch in enumerate(batches):
                    if number == len(batches) // 2:
                        svc.swap_snapshot(path_b)
                    report = svc.run(batch)
                    assert report.error_count == 0
                    answers.append([value.hex() for value in report.answers])
                return answers, svc.cache_stats(), svc.precomputed_total

        ring = play()
        monkeypatch.setattr(ResultRing, "create", _no_ring)
        pipe = play()
        assert ring == pipe
        _, stats, precomputed = ring
        assert stats["evictions"] > 0 and stats["stale_drops"] > 0
        assert precomputed > 0

    def test_harvest_wakes_on_an_unstamped_refresh_slot(self, served):
        """A refresh chunk still computing at the harvest is waited for
        through a wake ping, not the batch deadline, and its pong is
        read before the harvest returns."""
        path, batch, expected = served
        hot = wire(batch[0])
        # Worker 0's queries: the run's 19, then the refresh's one.
        plan = FaultPlan.single("hang", at=len(batch), worker=0,
                                seconds=0.3)
        with make_service(
            path, workers=1, cache_size=64, hot_pairs=1, fault_plan=plan,
            batch_timeout=10.0,
        ) as svc:
            for _ in range(8):
                svc._front.hot.observe(canonical_query_key(*hot))
            svc.run(batch[1:])
            tick = time.perf_counter()
            assert svc.precomputed_total == 1
            assert time.perf_counter() - tick < 5.0
            assert not svc._pool[0].conn.poll(0)
            report = svc.run([hot])
            assert report.answers == expected[:1]
            assert report.precomputed_hits == 1
            assert svc.total_restarts == 0

    def test_zero_miss_requests_leave_no_record_in_any_pipe(self, served):
        """300 all-hit requests each deal a refresh; the refresh chunks
        reply through their stamps only, so after a final settle no
        worker pipe holds anything."""
        path, batch, _ = served
        graph = random_graph(23, n=36, extra=80)
        request = [wire(query) for query in batch[:4]]
        keys = {canonical_query_key(*query) for query in request}
        nodes = sorted(graph.nodes())
        hot = [
            (source, target, ())
            for source in nodes
            for target in nodes
            if source != target
            and canonical_query_key(source, target, None) not in keys
        ][:600]
        with make_service(
            path, workers=2, cache_size=1024, hot_pairs=2
        ) as svc:
            svc.run(request)
            for key in hot:
                svc._front.hot.observe(key)
                svc._front.hot.observe(key)
            svc.cache_stats()
            baseline = svc.precomputed_total
            for _ in range(300):
                # An idle gap, as between open-loop requests: the
                # refresh is stamped before the next run harvests it.
                time.sleep(0.002)
                report = svc.run(request)
                assert report.cache_hits == len(request)
            time.sleep(0.002)
            svc.cache_stats()  # the final settle
            assert svc.precomputed_total - baseline == 600
            assert not any(handle.conn.poll(0) for handle in svc._pool)
