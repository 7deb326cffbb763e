"""The fault-injection rig, and the dispatcher behaviour it certifies.

Unit tests pin the rig's own semantics (seeded determinism, worker /
generation targeting, fire-once, defer bookkeeping) without spawning
processes; the end-to-end classes then drive a real 2-worker pool
through every injected failure mode and assert the hardened dispatch
contract: poison queries degrade per-query with zero restarts, a crash
costs at most one chunk of rework, a hung worker is replaced after the
deadline ping goes unanswered, a lost result is recovered by re-send
(not restart), stale-epoch results from an aborted run are fenced out
of the next one, and every raise path leaves the pool consistent.

Set ``DSO_SERVING_START_METHOD=spawn`` (or ``fork``) to pin the
multiprocessing start method — CI runs this file under both.
"""

from __future__ import annotations

import math
import multiprocessing
import os

import pytest

from repro.oracle.diso import DISO
from repro.oracle.maintenance import OracleMaintainer
from repro.oracle.snapshot import save_snapshot
from repro.serving import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    QueryService,
)
from repro.workload.queries import generate_queries
from util import random_graph

START_METHOD = os.environ.get("DSO_SERVING_START_METHOD") or None

CHUNK = 4


def make_service(path, **kwargs) -> QueryService:
    """A QueryService honouring the CI start-method override."""
    kwargs.setdefault("start_method", START_METHOD)
    kwargs.setdefault("chunk_size", CHUNK)
    return QueryService(path, **kwargs)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One frozen DISO, its snapshot on disk, and a query batch."""
    graph = random_graph(17, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    batch = generate_queries(graph, 16, f_gen=2, p=0.01, seed=9)
    expected = [frozen.query(q.source, q.target, q.failed) for q in batch]
    path = save_snapshot(
        frozen, tmp_path_factory.mktemp("faults") / "o.dsosnap"
    )
    return graph, frozen, path, batch, expected


def fresh_batch(served, seed: int, count: int = 12):
    """A new batch plus its expected answers (distinct per seed)."""
    graph, frozen, _, _, _ = served
    batch = generate_queries(graph, count, f_gen=2, p=0.01, seed=seed)
    expected = [frozen.query(q.source, q.target, q.failed) for q in batch]
    return batch, expected


class _RecordingConn:
    """Stands in for the worker's pipe end in injector unit tests."""

    def __init__(self) -> None:
        self.sent: list[tuple] = []

    def send(self, message) -> None:
        self.sent.append(message)


class TestFaultPlan:
    def test_from_seed_is_deterministic(self):
        first = FaultPlan.from_seed(5)
        again = FaultPlan.from_seed(5)
        assert first == again
        assert FaultPlan.from_seed(6) != first
        for spec in first.specs:
            assert 1 <= spec.at <= 8
            assert spec.worker in (0, 1)

    def test_single_and_truthiness(self):
        assert not FaultPlan()
        plan = FaultPlan.single("crash", at=2, worker=1)
        assert plan
        assert plan.specs == (FaultSpec("crash", at=2, worker=1),)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("melt")

    def test_rejects_non_positive_at(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("crash", at=0)


class TestFaultInjector:
    def test_targets_worker_and_generation(self):
        plan = FaultPlan.single("raise", at=1, worker=1, generation=0)
        assert FaultInjector(plan, worker_id=0).specs == []
        assert FaultInjector(plan, worker_id=1, generation=1).specs == []
        armed = FaultInjector(plan, worker_id=1, generation=0)
        assert len(armed.specs) == 1

    def test_raise_fires_exactly_once(self):
        plan = FaultPlan.single("raise", at=2, worker=None)
        injector = FaultInjector(plan, worker_id=0)
        injector.before_query()  # query 1: clean
        with pytest.raises(InjectedFault):
            injector.before_query()  # query 2: fires
        injector.before_query()  # query 2 re-run: disarmed

    def test_drop_result_swallows_one_reply(self):
        plan = FaultPlan.single("drop_result", at=1, worker=0)
        injector = FaultInjector(plan, worker_id=0)
        conn = _RecordingConn()
        injector.on_batch(conn, (1, 0))
        assert injector.outgoing_reply((1, 0), ("result", (1, 0))) is None
        injector.on_batch(conn, (1, 1))
        reply = ("result", (1, 1))
        assert injector.outgoing_reply((1, 1), reply) == reply

    def test_defer_result_flushes_on_new_epoch_only(self):
        plan = FaultPlan.single("defer_result", at=1, worker=0)
        injector = FaultInjector(plan, worker_id=0)
        conn = _RecordingConn()
        injector.on_batch(conn, (1, 0))
        stale = ("result", (1, 0))
        assert injector.outgoing_reply((1, 0), stale) is None
        injector.on_batch(conn, (1, 1))  # same epoch: still stashed
        assert conn.sent == []
        injector.on_batch(conn, (2, 0))  # new epoch: flushed ahead
        assert conn.sent == [stale]

    def test_error_reply_substitutes_message(self):
        plan = FaultPlan.single("error_reply", at=1, worker=0)
        injector = FaultInjector(plan, worker_id=0)
        injector.on_batch(_RecordingConn(), (1, 0))
        reply = injector.outgoing_reply((1, 0), ("result", (1, 0)))
        assert reply[0] == "error"
        assert "injected error reply" in reply[2]


class TestCrashFaults:
    def test_crash_on_nth_query_costs_one_chunk_of_rework(self, served):
        _, _, path, batch, expected = served
        plan = FaultPlan.single("crash", at=2, worker=0)
        with make_service(path, workers=2, fault_plan=plan) as service:
            report = service.run(batch)
        assert report.answers == expected
        assert report.error_count == 0
        assert report.restarts == 1
        assert report.per_worker[0].restarts == 1
        # Replacement re-answers only the dead worker's unanswered
        # chunks, and duplicate results are dropped before accounting,
        # so every query is counted exactly once despite the crash.
        assert sum(s.queries for s in report.per_worker) == len(batch)

    def test_crash_never_contaminates_subsequent_epochs(self, served):
        """Property across epochs: after a mid-run crash, later runs
        with different batches return exactly their own answers."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("crash", at=3, worker=1)
        with make_service(path, workers=2, fault_plan=plan) as service:
            first = service.run(batch)
            assert first.answers == expected
            assert first.restarts == 1
            for seed in (31, 32, 33):
                other, other_expected = fresh_batch(served, seed)
                report = service.run(other)
                assert report.answers == other_expected
                assert report.restarts == 0
                assert report.error_count == 0

    def test_replacement_worker_stats_are_accurate(self, served):
        _, _, path, batch, expected = served
        plan = FaultPlan.single("crash", at=2, worker=0)
        service = make_service(path, workers=2, fault_plan=plan)
        try:
            service.start()
            original = service._pool[0]
            original_pid = original.pid
            original_load = original.load_seconds
            report = service.run(batch)
            assert report.answers == expected
            row = report.per_worker[0]
            assert row.restarts == 1
            # The slot's stats follow the replacement, not the corpse.
            assert row.pid == service._pool[0].pid
            assert row.pid != original_pid
            assert row.load_seconds == pytest.approx(
                original_load + service._pool[0].load_seconds
            )
            # _ensure_alive-style replacements also land here:
            assert service.total_restarts == 1
        finally:
            service.stop()


class TestCrashAfterSwap:
    def test_crash_on_first_batch_after_swap_is_replaced(
        self, served, tmp_path
    ):
        """The swapped-in pool carries the fault plan, and a worker it
        loses on its first batch is replaced onto the new snapshot."""
        graph, _, path, batch, _ = served
        oracle = DISO(graph, tau=3)
        OracleMaintainer(oracle).change_weight(
            *sorted(graph.edges())[0][:2], 0.05
        )
        updated = oracle.freeze()
        swapped = save_snapshot(updated, tmp_path / "updated.dsosnap")
        expected = [updated.query(q.source, q.target, q.failed) for q in batch]
        plan = FaultPlan.single("crash", at=1, worker=0)
        with make_service(path, workers=2, fault_plan=plan) as service:
            service.swap_snapshot(swapped)
            report = service.run(batch)
            assert report.answers == expected
            assert report.error_count == 0
            assert report.restarts == 1
            assert service.total_restarts == 1
        assert multiprocessing.active_children() == []


class TestPoisonFaults:
    def test_injected_raise_is_per_query_error_zero_restarts(self, served):
        _, _, path, batch, expected = served
        plan = FaultPlan.single("raise", at=3, worker=1)
        with make_service(path, workers=2, fault_plan=plan) as service:
            report = service.run(batch)
            assert service.total_restarts == 0
        assert report.restarts == 0
        assert report.error_count == 1
        [bad] = report.error_indices
        assert "InjectedFault" in report.errors[bad]
        assert math.isnan(report.answers[bad])
        for position, answer in enumerate(report.answers):
            if position != bad:
                assert answer == expected[position]


class TestDeadlineFaults:
    def test_hang_past_deadline_replaces_the_worker(self, served):
        _, _, path, batch, expected = served
        plan = FaultPlan.single("hang", at=1, worker=0, seconds=60.0)
        with make_service(
            path, workers=2, fault_plan=plan,
            batch_timeout=0.4, ping_timeout=0.4,
        ) as service:
            report = service.run(batch)
        assert report.answers == expected
        assert report.error_count == 0
        assert report.per_worker[0].restarts >= 1

    def test_dropped_result_recovers_by_resend_not_restart(self, served):
        _, _, path, batch, expected = served
        plan = FaultPlan.single("drop_result", at=1, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan,
            batch_timeout=0.4, ping_timeout=5.0,
        ) as service:
            report = service.run(batch)
        assert report.answers == expected
        assert report.restarts == 0
        assert report.error_count == 0


class TestEpochFencing:
    def test_stale_epoch_result_is_dropped(self, served):
        """A result deferred from epoch N and delivered during epoch
        N+1 must be fenced out, not spliced into the new answers."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("defer_result", at=1, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan,
            batch_timeout=0.4, ping_timeout=5.0,
        ) as service:
            first = service.run(batch)
            assert first.answers == expected
            assert first.restarts == 0
            # The worker still holds the stashed epoch-1 reply; it is
            # flushed ahead of the first epoch-2 batch it receives.
            other, other_expected = fresh_batch(served, seed=41)
            second = service.run(other)
        assert second.answers == other_expected
        assert second.error_count == 0

    def test_error_reply_aborts_run_but_pool_stays_usable(self, served):
        """Regression for the two pre-v2 poisoned-pool bugs: a raising
        run used to leave outstanding chunks behind, and the next run's
        fresh batch ids (reset to 0) collided with them."""
        _, _, path, batch, _ = served
        plan = FaultPlan.single("error_reply", at=1, worker=0)
        service = make_service(path, workers=2, fault_plan=plan)
        try:
            with pytest.raises(RuntimeError, match="injected error reply"):
                service.run(batch)
            assert all(not h.outstanding for h in service._pool)
            for seed in (51, 52, 53):
                other, other_expected = fresh_batch(served, seed)
                report = service.run(other)
                assert report.answers == other_expected
                assert report.restarts == 0
                assert report.error_count == 0
        finally:
            service.stop()


class TestCacheUnderFaults:
    """The dispatcher cache must stay honest through injected faults:
    only fence-accepted answers are inserted, and no entry from a
    retired snapshot epoch is ever served."""

    def test_deferred_result_never_pollutes_cache(self, served):
        """defer_result stashes a reply and flushes it during a later
        run; the fence drops it.  Nothing from the stale delivery may
        enter the cache, and every entry must carry the live epoch."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("defer_result", at=1, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan, cache_size=256,
            batch_timeout=0.4, ping_timeout=5.0,
        ) as service:
            first = service.run(batch)
            assert first.answers == expected
            # The stashed epoch-1 reply flushes ahead of this run.
            other, other_expected = fresh_batch(served, seed=61)
            second = service.run(other)
            assert second.answers == other_expected
            assert service._cache.entry_epochs() <= {
                service.snapshot_epoch
            }
            # Warm re-run of both batches: pure cache, same answers.
            warm_first = service.run(batch)
            warm_second = service.run(other)
        assert warm_first.answers == expected
        assert warm_first.cache_hits == len(batch)
        assert warm_second.answers == other_expected
        assert warm_second.cache_hits == len(other)

    def test_aborted_run_then_epoch_retirement_serves_nothing_stale(
        self, served
    ):
        """An error_reply abort raises mid-run; the snapshot epoch is
        then retired.  Every answer cached before the retirement —
        including any from the aborted run — must be refused: the
        post-retirement cache may only ever hold live-epoch entries."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("error_reply", at=1, worker=0)
        service = make_service(
            path, workers=2, fault_plan=plan, cache_size=256
        )
        try:
            with pytest.raises(RuntimeError, match="injected error reply"):
                service.run(batch)
            retired = service.snapshot_epoch
            live = service.retire_snapshot_epoch()
            assert live == retired + 1
            assert len(service._cache) == 0
            report = service.run(batch)
            assert report.answers == expected
            assert report.error_count == 0
            # No pre-retirement epoch survives anywhere in the cache.
            assert service._cache.entry_epochs() == {live}
            warm = service.run(batch)
            assert warm.answers == expected
            assert warm.cache_hits == len(batch)
        finally:
            service.stop()

    def test_crash_with_cache_keeps_parity(self, served):
        """A worker crash mid-run must not leave half-computed or
        duplicate results in the cache: the warm re-run still returns
        the exact expected answers."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("crash", at=2, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan, cache_size=256
        ) as service:
            first = service.run(batch)
            assert first.answers == expected
            assert first.restarts == 1
            warm = service.run(batch)
        assert warm.answers == expected
        assert warm.cache_hits == len(batch)


class TestStartMethodParity:
    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_serves_and_isolates_faults(self, served):
        """The plan must pickle across a spawn boundary and the error
        channel must behave identically to fork (CI's default)."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("raise", at=2, worker=0)
        with QueryService(
            path, workers=2, chunk_size=CHUNK,
            start_method="spawn", fault_plan=plan,
        ) as service:
            report = service.run(batch)
        assert report.restarts == 0
        assert report.error_count == 1
        [bad] = report.error_indices
        for position, answer in enumerate(report.answers):
            if position != bad:
                assert answer == expected[position]

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_epoch_invalidation(self, served):
        """The cache + epoch machinery is dispatcher-side state, but
        this pins that it composes with spawn workers identically to
        fork: deferred stale replies are fenced, retirement empties
        the cache, warm runs hit fully."""
        _, _, path, batch, expected = served
        plan = FaultPlan.single("defer_result", at=1, worker=0)
        with QueryService(
            path, workers=2, chunk_size=CHUNK, cache_size=256,
            start_method="spawn", fault_plan=plan,
            batch_timeout=0.4, ping_timeout=5.0,
        ) as service:
            first = service.run(batch)
            assert first.answers == expected
            live = service.retire_snapshot_epoch()
            assert len(service._cache) == 0
            second = service.run(batch)
            assert second.answers == expected
            assert service._cache.entry_epochs() == {live}
            warm = service.run(batch)
        assert warm.answers == expected
        assert warm.cache_hits == len(batch)
