"""Lifecycle and integrity of the shared-memory result plane.

The ring (DESIGN.md §11) carries every answer of a run, so its stamp
protocol must reject anything half-written or stale, the pipe fallback
(no ring could be created) must produce the same answers and errors,
and — the non-negotiable — no ``/dev/shm`` segment may outlive a run,
whether it ended cleanly, with an injected crash, or with a
hang-and-replace.  The leak scans key
on :data:`repro.serving.ring.NAME_PREFIX`; every segment this module
ever creates is accounted for against a baseline snapshot, so the
tests stay correct even when run in parallel with themselves.

Set ``DSO_SERVING_START_METHOD=spawn`` (or ``fork``) to pin the
multiprocessing start method — CI runs this file under both.
"""

from __future__ import annotations

import math
import os
import time
from array import array

import pytest

from repro.oracle.diso import DISO
from repro.oracle.snapshot import save_snapshot
from repro.serving import FaultPlan, QueryService
from repro.serving.ring import HEADER_FLOATS, NAME_PREFIX, ResultRing
from repro.workload.queries import generate_queries
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
            for _ in range(3):
                assert svc.run(batch).answers == expected
                # The per-run ring is destroyed before run() returns.
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
        path, batch, _ = served
        plan = FaultPlan.single("error_reply", at=1, worker=0)
        with make_service(
            path, workers=2, fault_plan=plan, chunk_size=4
        ) as svc:
            with pytest.raises(RuntimeError, match="injected error reply"):
                svc.run(batch)
            assert own_ring_segments() == set()
