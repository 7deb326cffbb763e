"""The dispatcher: shard query batches across snapshot-mapped workers.

:class:`QueryService` owns a pool of worker processes
(:func:`repro.serving.worker.worker_main`), each of which maps the same
snapshot file read-only.  ``run()`` splits a query batch into
contiguous chunks, deals them round-robin across the pool, and streams
results back over pipes — restoring input order, aggregating per-query
latencies, and keeping per-worker accounting.

Failure semantics (v2, spec in DESIGN.md §8) — an oracle built to keep
answering under edge failures should itself degrade per-query, not
per-run:

* a query that raises inside a worker comes back as a per-query error
  (NaN answer + message in :attr:`ServeReport.errors`) with **zero**
  worker restarts — poison queries cannot start a crash-replace-resend
  loop;
* a worker that dies mid-batch is replaced and its outstanding chunks
  are re-sent to the replacement, so one crash costs one chunk of
  rework, not the run;
* every ``run()`` is fenced by a monotonically increasing *epoch*
  stamped into each batch id; results echoing a stale epoch (a
  previous, possibly aborted, run) are dropped instead of spliced into
  the wrong positions, and outstanding bookkeeping is cleared on every
  raise path so an aborted run never poisons the next one;
* a worker silent past ``batch_timeout`` is pinged: if it answers the
  pong (alive, but a result was lost) its chunks are re-sent; if it
  stays silent past ``ping_timeout`` (hung or wedged) it is replaced.

Result plane (v3, spec in DESIGN.md §11): answers travel through one
:class:`~repro.serving.ring.ResultRing` per pool — a preallocated
``multiprocessing.shared_memory`` float64 ring created in ``start()``
and reused by every run — and the pipe carries only small epoch-tagged
completion records, so the dispatcher stops paying pickle cost
proportional to the answer volume.  Where no usable shared memory
exists the pool falls back to whole answers on the pipe, per pool (ring
creation fails; logged as a warning) or per batch (a worker cannot
attach to or write the ring), without losing answers;
:attr:`ServeReport.result_plane` says which.

Caching and admission (v4, spec in DESIGN.md §12): one
:class:`~repro.serving.cache.BatchFront`, shared with the sharded
service, holds the optional ``cache_size`` result cache keyed on ``(s,
t, canonicalized F)``, the ``hot_pairs`` tracker whose hottest uncached
keys are answered in the idle gap (:meth:`QueryService.refresh_hot_pairs`)
and the ``deadline_ms`` load-shedder.  Cache hits, within-batch
duplicates and sheds never reach a worker; retiring a snapshot
(:meth:`QueryService.swap_snapshot`) invalidates the whole cache by
bumping an integer.  All three are off by default.

Index updates (DESIGN.md §7.4): :meth:`QueryService.swap_snapshot`
diffs the new file against the served one and, when they differ only
in edge weights and per-rank trees and overlay rows, has each live
worker patch its engine in place (a ``"delta"`` message) instead of
restarting the pool.

The dispatcher itself never loads the oracle: the only artifacts it
touches are the snapshot path (a string), the query/answer tuples on
the pipes, the float lanes of the result ring, and the raw sections of
the served and the new snapshot when it diffs them.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import pickle
import time
from array import array
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from collections.abc import Sequence

from repro.exceptions import FormatError
from repro.oracle.parallel import latency_percentile
from repro.oracle.snapshot import SnapshotReader, snapshot_delta
from repro.serving.cache import BatchFront
from repro.serving.ring import ResultRing
from repro.serving.worker import worker_main
from repro.workload.queries import Query

logger = logging.getLogger(__name__)

#: Seconds to wait for a freshly spawned worker to map the snapshot.
_READY_TIMEOUT = 60.0
#: Ceiling on the result-wait poll interval (liveness/deadline checks).
_POLL_SECONDS = 0.5
#: Floor on the poll interval so tiny test timeouts cannot spin-wait.
_MIN_POLL_SECONDS = 0.02
#: Chunks the default chunk size deals each worker per run; a fresh ring
#: has run slots for that many.
_CHUNKS_PER_WORKER = 4


@dataclass
class WorkerStats:
    """Accounting for one worker *slot* across a ``run()`` call.

    A slot survives replacement: when the process crashes mid-run,
    ``pid`` moves to the replacement's pid, ``load_seconds``
    accumulates the replacement's snapshot-load time on top of the
    original's, and ``restarts`` counts the swaps.
    """

    index: int
    pid: int = 0
    queries: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    load_seconds: float = 0.0
    restarts: int = 0


@dataclass
class ServeReport:
    """Aggregate outcome of one ``run()`` of either service."""

    answers: list[float]
    latencies: list[float]
    wall_seconds: float
    workers: int
    per_worker: list[WorkerStats] = field(default_factory=list)
    restarts: int = 0
    #: Per-query error messages, aligned with ``answers``; ``None`` for
    #: a query that succeeded.  An errored query's answer is NaN.
    errors: list[str | None] = field(default_factory=list)
    #: ``"shm"`` when the run had a result ring; ``"pipe"`` when it
    #: fell back to the pipe because no ring could be created.
    result_plane: str = "pipe"
    #: Dispatcher-side seconds spent decoding results per accepted
    #: batch: unpickling the pipe payload plus, on the shm plane, the
    #: stamped memcpy out of the ring (``read_into``); the end-of-run
    #: bulk boxing of the typed buffers is epilogue, not per-batch
    #: work.  The OS wait for the raw bytes is excluded — on a
    #: one-core box it is scheduler noise an order of magnitude above
    #: the plane cost being compared.
    dispatch_seconds: float = 0.0
    #: Result-channel bytes that crossed the pipe (pickled result or
    #: completion messages), summed over accepted batches.
    pipe_bytes: int = 0
    #: Accepted result batches (denominator for the per-batch rates).
    result_batches: int = 0
    #: Queries served without touching a worker: repeats answered from
    #: the dispatcher result cache plus within-batch duplicates fanned
    #: out from a single computation.
    cache_hits: int = 0
    #: The subset of ``cache_hits`` served from entries that were
    #: precomputed by the hot-pair refresh rather than by past queries.
    precomputed_hits: int = 0
    #: Input positions refused by deadline admission control.  A shed
    #: query's answer is NaN, its ``errors`` slot stays ``None`` (a
    #: shed is a dispatcher decision, not a query failure), and its
    #: status reads ``"shed"``.
    shed_indices: list[int] = field(default_factory=list)
    #: Shard count of the serving plane that produced this report; 0
    #: for the unsharded (single-snapshot) service.
    shards: int = 0
    #: Fraction of the batch whose endpoints lived in different shards
    #: (answered by stitching); 0.0 on the unsharded plane.
    cross_shard_ratio: float = 0.0
    #: Per-shard routed load: leg queries dispatched to each shard's
    #: pool (local legs, border legs, and matrix repairs all count).
    #: Empty on the unsharded plane.
    shard_loads: list[int] = field(default_factory=list)
    #: Legs the sharded dispatcher sent this run for border repair
    #: alone: one per border pair a failure set can change, over the
    #: distinct ``(shard, F_k)`` sets the repair memo could not supply,
    #: less the pairs that are also some query's outbound or inbound
    #: leg (already counted in ``shard_loads``).  0 on the unsharded
    #: plane.
    repair_legs: int = 0
    #: Dispatcher-side seconds spent stitching answered legs into final
    #: answers.
    stitch_seconds: float = 0.0
    #: Cross-shard queries answered by the precomputed border closure
    #: (failure-free fast path) instead of an overlay search.
    closure_hits: int = 0
    #: Same-shard vs cross-shard latency split:
    #: ``{"same_shard"|"cross_shard": {count, p50_us, p99_us}}``.
    #: Empty on the unsharded plane.
    latency_split: dict = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        """Aggregate observed throughput."""
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.answers) / self.wall_seconds

    @property
    def p50_seconds(self) -> float:
        """Median per-query latency (inside-worker, excludes transport)."""
        return latency_percentile(self.latencies, 0.50)

    @property
    def p99_seconds(self) -> float:
        """Nearest-rank 99th percentile per-query latency."""
        return latency_percentile(self.latencies, 0.99)

    @property
    def error_count(self) -> int:
        """Number of queries that came back as per-query errors."""
        return sum(1 for message in self.errors if message is not None)

    @property
    def error_indices(self) -> list[int]:
        """Input positions of the errored queries."""
        return [
            position
            for position, message in enumerate(self.errors)
            if message is not None
        ]

    @property
    def statuses(self) -> list[str]:
        """Per-query ``"ok"`` / ``"error"`` / ``"shed"``, aligned with
        ``answers``."""
        shed = set(self.shed_indices)
        return [
            "shed"
            if position in shed
            else ("ok" if message is None else "error")
            for position, message in enumerate(self.errors)
        ]

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of the batch served from the dispatcher cache."""
        if not self.answers:
            return 0.0
        return self.cache_hits / len(self.answers)

    @property
    def shed_count(self) -> int:
        """Number of queries refused by admission control."""
        return len(self.shed_indices)

    @property
    def shed_rate(self) -> float:
        """Fraction of the batch shed by admission control."""
        if not self.answers:
            return 0.0
        return self.shed_count / len(self.answers)

    @property
    def dispatch_overhead_us(self) -> float:
        """Mean dispatcher-side microseconds per accepted result batch."""
        if self.result_batches == 0:
            return 0.0
        return 1e6 * self.dispatch_seconds / self.result_batches

    @property
    def pipe_bytes_per_batch(self) -> float:
        """Mean result-channel pipe bytes per accepted batch."""
        if self.result_batches == 0:
            return 0.0
        return self.pipe_bytes / self.result_batches

    @property
    def stitch_us(self) -> float:
        """Mean dispatcher-side stitch microseconds per query."""
        if not self.answers:
            return 0.0
        return 1e6 * self.stitch_seconds / len(self.answers)

    def summary(self) -> dict:
        """The run's headline numbers as one flat comparison row."""
        row = {
            "workers": self.workers,
            "queries": len(self.answers),
            "qps": round(self.queries_per_second, 2),
            "p50_us": round(1e6 * self.p50_seconds, 3),
            "p99_us": round(1e6 * self.p99_seconds, 3),
            "restarts": self.restarts,
            "errors": self.error_count,
            "result_plane": self.result_plane,
            "dispatch_overhead_us": round(self.dispatch_overhead_us, 3),
            "pipe_bytes_per_batch": round(self.pipe_bytes_per_batch, 1),
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": round(self.cache_hit_ratio, 3),
            "precomputed_hits": self.precomputed_hits,
            "shed_rate": round(self.shed_rate, 3),
            "shards": self.shards,
            "cross_shard_ratio": round(self.cross_shard_ratio, 3),
        }
        if self.shards:
            row["stitch_us"] = round(self.stitch_us, 3)
            row["closure_hits"] = self.closure_hits
            row["repair_legs"] = self.repair_legs
            row["latency_split"] = self.latency_split
        return row


class _WorkerHandle:
    """One live worker process plus its pipe and outstanding chunks."""

    __slots__ = ("index", "process", "conn", "outstanding", "load_seconds",
                 "pid", "last_progress", "ping_sent_at")

    def __init__(self, index, process, conn, load_seconds, pid) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.load_seconds = load_seconds
        self.pid = pid
        #: ``{(epoch, seq): (start, queries)}`` sent but not yet answered.
        self.outstanding: dict[tuple[int, int], tuple[int, list]] = {}
        #: When this worker last produced evidence of progress.
        self.last_progress = time.perf_counter()
        #: When a deadline ping went out; ``None`` while healthy.
        self.ping_sent_at: float | None = None


@dataclass
class _PendingRefresh:
    """A hot-pair refresh dealt to the pool and not yet harvested."""

    #: Run epoch fencing the refresh's chunks.
    epoch: int
    #: Snapshot epoch at send time; harvested entries carry this stamp.
    snapshot_epoch: int
    #: Canonical keys, in wire order.
    keys: list
    #: Batch id -> worker slot, as returned by ``_deal``.
    pending: dict
    stats: list


def _wire_query(query) -> tuple:
    """Normalize a Query / (s, t, F) triple to the pipe representation."""
    if isinstance(query, Query):
        failed = tuple(query.failed) if query.failed else None
        return (query.source, query.target, failed)
    source, target, failed = query
    return (source, target, tuple(failed) if failed else None)


def _reap(handles: Sequence[_WorkerHandle]) -> None:
    """Terminate and join launched workers; close their pipes."""
    for handle in handles:
        handle.conn.close()
        if handle.process.is_alive():
            handle.process.terminate()
    for handle in handles:
        handle.process.join(timeout=5.0)


def _start_pools(services: Sequence["QueryService"]) -> None:
    """Start the stopped pools among ``services`` together.

    Launches every worker of every pool first and only then waits for
    each to report ready, so the snapshot loads overlap.  If any worker
    fails, every worker launched here is terminated and joined, every
    pool touched is left stopped, and the error propagates.
    """
    launched: list[tuple[QueryService, list[_WorkerHandle]]] = []
    try:
        for service in services:
            if service._started:
                continue
            handles: list[_WorkerHandle] = []
            launched.append((service, handles))
            # The ring first: every worker maps it before reporting ready.
            service._open_ring("restart" if service._was_started else "start")
            for index in range(service.workers):
                handles.append(service._launch(index))
        for service, handles in launched:
            for handle in handles:
                service._await_ready(handle)
            service._pool = handles
            service._started = service._was_started = True
    except BaseException:
        for service, handles in launched:
            service._pool = []
            service._started = False
            _reap(handles)
            service._close_ring()
        raise


class QueryService:
    """A process pool serving DISO/ADISO queries from one snapshot.

    Parameters
    ----------
    snapshot_path:
        File written by :func:`repro.oracle.snapshot.save_snapshot`.
        Every worker maps it independently; the OS shares the pages.
    workers:
        Pool size (>= 1).
    start_method:
        ``multiprocessing`` start method.  ``None`` reads the
        ``DSO_SERVING_START_METHOD`` environment variable (how CI pins
        its fork x spawn matrix), then prefers ``fork`` (instant
        worker startup) with a ``spawn`` fallback.
    chunk_size:
        Queries per dispatched chunk; default splits each batch into
        roughly four chunks per worker to smooth load imbalance.
    max_restarts:
        Worker replacements tolerated within one ``run()`` before
        giving up with ``RuntimeError``.
    batch_timeout:
        Seconds a worker holding outstanding chunks may stay silent
        before the dispatcher pings it.  A pong triggers a re-send of
        its chunks (result lost in transit); silence past
        ``ping_timeout`` triggers replacement (worker hung).  Size this
        above the worst-case time to answer one chunk.
    ping_timeout:
        Seconds to wait for the pong before declaring the worker hung.
    fault_plan:
        Optional :class:`repro.serving.faults.FaultPlan` shipped to
        every spawned worker — the deterministic fault-injection rig
        used by the test suite.  Leave ``None`` in production.
    cache_size:
        When > 0, keep a dispatcher-level
        :class:`~repro.serving.cache.ResultCache` of at most this many
        finished answers keyed on ``(s, t, canonicalized F)``.  Cache
        hits (including within-batch duplicates) never reach a worker
        and are bitwise-identical to recomputation under the same
        snapshot epoch.  0 (default) disables caching entirely.
    hot_pairs:
        When > 0 (requires ``cache_size > 0``), track workload skew
        with a :class:`~repro.serving.cache.HotPairTracker` and
        precompute up to this many of the hottest uncached keys in the
        idle gap between runs: each ``run()`` deals the refresh as it
        returns and the next call harvests it
        (:meth:`refresh_hot_pairs`).
    deadline_ms:
        When set, arm :class:`~repro.serving.admission.
        DeadlineAdmission`: queries beyond what the pool can answer
        within this budget (per the observed service rate) are shed —
        NaN answer, ``"shed"`` status — instead of queued unboundedly.

    Examples
    --------
    >>> from repro import DISO, road_network, generate_queries
    >>> from repro.oracle.snapshot import save_snapshot
    >>> from repro.serving import QueryService
    >>> g = road_network(8, 8, seed=1)
    >>> path = save_snapshot(DISO(g, tau=3).freeze(), "/tmp/doc.dsosnap")
    >>> with QueryService(path, workers=2) as service:
    ...     report = service.run(generate_queries(g, 6, seed=2))
    >>> len(report.answers)
    6
    >>> report.error_count
    0
    """

    def __init__(
        self,
        snapshot_path: str | Path,
        workers: int = 2,
        start_method: str | None = None,
        chunk_size: int | None = None,
        max_restarts: int | None = None,
        batch_timeout: float = 30.0,
        ping_timeout: float = 5.0,
        fault_plan=None,
        cache_size: int = 0,
        hot_pairs: int = 0,
        deadline_ms: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_timeout <= 0 or ping_timeout <= 0:
            raise ValueError("batch_timeout and ping_timeout must be > 0")
        #: The result cache, hot-pair tracker and deadline admission
        #: every batch passes before and after dispatch.
        self._front = BatchFront(
            cache_size, hot_pairs, deadline_ms, workers, logger
        )
        #: The pool's result ring while it runs; ``None`` when stopped
        #: or on the pipe fallback.  Every batch message and every
        #: spawned worker carries its spec.
        self._ring: ResultRing | None = None
        #: The run epoch of the hot-pair refresh dealt over the ring:
        #: its chunks are *quiet*, harvested from their stamps.
        self._quiet_epoch: int | None = None
        #: A mapping of the served file while the pool runs, the base
        #: ``swap_snapshot`` diffs a new file against.
        self._reader: SnapshotReader | None = None
        self.snapshot_path = str(snapshot_path)
        self.workers = workers
        self.chunk_size = chunk_size
        self.max_restarts = (
            max_restarts if max_restarts is not None else 3 * workers
        )
        self.batch_timeout = batch_timeout
        self.ping_timeout = ping_timeout
        self.fault_plan = fault_plan
        if start_method is None:
            start_method = os.environ.get("DSO_SERVING_START_METHOD") or None
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._pool: list[_WorkerHandle] = []
        self._restart_counts: list[int] = [0] * workers
        self._started = False
        #: Whether the pool ever started (a later start is a restart).
        self._was_started = False
        #: Monotonic run counter; stamped into every batch id so the
        #: dispatcher can fence out results from aborted past runs.
        self._epoch = 0
        self.cache_size = cache_size
        self.hot_pairs = hot_pairs
        self.deadline_ms = deadline_ms
        #: Snapshot-epoch stamp for cache entries.  Distinct from the
        #: per-run ``_epoch`` fence: it advances only when the served
        #: snapshot is retired (``swap_snapshot``), at which point every
        #: cache entry stamped with an older value is dead.
        self._snapshot_epoch = 1
        #: The hot-pair refresh dealt but not yet harvested, if any.
        self._refresh: _PendingRefresh | None = None
        self._precomputed_total = 0
        self._poll_seconds = max(
            _MIN_POLL_SECONDS,
            min(_POLL_SECONDS, batch_timeout / 5.0, ping_timeout / 5.0),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Spawn the pool; blocks until every worker mapped the snapshot.

        The loads overlap, so this costs about one load (see
        :func:`_start_pools`, also for the failure contract).
        """
        _start_pools([self])
        if self._reader is None:
            try:
                self._reader = SnapshotReader(
                    self.snapshot_path, verify=False
                )
            except (FormatError, OSError) as exc:
                # swap_snapshot then takes the restart path.
                logger.info(
                    "cannot map %s for delta swaps: %s",
                    self.snapshot_path, exc,
                )
        return self

    def stop(self) -> None:
        """Shut the pool down, terminating any unresponsive worker.

        A pending hot-pair refresh is dropped unharvested: its answers
        are only a warm-up, never worth waiting on a worker for.
        """
        if self._refresh is not None:
            logger.info(
                "stop dropped an unharvested hot-pair refresh of %d keys",
                len(self._refresh.keys),
            )
        self._refresh = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        for handle in self._pool:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):  # dsolint: disable=DSO403 -- stop is best-effort; a dead worker is already the goal state
                pass
        for handle in self._pool:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.conn.close()
        self._pool = []
        self._started = False
        self._close_ring()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _launch(self, index: int) -> _WorkerHandle:
        """Start worker ``index``'s process; do not wait for it."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                self.snapshot_path,
                child_conn,
                index,
                self.fault_plan,
                self._restart_counts[index],
                self._ring.spec() if self._ring is not None else None,
            ),
            daemon=True,
            name=f"dso-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(
            index=index,
            process=process,
            conn=parent_conn,
            load_seconds=0.0,
            pid=process.pid or 0,
        )

    def _await_ready(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Wait for a launched worker to map the snapshot.

        Raises ``RuntimeError`` if it reports a load error or stays
        silent past the ready timeout; the caller reaps the process.
        """
        if not handle.conn.poll(_READY_TIMEOUT):
            raise RuntimeError(
                f"worker {handle.index} did not become ready within "
                f"{_READY_TIMEOUT:.0f}s"
            )
        try:
            message = handle.conn.recv()
        except EOFError:
            message = ("error", handle.index, "exited before reporting")
        if message[0] == "error":
            raise RuntimeError(
                f"worker {handle.index} failed to load snapshot "
                f"{self.snapshot_path!r}: {message[2]}"
            )
        info = message[2]
        handle.load_seconds = info.get("load_seconds", 0.0)
        handle.pid = info.get("pid", handle.pid)
        handle.last_progress = time.perf_counter()
        return handle

    def _open_ring(
        self, reason: str, slots: int = 0, capacity: int = 0
    ) -> None:
        """(Re)create the pool's ring; unlink the one it replaces.

        The new ring covers the old one's geometry and ``slots`` x
        ``capacity``, and at least the refresh slots plus
        ``_CHUNKS_PER_WORKER`` run chunks per worker, so geometry
        only grows.  A worker still mapping the old ring keeps writing
        there harmlessly: its name is gone and no read looks at it.
        Where no ring can be created the pool serves over the pipe
        until its next start.
        """
        old, self._ring = self._ring, None
        if old is not None:
            slots = max(slots, old.slots)
            capacity = max(capacity, old.capacity)
            old.destroy()
        slots = max(slots, self.workers * (1 + _CHUNKS_PER_WORKER))
        capacity = max(capacity, math.ceil(self.hot_pairs / self.workers), 1)
        try:
            self._ring = ResultRing.create(slots, capacity)
        except (OSError, ValueError) as exc:
            logger.warning(
                "result ring unavailable (%s); the pool falls back to the "
                "pipe", exc,
            )
            return
        logger.info(
            "result ring %s: %d slots x %d answers (%s)",
            self._ring.name, slots, capacity, reason,
        )

    def _close_ring(self) -> None:
        """Unlink the pool's ring, if it has one."""
        ring, self._ring = self._ring, None
        if ring is not None:
            ring.destroy()

    def _spawn(self, index: int) -> _WorkerHandle:
        """Launch one worker and wait until it is ready."""
        handle = self._launch(index)
        try:
            return self._await_ready(handle)
        except BaseException:
            _reap([handle])
            raise

    def _replace(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Spawn a replacement and re-dispatch the dead worker's chunks."""
        handle.conn.close()
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        # Count the restart before spawning so the replacement sees its
        # own spawn generation (the fault rig targets generations).
        self._restart_counts[handle.index] += 1
        replacement = self._spawn(handle.index)
        logger.info(
            "replaced worker %d: pid %d -> %d (restart %d of the slot)",
            handle.index, handle.pid, replacement.pid,
            self._restart_counts[handle.index],
        )
        for batch_id, (start, chunk) in handle.outstanding.items():
            replacement.outstanding[batch_id] = (start, chunk)
            replacement.conn.send(self._batch_message(batch_id, chunk))
        replacement.last_progress = time.perf_counter()
        self._pool[handle.index] = replacement
        return replacement

    @property
    def total_restarts(self) -> int:
        """Worker replacements since ``start()``, across all runs.

        Includes replacements made by the idle liveness sweep at the
        top of ``run()`` (``_ensure_alive``) for workers that died
        *between* runs, so this can exceed the sum of per-run
        ``ServeReport.restarts``.
        """
        return sum(self._restart_counts)

    def _ensure_alive(self) -> None:
        """Replace any worker that died while the service was idle."""
        for handle in list(self._pool):
            if not handle.process.is_alive():
                self._replace(handle)

    # ------------------------------------------------------------------
    # Test hook
    # ------------------------------------------------------------------
    def inject_crash(self, worker_index: int) -> None:
        """Ask one worker to die (exercises the replacement path)."""
        self._pool[worker_index].conn.send(("crash",))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(
        self, queries: Sequence, chunk_size: int | None = None
    ) -> ServeReport:
        """Answer ``queries`` across the pool; results keep input order.

        ``queries`` may be :class:`~repro.workload.queries.Query`
        objects or plain ``(source, target, failed)`` triples.

        A query that raises inside a worker does not abort the run (or
        restart anything): its slot in ``answers`` is NaN and
        ``ServeReport.errors`` carries the message at the same index.

        With caching enabled, repeats of finished queries (and
        duplicates within this batch) are answered from the dispatcher
        cache without reaching a worker; with a deadline armed,
        queries beyond the feasible budget come back NaN under a
        ``"shed"`` status.  Cache hits are bitwise-identical to what a
        worker would recompute under the current snapshot epoch.  With
        ``hot_pairs`` on, the call first harvests the refresh the
        previous call dealt, and deals the next one as it returns.

        Raises
        ------
        RuntimeError
            If worker replacements exceed ``max_restarts`` during this
            run (e.g. a snapshot that crashes every worker), or a
            worker reports a protocol-level ``"error"``.  Every raise
            path clears outstanding-chunk bookkeeping and the epoch
            fence discards any late results, so a subsequent ``run()``
            or ``stop()`` sees a consistent pool.
        """
        self._settle_refresh()
        if not self._started:
            self.start()
        self._ensure_alive()
        self._epoch += 1
        epoch = self._epoch
        wire = [_wire_query(query) for query in queries]
        started = time.perf_counter()
        stats = [
            WorkerStats(
                index=handle.index,
                pid=handle.pid,
                load_seconds=handle.load_seconds,
            )
            for handle in self._pool
        ]
        metrics = {
            "dispatch_seconds": 0.0, "pipe_bytes": 0, "result_batches": 0,
        }

        batch = self._front.admit(wire, self._snapshot_epoch)
        compact_wire = batch.wire
        n_dispatch = len(compact_wire)
        errors: list[str | None] = [None] * n_dispatch

        size = chunk_size or self.chunk_size
        if size is None:
            per_run = self.workers * _CHUNKS_PER_WORKER
            size = max(1, math.ceil(n_dispatch / per_run)) if n_dispatch else 1
        ring = self._ring if n_dispatch else None
        if ring is not None:
            # Run chunks take the slots after the refresh's.
            slots = self.workers + math.ceil(n_dispatch / size)
            if not ring.covers(slots, size):
                self._open_ring("grow", slots, size)
                ring = self._ring
        if ring is not None:
            # Typed result buffers: per-batch harvesting memcpys ring
            # lanes straight into these (ring.read_into) and the floats
            # are boxed once, in bulk, after the collect loop — the
            # pipe fallback has no such option (every payload must be
            # unpickled on arrival), which is exactly the per-batch
            # dispatch overhead the ring exists to shed.
            answer_buf = array("d", [float("nan")]) * n_dispatch
            latency_buf = array("d", [0.0]) * n_dispatch
            sink = (memoryview(answer_buf), memoryview(latency_buf))
            answers: list[float] = []
            latencies: list[float] = []
        else:
            answer_buf = latency_buf = sink = None
            answers = [float("nan")] * n_dispatch
            latencies = [0.0] * n_dispatch
        if n_dispatch:
            pending = self._deal(
                epoch, compact_wire, size, stats, first=self.workers
            )
            self._collect(
                epoch, pending, answers, latencies, errors, stats, metrics,
                sink,
            )
        if ring is not None:
            answers[:] = answer_buf.tolist()
            latencies[:] = latency_buf.tolist()

        lanes = self._front.finish(
            batch, answers, latencies, errors,
            sum(s.busy_seconds for s in stats),
        )
        report = ServeReport(
            wall_seconds=time.perf_counter() - started,
            workers=self.workers,
            per_worker=stats,
            restarts=sum(s.restarts for s in stats),
            result_plane="shm" if ring is not None else "pipe",
            dispatch_seconds=metrics["dispatch_seconds"],
            pipe_bytes=metrics["pipe_bytes"],
            result_batches=metrics["result_batches"],
            **lanes,
        )
        # Idle-gap work: the batch is answered and the tracker has fresh
        # skew evidence — deal the hottest uncached pairs to the idle
        # pool now and return; the next call harvests the answers, so
        # the *next* run's hot traffic is a dict lookup.
        if self._front.hot is not None:
            self.refresh_hot_pairs()
        return report

    # ------------------------------------------------------------------
    # Caching plane (v4): snapshot epochs, hot-pair refresh, stats
    # ------------------------------------------------------------------
    @property
    def snapshot_epoch(self) -> int:
        """The epoch every current cache entry must be stamped with."""
        return self._snapshot_epoch

    def retire_snapshot_epoch(self) -> int:
        """Retire the current snapshot epoch; returns the new one.

        Every cached answer was computed under the old epoch and is now
        unservable: the epoch check in :meth:`ResultCache.get` refuses
        it lazily, and the eager sweep here returns the memory at once.
        A pending hot-pair refresh is harvested first, under the epoch
        it was dealt in, so the sweep retires its answers too.
        """
        self._settle_refresh()
        self._snapshot_epoch += 1
        self._front.retire_older_than(self._snapshot_epoch)
        logger.info(
            "retired snapshot epoch %d; now serving epoch %d",
            self._snapshot_epoch - 1, self._snapshot_epoch,
        )
        return self._snapshot_epoch

    def swap_snapshot(self, snapshot_path: str | Path) -> int:
        """Serve ``snapshot_path`` from now on; retire the old epoch.

        When the pool is running and the new file differs from the
        served one only in edge weights and per-rank trees and overlay
        rows (:func:`~repro.oracle.snapshot.snapshot_delta`), every live
        worker patches its engine in place (the ``"delta"`` message,
        DESIGN.md §8.1); a worker that fails, dies or times out on it is
        replaced by one that loads the new file.  Otherwise — a changed
        node set, CSR shape or transit set, another engine, an
        unreadable file — the pool is stopped, retargeted and restarted.
        Either way the snapshot epoch is retired, killing every cache
        entry computed under the old snapshot, and the new epoch is
        returned.  Answers are bitwise those of a fresh load of
        ``snapshot_path`` on both paths.
        """
        self._settle_refresh()
        path = str(snapshot_path)
        plan = self._delta_plan(path)
        if isinstance(plan, str):
            logger.info("snapshot swap to %s: restart (%s)", path, plan)
            was_started = self._started
            if was_started:
                self.stop()
            self.snapshot_path = path
            epoch = self.retire_snapshot_epoch()
            if was_started:
                self.start()
            return epoch
        reader, edge_ids, ranks = plan
        try:
            slowest = self._send_delta(path, edge_ids, ranks)
        except BaseException:
            reader.close()
            self.stop()
            # snapshot_path already names the new file: a later start()
            # must not serve cache entries of the old one.
            self.retire_snapshot_epoch()
            raise
        self._reader.close()
        self._reader = reader
        logger.info(
            "snapshot swap to %s: delta (%d ranks, %d edges, "
            "max worker apply %.2f ms)",
            path, len(ranks), len(edge_ids), slowest * 1e3,
        )
        return self.retire_snapshot_epoch()

    def _delta_plan(self, path: str):
        """``(reader, edge_ids, ranks)`` for a delta swap, else the reason."""
        if not self._started:
            return "the pool is not running"
        if self._reader is None:
            return "the served file is not mapped"
        if self._reader.rewritten():
            return "the served file was rewritten in place"
        try:
            reader = SnapshotReader(path)
        except (FormatError, OSError) as exc:
            return f"the new file is unreadable: {exc}"
        try:
            delta = snapshot_delta(self._reader, reader)
        except FormatError as exc:
            delta = f"the files cannot be compared: {exc}"
        except BaseException:
            reader.close()
            raise
        if isinstance(delta, str):
            reader.close()
            return delta
        return (reader, *delta)

    def _send_delta(self, path: str, edge_ids, ranks) -> float:
        """Have every worker apply a delta; replace the ones that fail.

        Returns the slowest worker's apply time in seconds.
        """
        # From here on a replacement loads the new file whole.
        self.snapshot_path = path
        message = ("delta", path, edge_ids, ranks)
        failed: list[_WorkerHandle] = []
        waiting: list[_WorkerHandle] = []
        for handle in self._pool:
            try:
                handle.conn.send(message)
            except (BrokenPipeError, OSError):
                failed.append(handle)
            else:
                waiting.append(handle)
        deadline = time.perf_counter() + _READY_TIMEOUT
        slowest = 0.0
        for handle in waiting:
            seconds = self._await_delta(handle, deadline)
            if seconds is None:
                failed.append(handle)
            else:
                slowest = max(slowest, seconds)
        for handle in failed:
            self._replace(handle)
        return slowest

    @staticmethod
    def _await_delta(handle: _WorkerHandle, deadline: float) -> float | None:
        """A worker's delta apply seconds; ``None`` if it failed or died."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not handle.conn.poll(remaining):
                return None
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                return None
            if message[0] == "delta_ok":
                return message[2]
            if message[0] == "error":
                logger.info(
                    "worker %d failed a delta: %s", handle.index, message[2]
                )
                return None
            # Anything else is a late reply to an aborted run: drop it.

    def refresh_hot_pairs(self, limit: int | None = None) -> int:
        """Deal the hottest uncached pairs to the pool for precompute.

        Sends up to ``limit`` (default ``hot_pairs``) of the tracker's
        hottest keys that have no cache entry — the head of its
        leaderboard, which the cache keeps current — under a fresh run
        epoch, and returns without waiting for the answers.  The next
        ``run()``, ``refresh_hot_pairs()``, ``cache_stats()``,
        ``precomputed_total`` or snapshot retirement harvests them into
        the cache, flagged *precomputed* and stamped with the snapshot
        epoch current at send time; hits on them are reported
        separately (``ServeReport.precomputed_hits``) so the benefit of
        the refresh is measurable.  The chunks go to the ring's
        dedicated refresh slots and are *quiet*: a worker stamps its
        slot and sends no reply, so the harvest reads the stamps and
        waits, through the collect loop, only for a slot not yet
        stamped.  Called automatically after each ``run()`` when
        ``hot_pairs > 0``; safe to call manually between runs.

        Returns the number of pairs dispatched.
        """
        self._settle_refresh()
        if self._front.hot is None or not self._started:
            return 0
        budget = self.hot_pairs if limit is None else limit
        hot_keys = self._front.hot.top(budget)
        if not hot_keys:
            return 0
        wire = [
            (source, target, failed or None)
            for source, target, failed in hot_keys
        ]
        self._epoch += 1
        stats = [
            WorkerStats(index=handle.index, pid=handle.pid)
            for handle in self._pool
        ]
        size = max(1, math.ceil(len(wire) / self.workers))
        if self._ring is not None and not self._ring.covers(
            self.workers, size
        ):
            self._open_ring("grow", capacity=size)
        if self._ring is not None:
            self._quiet_epoch = self._epoch
        pending = self._deal(self._epoch, wire, size, stats)
        self._refresh = _PendingRefresh(
            self._epoch, self._snapshot_epoch, hot_keys, pending, stats
        )
        return len(hot_keys)

    def _settle_refresh(self) -> None:
        """Harvest the pending hot-pair refresh into the cache, if any.

        Each answer is stamped with the snapshot epoch the refresh was
        dealt under, never the one current at harvest: an answer
        computed against a retired snapshot must stay unservable.
        """
        refresh, self._refresh = self._refresh, None
        if refresh is None:
            return
        count = len(refresh.keys)
        answers = array("d", [float("nan")]) * count
        sink = (memoryview(answers), memoryview(array("d", [0.0]) * count))
        errors: list[str | None] = [None] * count
        metrics = {
            "dispatch_seconds": 0.0, "pipe_bytes": 0, "result_batches": 0,
        }
        self._collect(
            refresh.epoch, refresh.pending, None, None, errors,
            refresh.stats, metrics, sink,
            quiet=refresh.epoch == self._quiet_epoch,
        )
        for key, answer, message in zip(
            refresh.keys, answers.tolist(), errors
        ):
            if message is None and self._front.cache.put(
                key, answer, refresh.snapshot_epoch, precomputed=True
            ):
                self._precomputed_total += 1

    @property
    def precomputed_total(self) -> int:
        """Answers stored by hot-pair refreshes since construction."""
        self._settle_refresh()
        return self._precomputed_total

    def cache_stats(self) -> dict | None:
        """Snapshot of the result-cache counters; ``None`` if disabled."""
        self._settle_refresh()
        return self._front.cache_stats()

    def admission_stats(self) -> dict | None:
        """Snapshot of the load-shedder counters; ``None`` if disabled."""
        return self._front.admission_stats()

    def _batch_message(self, batch_id, chunk) -> tuple:
        """The wire form of one chunk, carrying the pool's ring spec."""
        if self._ring is None:
            return ("batch", batch_id, chunk)
        quiet = batch_id[0] == self._quiet_epoch
        return ("batch", batch_id, chunk, self._ring.spec(), quiet)

    def _deal(
        self, epoch, wire, size, stats, first: int = 0
    ) -> dict[tuple[int, int], int]:
        """Send one epoch's chunks round-robin; return the pending map.

        Chunk ``n`` gets sequence number (and ring slot) ``first + n``
        and goes to worker ``(first + n) % workers``.  The map (batch
        id -> worker slot) is what :meth:`_collect` waits on.  On any
        raise every in-flight chunk is forgotten.
        """
        pending: dict[tuple[int, int], int] = {}
        try:
            for seq, start in enumerate(range(0, len(wire), size), first):
                chunk = wire[start : start + size]
                slot = seq % self.workers
                handle = self._pool[slot]
                batch_id = (epoch, seq)
                handle.outstanding[batch_id] = (start, chunk)
                pending[batch_id] = slot
                try:
                    handle.conn.send(self._batch_message(batch_id, chunk))
                except (BrokenPipeError, OSError):
                    self._check_restart_budget(stats)
                    self._replace_and_requeue(handle, pending, stats)
                else:
                    handle.last_progress = time.perf_counter()
        except BaseException:
            self._forget_in_flight()
            raise
        return pending

    def _collect(
        self, epoch, pending, answers, latencies, errors, stats, metrics,
        sink=None, quiet=False,
    ) -> None:
        """Collect ``epoch``'s results until none are pending.

        ``quiet`` chunks (a refresh over the ring) send no completion
        record.  The collect first takes every chunk whose slot is
        stamped; a worker still holding one then gets a *wake* ping,
        whose pong trails every chunk sent before it, so at the pong
        each of that worker's chunks is stamped or lost.  The loop
        ends only once every wake pong is read, so none is left in a
        pipe.  Pipe replies (a failed ring write, errored queries),
        deaths and deadlines take the usual paths.  On any raise every
        in-flight chunk is forgotten and the ring is replaced, so an
        aborted collect never poisons the next dispatch.
        """
        #: Worker slot -> the handle a wake ping went to, pong unread.
        wake: dict[int, _WorkerHandle] = {}
        try:
            if quiet:
                self._take_stamped(epoch, pending, errors, stats, sink)
            while pending or wake:
                if quiet:
                    self._wake(pending, wake, stats)
                conns = {
                    handle.conn: handle
                    for handle in self._pool
                    if handle.outstanding or handle.index in wake
                }
                ready = connection_wait(
                    list(conns), timeout=self._poll_seconds
                )
                now = time.perf_counter()
                for conn in ready:
                    handle = conns[conn]
                    if handle is not self._pool[handle.index]:
                        continue  # replaced earlier in this ready sweep
                    try:
                        # Raw bytes first: the OS wait stays *outside* the
                        # dispatch-overhead window, which times only the
                        # result-plane work (unpickle + ring memcpy/splice).
                        payload_bytes = conn.recv_bytes()
                    except (EOFError, OSError):
                        self._check_restart_budget(stats)
                        self._replace_and_requeue(handle, pending, stats)
                        continue
                    tick = time.perf_counter()
                    message = pickle.loads(payload_bytes)
                    kind = message[0]
                    if kind == "error":
                        raise RuntimeError(
                            f"worker {handle.index}: {message[2]}"
                        )
                    if kind == "pong":
                        woken = wake.pop(handle.index, None) is handle
                        if quiet:
                            # The pong trails every chunk sent before the
                            # ping, so any that will be stamped now is.
                            self._take_stamped(
                                epoch, pending, errors, stats, sink
                            )
                        if (
                            handle.ping_sent_at is not None or woken
                        ) and handle.outstanding:
                            # Alive but its results never arrived: re-send.
                            self._resend_outstanding(handle)
                        handle.ping_sent_at = None
                        handle.last_progress = now
                        continue
                    if kind not in ("result", "result_shm"):
                        continue
                    batch_id = message[1]
                    # The epoch fence comes before any ring read: a stale
                    # completion (deferred from an aborted run) never even
                    # touches the ring, and any slot a stale worker wrote
                    # carries its old epoch, which no read accepts.
                    if batch_id[0] != epoch:
                        continue  # stale epoch (aborted past run): drop
                    if batch_id not in handle.outstanding:
                        continue  # duplicate after a re-send: drop
                    start, chunk = handle.outstanding[batch_id]
                    count = len(chunk)
                    if kind == "result_shm":
                        busy = None
                        if self._ring is not None:
                            busy = self._ring.read_into(
                                batch_id[1], epoch, batch_id[1], count,
                                sink[0], sink[1], start,
                            )
                        if busy is None:
                            # Bad or missing stamp: the answers never landed
                            # (worker died mid-write, or a completion
                            # arrived without a usable ring).  Treat the
                            # result as lost — the deadline path re-sends.
                            continue
                        chunk_errors = message[4]
                    else:
                        _, _, _, chunk_answers, chunk_latencies, busy, \
                            chunk_errors = message
                        count = len(chunk_answers)
                        if sink is not None:
                            # Worker-side pipe fallback inside an shm run:
                            # land the lists in the typed buffers so the
                            # end-of-run bulk boxing stays uniform.
                            sink[0][start : start + count] = array(
                                "d", chunk_answers
                            )
                            sink[1][start : start + count] = array(
                                "d", chunk_latencies
                            )
                        else:
                            answers[start : start + count] = chunk_answers
                            latencies[start : start + count] = chunk_latencies
                    self._accept(
                        handle, batch_id, count, busy, chunk_errors,
                        pending, errors, stats,
                    )
                    metrics["dispatch_seconds"] += time.perf_counter() - tick
                    metrics["pipe_bytes"] += len(payload_bytes)
                    metrics["result_batches"] += 1

                # Health sweep: silent deaths, deadlines, unanswered pings.
                for handle in list(self._pool):
                    if not handle.outstanding:
                        continue
                    if not handle.process.is_alive():
                        self._check_restart_budget(stats)
                        self._replace_and_requeue(handle, pending, stats)
                        continue
                    if handle.ping_sent_at is not None:
                        if now - handle.ping_sent_at > self.ping_timeout:
                            # Pinged and silent: hung inside a query.
                            self._check_restart_budget(stats)
                            self._replace_and_requeue(handle, pending, stats)
                    elif now - handle.last_progress > self.batch_timeout:
                        try:
                            handle.conn.send(("ping",))
                            handle.ping_sent_at = now
                        except (BrokenPipeError, OSError):
                            self._check_restart_budget(stats)
                            self._replace_and_requeue(handle, pending, stats)
        except BaseException:
            self._forget_in_flight()
            raise

    @staticmethod
    def _accept(
        handle, batch_id, count, busy, chunk_errors, pending, errors, stats
    ) -> None:
        """Book one delivered chunk: clear it, record errors and stats."""
        start, _ = handle.outstanding.pop(batch_id)
        pending.pop(batch_id, None)
        handle.last_progress = time.perf_counter()
        handle.ping_sent_at = None
        for position, message_text in chunk_errors:
            errors[start + position] = message_text
        slot_stats = stats[handle.index]
        slot_stats.queries += count
        slot_stats.batches += 1
        slot_stats.busy_seconds += busy

    def _wake(self, pending, wake, stats) -> None:
        """Ping each worker holding a pending quiet chunk, once.

        Drops the wake entry of a worker replaced since its ping: the
        pong will never come, and the replacement gets its own.
        """
        for index, handle in list(wake.items()):
            if self._pool[index] is not handle:
                del wake[index]
        for index in sorted(set(pending.values())):
            handle = self._pool[index]
            if index in wake or not handle.outstanding:
                continue
            try:
                handle.conn.send(("ping",))
            except (BrokenPipeError, OSError):
                self._check_restart_budget(stats)
                self._replace_and_requeue(handle, pending, stats)
            else:
                wake[index] = handle

    def _take_stamped(self, epoch, pending, errors, stats, sink) -> None:
        """Accept every pending quiet chunk whose ring slot is stamped."""
        ring = self._ring
        if ring is None:
            return
        for batch_id, index in list(pending.items()):
            handle = self._pool[index]
            entry = handle.outstanding.get(batch_id)
            if entry is None:
                continue
            start, chunk = entry
            seq = batch_id[1]
            busy = ring.read_into(
                seq, epoch, seq, len(chunk), sink[0], sink[1], start
            )
            if busy is not None:
                self._accept(
                    handle, batch_id, len(chunk), busy, (), pending,
                    errors, stats,
                )

    def _forget_in_flight(self) -> None:
        """Leave the pool consistent after an abort: drop every chunk.

        The epoch fence makes any late results for them inert, and a
        fresh ring takes the late writes out of the next run's way: a
        straggler still mapping the old one writes there.
        """
        for handle in self._pool:
            handle.outstanding.clear()
            handle.ping_sent_at = None
        if self._started and self._ring is not None:
            self._open_ring("abort")

    def _resend_outstanding(self, handle: _WorkerHandle) -> None:
        """Re-send a responsive worker's outstanding chunks (lost results)."""
        for batch_id, (start, chunk) in handle.outstanding.items():
            handle.conn.send(self._batch_message(batch_id, chunk))
        handle.last_progress = time.perf_counter()

    def _replace_and_requeue(
        self,
        handle: _WorkerHandle,
        pending: dict,
        stats: list[WorkerStats],
    ) -> None:
        """Replace ``handle`` mid-run, updating pending + slot stats."""
        replacement = self._replace(handle)
        for batch_id in replacement.outstanding:
            pending[batch_id] = replacement.index
        slot_stats = stats[handle.index]
        slot_stats.restarts += 1
        slot_stats.pid = replacement.pid
        slot_stats.load_seconds += replacement.load_seconds

    def _check_restart_budget(self, stats: list[WorkerStats]) -> None:
        """Raise once one more replacement would exceed ``max_restarts``.

        ``stats`` are the dispatch's slot stats, whose ``restarts``
        count every replacement made so far in this dispatch.
        """
        if sum(s.restarts for s in stats) + 1 > self.max_restarts:
            self.stop()
            raise RuntimeError(
                f"exceeded {self.max_restarts} worker restarts in one run; "
                f"snapshot {self.snapshot_path!r} appears to crash workers"
            )
