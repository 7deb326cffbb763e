"""Sharded serving: route queries to owning shards, stitch the rest.

:class:`ShardedQueryService` serves a sharded snapshot directory
(:func:`repro.sharding.snapshot.save_sharded_snapshot`).  The
dispatcher loads only the manifest — the
:class:`~repro.sharding.oracle.BorderOverlay` — and composes one inner
:class:`~repro.serving.service.QueryService` *per shard*, each mapping
exactly one ``shard-*.dsosnap`` file across its workers.  The full
index is never resident in any single process.

``run()`` turns each input query into shard-local *leg* queries
(DESIGN.md §13 routing table):

* same-shard ``(s, t)``: one **local** leg on the owning shard — plus
  the border legs below, because the true shortest path may leave the
  shard and return (the stitched answer is min-ed with the local one);
* every query whose source shard has borders: one **outbound** leg
  ``(s, b1, F_s)`` per source-shard border, and one **inbound** leg
  ``(b2, t, F_t)`` per target-shard border;
* every shard ``k`` with a non-empty owned failure set ``F_k``: a
  **repair** leg ``(a, b, F_k)`` per ordered border pair that ``F_k``
  can reach — some failed edge ``(u, v, w)`` of shard ``k`` lies on a
  shortest ``a -> b`` path, tested as ``d_k(a, u) + w + d_k(v, b) <=
  d_k(a, b) * (1 + AFFECTED_SLACK)``
  (:meth:`~repro.sharding.oracle.ShardReach.affected_pairs`, the same
  helper :class:`~repro.sharding.oracle.ShardedOracle` repairs with).
  Every other entry of the repaired rows keeps the manifest's
  failure-free value; an ``F_k`` that reaches no pair repairs nothing,
  so its queries stitch over the failure-free overlay (closure fast
  path included).

The failure-free in-shard distances behind that test come from one
forward and one backward CSR Dijkstra per border, run by the
dispatcher when the pools start, over only the CSR sections of each
``shard-*.dsosnap`` file (no index is restored).  The same CSRs drop
failed same-shard pairs that are not edges before planning, so such a
query plans exactly like its failure-free twin.

Legs are deduplicated per shard on the canonical ``(s, t, F)`` key —
two queries sharing a source and failure set share the outbound legs,
and every query in a batch under the same ``F_k`` shares one repair set
(repaired rows are additionally memoized *across* batches per
``(shard, canonical F_k)``, least recently used out first, until the
snapshot epoch retires) — then each shard's pool answers its batch
through the ordinary dispatcher (result ring, crash replacement,
epoch fencing all inherited).  ``ServeReport.repair_legs`` counts the
legs a run dispatched for repair alone.

Stitching runs in this process over the answered legs, on the
compiled :class:`~repro.sharding.frozen_overlay.FrozenOverlay`
(DESIGN.md §14): queries are grouped by failure patch and stitched per
group by the batched CSR kernel, and failure-free cross-shard queries
collapse to the precomputed border closure (two leg lookups + one
matrix min).  Answers are bitwise-identical to the scalar heap walk
:class:`~repro.sharding.oracle.ShardedOracle` stitches with on every
graph the parity suite runs.

Input queries pass a :class:`~repro.serving.cache.BatchFront`
(``cache_size`` / ``deadline_ms``), as in the unsharded service, before
any leg is planned.  Its cache stamps entries with the *sum* of the
shard pools' snapshot epochs, so retiring any shard's snapshot
invalidates every cached stitched answer.

Error semantics match the unsharded plane: a poison endpoint yields a
NaN answer and a ``"QueryError: ..."`` message (same text the worker
would produce), never an aborted run; a failed leg poisons exactly the
queries that needed it, scanning legs in a fixed local → outbound →
inbound → repairs order.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from collections.abc import Sequence

from repro.oracle.parallel import latency_percentile
from repro.serving.cache import BatchFront, canonical_query_key
from repro.serving.service import (
    QueryService,
    ServeReport,
    _start_pools,
    _wire_query,
)
from repro.serving.worker import QUERY_ERROR
from repro.sharding.oracle import INFINITY
from repro.sharding.snapshot import load_shard_reach, load_sharded_manifest

logger = logging.getLogger(__name__)

#: Cross-batch repaired-row memo entries kept per service (each entry
#: is one shard's full border matrix under one failure set); after each
#: batch the least recently used entries beyond it are dropped.
_REPAIR_MEMO_LIMIT = 256


class _QueryPlan:
    """Routing decision for one input query (leg references by index)."""

    __slots__ = (
        "error", "local", "out_legs", "in_legs", "repairs", "cross_failed",
    )

    def __init__(self) -> None:
        self.error: str | None = None
        #: ``(shard, leg index)`` of the local leg, or ``None``.
        self.local: tuple[int, int] | None = None
        #: ``[(border, (shard, leg index)), ...]`` source-side legs.
        self.out_legs: list = []
        #: ``[(border, (shard, leg index)), ...]`` target-side legs.
        self.in_legs: list = []
        #: ``[(shard, rows_key), ...]`` repair sets this query needs
        #: (shards whose ``F_k`` reaches some border pair), sorted by
        #: shard; ``rows_key`` indexes the batch's resolved rows (and
        #: the cross-batch memo).
        self.repairs: list[tuple[int, tuple]] = []
        self.cross_failed = frozenset()

    def patch_key(self) -> tuple:
        """Hashable failure-patch signature (groups the frozen stitch)."""
        return (tuple(self.repairs), self.cross_failed)


def _repair_only_legs(plans: list[_QueryPlan], repair_refs: dict) -> int:
    """Legs a batch dispatched for repairs alone.

    A repair pair ``(b_i, b_j, F_k)`` is the same deduplicated leg as a
    query's outbound or inbound leg when that query's source or target
    is border ``b_i`` or ``b_j`` of shard ``k``; such legs are not
    counted, so the result is what the repairs added to the dispatch.
    """
    asked = set()
    for plan in plans:
        asked.add(plan.local)
        asked.update(ref for _, ref in plan.out_legs)
        asked.update(ref for _, ref in plan.in_legs)
    return len(
        {ref for refs in repair_refs.values() for _, _, ref in refs} - asked
    )


class ShardedQueryService:
    """Serve a sharded snapshot directory with per-shard worker pools.

    Parameters
    ----------
    snapshot_dir:
        Directory written by
        :func:`repro.sharding.snapshot.save_sharded_snapshot`.
    workers_per_shard:
        Pool size of each shard's inner :class:`QueryService`.
    verify:
        Verify manifest and shard checksums while loading.
    start_method, chunk_size, max_restarts, batch_timeout,
    ping_timeout:
        Forwarded to every inner :class:`QueryService`.
    cache_size:
        Dispatcher result-cache capacity (0 disables).  Entries are
        epoch-stamped across *all* shard pools.
    deadline_ms:
        Per-batch deadline for admission control (``None`` disables).

    Examples
    --------
    >>> from repro import DISO, grid_network
    >>> from repro.sharding import build_sharded, save_sharded_snapshot
    >>> from repro.serving.sharded import ShardedQueryService
    >>> g = grid_network(4, 4)
    >>> path = save_sharded_snapshot(
    ...     build_sharded(g, 2, seed=1), "/tmp/doc-sharded"
    ... )
    >>> with ShardedQueryService(path, workers_per_shard=1) as service:
    ...     report = service.run([(0, 15, None), (15, 0, ((0, 1),))])
    >>> report.shards
    2
    >>> report.error_count
    0
    """

    def __init__(
        self,
        snapshot_dir: str | Path,
        workers_per_shard: int = 1,
        verify: bool = True,
        start_method: str | None = None,
        chunk_size: int | None = None,
        max_restarts: int | None = None,
        batch_timeout: float = 30.0,
        ping_timeout: float = 5.0,
        cache_size: int = 0,
        deadline_ms: float | None = None,
    ) -> None:
        if workers_per_shard < 1:
            raise ValueError("workers_per_shard must be >= 1")
        self.snapshot_dir = str(snapshot_dir)
        # One open and one CRC check of the manifest serve both loads.
        # The frozen stitch plane keeps the mapping open until stop(),
        # so it is released here if the rest of the setup raises.
        overlay, meta, shard_paths, self._frozen = load_sharded_manifest(
            snapshot_dir, verify=verify
        )
        try:
            self._verify = verify
            self._shard_paths = shard_paths
            #: Per shard, the failure-free border distances the repair
            #: planner tests failures against; read on the first start.
            self._reach = None
            self.overlay = overlay
            self.meta = meta
            self.shards = overlay.parts
            self.workers_per_shard = workers_per_shard
            self.cache_size = cache_size
            self.deadline_ms = deadline_ms
            self._front = BatchFront(
                cache_size, deadline_ms=deadline_ms, workers=self.workers,
                log=logger,
            )
            self._services = [
                QueryService(
                    path,
                    workers=workers_per_shard,
                    start_method=start_method,
                    chunk_size=chunk_size,
                    max_restarts=max_restarts,
                    batch_timeout=batch_timeout,
                    ping_timeout=ping_timeout,
                )
                for path in shard_paths
            ]
            self._started = False
            #: ``(shard, canonical F_k) -> resolved float rows`` —
            #: repaired border matrices carried across batches, in
            #: recency order.  Cleared whenever any shard's snapshot
            #: epoch retires (the rows embed that shard's answers).
            self._repair_memo: dict[tuple, list[list[float]]] = {}
        except BaseException:
            self._frozen.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedQueryService":
        """Start every shard pool (lazy on first ``run()`` otherwise).

        All shards' workers load at once, so this costs about one shard
        load; on any failure none is left running (``_start_pools``).
        Once the workers have loaded (and so checked) the shard files,
        the first start also reads their CSR sections for the repair
        planner (:func:`~repro.sharding.snapshot.load_shard_reach`); if
        that read fails, the pools are stopped again before it raises.
        """
        _start_pools(self._services)
        if self._reach is None:
            try:
                self._reach = [
                    load_shard_reach(path, borders, verify=self._verify)
                    for path, borders in zip(
                        self._shard_paths, self.overlay.shard_borders
                    )
                ]
            except BaseException:
                for service in self._services:
                    service.stop()
                raise
        self._started = True
        return self

    def stop(self) -> None:
        """Stop every shard pool and release the frozen overlay mmap."""
        for service in self._services:
            service.stop()
        self._frozen.close()
        self._started = False

    def __enter__(self) -> "ShardedQueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def workers(self) -> int:
        """Total workers across every shard pool."""
        return self.shards * self.workers_per_shard

    @property
    def total_restarts(self) -> int:
        """Worker replacements across all shard pools since start."""
        return sum(service.total_restarts for service in self._services)

    # ------------------------------------------------------------------
    # Caching plane: epochs spanning every shard pool
    # ------------------------------------------------------------------
    @property
    def snapshot_epoch(self) -> int:
        """Cache stamp: the sum of every shard pool's snapshot epoch.

        Any single shard retiring its snapshot changes the sum, which
        retires every cached *stitched* answer — a stitched value may
        embed legs from any shard, so per-shard invalidation cannot be
        finer than this.
        """
        return sum(service.snapshot_epoch for service in self._services)

    def retire_snapshot_epoch(self) -> int:
        """Invalidate all cached answers and memoized repaired rows."""
        for service in self._services:
            service.retire_snapshot_epoch()
        epoch = self.snapshot_epoch
        self._front.retire_older_than(epoch)
        self._repair_memo.clear()
        return epoch

    def cache_stats(self) -> dict | None:
        """Dispatcher cache counters, or ``None`` when disabled."""
        return self._front.cache_stats()

    def admission_stats(self) -> dict | None:
        """Admission-control state, or ``None`` when disabled."""
        return self._front.admission_stats()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _plan_queries(
        self, wire: list[tuple]
    ) -> tuple[list[_QueryPlan], list[list[tuple]], dict]:
        """Turn wire queries into per-shard leg batches plus plans.

        Returns ``(plans, shard_legs, repair_refs)`` where
        ``repair_refs`` maps each distinct ``(shard, canonical F_k)``
        this batch needs — and the cross-batch memo cannot supply — to
        ``[(i, j, leg reference), ...]`` over its affected border pairs
        (resolved once after dispatch).  A memo hit moves its entry to
        the most recent end; nothing is evicted until the batch is
        stitched (``run``).
        """
        overlay = self.overlay
        assignment = overlay.assignment
        reach = self._reach
        memo = self._repair_memo
        shard_legs: list[list[tuple]] = [[] for _ in range(self.shards)]
        leg_index: list[dict] = [{} for _ in range(self.shards)]
        repair_refs: dict[tuple, list[tuple]] = {}
        unaffected: set[tuple] = set()

        def leg(shard: int, source: int, target: int, failed) -> tuple[int, int]:
            key = canonical_query_key(source, target, failed)
            index = leg_index[shard].get(key)
            if index is None:
                index = len(shard_legs[shard])
                leg_index[shard][key] = index
                shard_legs[shard].append(
                    (source, target, tuple(failed) if failed else None)
                )
            return (shard, index)

        def repair(shard: int, failures: frozenset) -> tuple | None:
            """Rows key of ``F_k`` in this batch; ``None`` when it
            reaches no border pair (the failure-free rows stand)."""
            rows_key = (shard, canonical_query_key(0, 0, failures)[2])
            if rows_key in repair_refs:
                return rows_key
            if rows_key in unaffected:
                return None
            rows = memo.pop(rows_key, None)
            if rows is not None:
                memo[rows_key] = rows  # now the most recently used
                return rows_key
            pairs = reach[shard].affected_pairs(failures)
            if not pairs:
                unaffected.add(rows_key)
                return None
            borders = overlay.shard_borders[shard]
            repair_refs[rows_key] = [
                (i, j, leg(shard, borders[i], borders[j], failures))
                for i, j in pairs
            ]
            return rows_key

        plans: list[_QueryPlan] = []
        for source, target, failed in wire:
            plan = _QueryPlan()
            plans.append(plan)
            if source not in assignment:
                plan.error = (
                    f"QueryError: source node {source!r} is not in the graph"
                )
                continue
            if target not in assignment:
                plan.error = (
                    f"QueryError: target node {target!r} is not in the graph"
                )
                continue
            try:
                per_shard, cross_failed = overlay.split_failures(failed, reach)
            except Exception as exc:
                plan.error = f"{type(exc).__name__}: {exc}"
                continue
            shard_s, shard_t = assignment[source], assignment[target]
            plan.cross_failed = cross_failed
            f_s = per_shard.get(shard_s, frozenset())
            f_t = per_shard.get(shard_t, frozenset())
            if shard_s == shard_t:
                plan.local = leg(shard_s, source, target, f_s)
            borders_s = overlay.shard_borders[shard_s]
            borders_t = overlay.shard_borders[shard_t]
            if not borders_s or not borders_t:
                continue  # local answer (or inf) is already exact
            plan.out_legs = [
                (border, leg(shard_s, source, border, f_s))
                for border in borders_s
            ]
            plan.in_legs = [
                (border, leg(shard_t, border, target, f_t))
                for border in borders_t
            ]
            for shard in overlay.shards_touched(per_shard):
                rows_key = repair(shard, per_shard[shard])
                if rows_key is not None:
                    plan.repairs.append((shard, rows_key))
        return plans, shard_legs, repair_refs

    # ------------------------------------------------------------------
    # Dispatch + stitch
    # ------------------------------------------------------------------
    def run(
        self, queries: Sequence, chunk_size: int | None = None
    ) -> ServeReport:
        """Answer ``queries``, stitching cross-shard ones over borders.

        Answers keep input order and are bitwise-identical (NaN
        sentinel included) to the unsharded frozen oracle whenever
        float addition over the graph's weights is exact — the
        property the sharded parity suite locks down.
        """
        started = time.perf_counter()
        self.start()
        wire = [_wire_query(query) for query in queries]
        assignment = self.overlay.assignment
        cross_flags = [
            source in assignment
            and target in assignment
            and assignment[source] != assignment[target]
            for source, target, _ in wire
        ]

        batch = self._front.admit(wire, self.snapshot_epoch)

        plans, shard_legs, repair_refs = self._plan_queries(batch.wire)
        reports: list[ServeReport | None] = [None] * self.shards
        for shard, legs in enumerate(shard_legs):
            if legs:
                reports[shard] = self._services[shard].run(
                    legs, chunk_size=chunk_size
                )

        def leg_value(ref: tuple[int, int]) -> tuple[float, str | None]:
            shard, index = ref
            report = reports[shard]
            return report.answers[index], report.errors[index]

        answers, latencies, errors, stitch_seconds, closure_hits = (
            self._stitch_all(plans, leg_value, repair_refs)
        )
        memo = self._repair_memo
        while len(memo) > _REPAIR_MEMO_LIMIT:
            del memo[next(iter(memo))]

        # Aggregate the shard pools' accounting into one report.
        done = [report for report in reports if report is not None]
        per_worker = [stats for report in done for stats in report.per_worker]
        for slot, stats in enumerate(per_worker):
            stats.index = slot
        lanes = self._front.finish(
            batch, answers, latencies, errors,
            sum(stats.busy_seconds for stats in per_worker),
        )

        # Same-shard vs cross-shard latency split over the queries that
        # were actually stitched this run (cache hits and sheds carry
        # no stitch latency and would only dilute the percentiles).
        split: dict[str, dict] = {}
        for label, wanted in (("same_shard", False), ("cross_shard", True)):
            lane = [
                lanes["latencies"][position]
                for position in batch.positions
                if cross_flags[position] is wanted
            ]
            if lane:
                split[label] = {
                    "count": len(lane),
                    "p50_us": round(1e6 * latency_percentile(lane, 0.50), 3),
                    "p99_us": round(1e6 * latency_percentile(lane, 0.99), 3),
                }
        cross = sum(1 for flag in cross_flags if flag)
        return ServeReport(
            wall_seconds=time.perf_counter() - started,
            workers=self.workers,
            per_worker=per_worker,
            restarts=sum(report.restarts for report in done),
            result_plane=(
                "shm" if {report.result_plane for report in done} == {"shm"}
                else "pipe"
            ),
            dispatch_seconds=sum(report.dispatch_seconds for report in done),
            pipe_bytes=sum(report.pipe_bytes for report in done),
            result_batches=sum(report.result_batches for report in done),
            **lanes,
            shards=self.shards,
            cross_shard_ratio=(cross / len(wire)) if wire else 0.0,
            shard_loads=[len(legs) for legs in shard_legs],
            repair_legs=_repair_only_legs(plans, repair_refs),
            stitch_seconds=stitch_seconds,
            closure_hits=closure_hits,
            latency_split=split,
        )

    # ------------------------------------------------------------------
    # Stitch
    # ------------------------------------------------------------------
    def _resolve_repairs(
        self, repair_refs: dict, leg_value
    ) -> dict[tuple, tuple]:
        """Resolve each distinct repair set once, memoizing clean ones.

        Each set starts from its shard's failure-free matrix and
        overwrites the affected entries with their answered legs.
        Returns ``rows_key -> (rows, first_error_message)``; scan order
        inside a set is row-major, as in :class:`ShardedOracle`, so
        error strings stay byte-identical.  Clean rows join the memo
        without evicting anything: ``run`` trims it after stitching.
        """
        matrices = self.overlay.border_matrices
        memo = self._repair_memo
        resolved: dict[tuple, tuple] = {}
        for rows_key, refs in repair_refs.items():
            rows = [list(row) for row in matrices[rows_key[0]]]
            message: str | None = None
            for i, j, ref in refs:
                value, message = leg_value(ref)
                if message is not None:
                    break
                rows[i][j] = value
            if message is not None:
                resolved[rows_key] = (None, message)
                continue
            resolved[rows_key] = (rows, None)
            memo[rows_key] = rows
        return resolved

    def _resolve_legs(self, plan: _QueryPlan, leg_value, resolved):
        """Answered legs of one plan, scanned in the canonical order.

        Returns ``("done", answer, message)`` for plans that finish
        without stitching (errors, borderless shards), else
        ``("stitch", sources, targets, upper, repaired)``.
        """
        if plan.error is not None:
            return ("done", QUERY_ERROR, plan.error)
        local = INFINITY
        if plan.local is not None:
            local, message = leg_value(plan.local)
            if message is not None:
                return ("done", QUERY_ERROR, message)
        if not plan.out_legs:
            return ("done", local, None)
        sources = []
        for border, ref in plan.out_legs:
            value, message = leg_value(ref)
            if message is not None:
                return ("done", QUERY_ERROR, message)
            sources.append((border, value))
        targets = []
        for border, ref in plan.in_legs:
            value, message = leg_value(ref)
            if message is not None:
                return ("done", QUERY_ERROR, message)
            targets.append((border, value))
        repaired: dict[int, list[list[float]]] = {}
        for shard, rows_key in plan.repairs:
            rows = self._repair_memo.get(rows_key)
            if rows is None:
                rows, message = resolved[rows_key]
                if message is not None:
                    return ("done", QUERY_ERROR, message)
            repaired[shard] = rows
        return ("stitch", sources, targets, local, repaired)

    def _stitch_all(self, plans, leg_value, repair_refs):
        """Stitch every plan on the frozen overlay; returns the lanes.

        Per-query ``latencies`` measure dispatcher-side stitch work
        only (leg resolution plus the kernel share); the legs' own
        worker time is accounted by the shard pools.
        """
        perf = time.perf_counter
        count = len(plans)
        answers = [float("nan")] * count
        latencies = [0.0] * count
        errors: list[str | None] = [None] * count
        closure_hits = 0
        stitch_started = perf()
        resolved = self._resolve_repairs(repair_refs, leg_value)
        frozen = self._frozen
        #: patch signature -> (repaired, cross_failed, [(position, s, t, u)])
        groups: dict[tuple, tuple] = {}
        for position, plan in enumerate(plans):
            tick = perf()
            outcome = self._resolve_legs(plan, leg_value, resolved)
            if outcome[0] == "done":
                _, answers[position], errors[position] = outcome
                latencies[position] = perf() - tick
                continue
            _, sources, targets, upper, repaired = outcome
            if (
                not repaired
                and not plan.cross_failed
                and frozen.closure is not None
            ):
                # Failure-free fast path: the precomputed closure.
                answers[position] = frozen.closure_answer(
                    sources, targets, upper
                )
                closure_hits += 1
                latencies[position] = perf() - tick
                continue
            group = groups.get(plan.patch_key())
            if group is None:
                group = (repaired, plan.cross_failed, [])
                groups[plan.patch_key()] = group
            group[2].append((position, sources, targets, upper))
            latencies[position] = perf() - tick
        for repaired, cross_failed, members in groups.values():
            tick = perf()
            batch = [
                (sources, targets, upper)
                for _, sources, targets, upper in members
            ]
            stitched = frozen.stitch_batch(
                batch, repaired=repaired or None, cross_failed=cross_failed
            )
            share = (perf() - tick) / len(members)
            for slot, (position, _, _, _) in enumerate(members):
                answers[position] = float(stitched[slot])
                latencies[position] += share
        return (
            answers, latencies, errors,
            perf() - stitch_started, closure_hits,
        )
