"""Index updates as deltas: live engines patched in place.

``swap_snapshot`` sends live workers a ``("delta", path, edge_ids,
ranks)`` message when the new file differs from the served one only in
edge weights and per-rank trees and overlay rows.  The contract is that
a patched engine answers bitwise like a fresh ``load_snapshot`` of the
new file, after any number of deltas, and holds the same query views —
the overlay's reverse rows included, which the delta patches in place
for the heads of the replaced ranks only.  The sharpest edge is a
weight change inside a tree the update did not rebuild: the repair
seeds its nodes with ``stored[pred] + weight``.  The scripts below
change exactly such edges and then fail the tree edge into their head,
so a repair that read a stale weight would misprice the answer.

Everything else rides along: a crash on the delta is replaced onto the
new file, a shape change takes the restart path, a corrupt file keeps
its "failed to load" contract, no ``/dev/shm`` segment leaks, and each
swap, replacement and epoch retirement is logged.

Set ``DSO_SERVING_START_METHOD=spawn`` (or ``fork``) to pin the
multiprocessing start method — CI runs this file under both.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random

import pytest

from repro.oracle.diso import DISO
from repro.oracle.maintenance import OracleMaintainer
from repro.oracle.snapshot import (
    SnapshotReader,
    apply_snapshot_delta,
    load_snapshot,
    save_snapshot,
    snapshot_delta,
)
from repro.serving import FaultPlan, QueryService
from repro.serving.ring import NAME_PREFIX
from repro.workload.queries import Query, generate_queries
from util import random_graph

START_METHOD = os.environ.get("DSO_SERVING_START_METHOD") or None
LOGGER = "repro.serving.service"


def make_service(path, **kwargs) -> QueryService:
    kwargs.setdefault("start_method", START_METHOD)
    return QueryService(path, **kwargs)


def own_ring_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    own = f"{NAME_PREFIX}{os.getpid()}-"
    return {name for name in os.listdir("/dev/shm") if name.startswith(own)}


def hexes(values) -> list[str]:
    return [value.hex() for value in values]


def trap_queries(engine) -> tuple[list[tuple[int, int]], list[Query]]:
    """Edges a repair that read stale weights would misprice, and
    queries that read them.

    A trap edge ``(u, v)`` lies inside the tree of some root ``R``
    without being one of its tree edges.  Each query starts at ``R``,
    fails the tree edge into ``v`` and ends at a transit leaf below
    ``v``: its answer goes through ``R``'s repaired overlay row, whose
    repair may seed ``v`` across ``(u, v)``.
    """
    frozen = engine.frozen
    labels = frozen.node_ids
    edges: set[tuple[int, int]] = set()
    queries: set[tuple[int, int, tuple[int, int]]] = set()
    for tree in engine.index.trees:
        pos_of = tree.pos_of
        for node in tree.order:
            for head, _, edge_id in frozen._adjacency[node]:
                head_pos = pos_of.get(head)
                if not head_pos or edge_id in tree.edge_pos:
                    continue
                edges.add((labels[node], labels[head]))
                into = frozen.endpoints(tree.edge_ids[head_pos])
                failure = (labels[into[0]], labels[into[1]])
                end = head_pos + tree.size[head_pos]
                for pos in tree.transit_pos:
                    if head_pos <= pos < end:
                        queries.add((labels[tree.root],
                                     labels[tree.order[pos]], failure))
    return sorted(edges), [
        Query(source, target, frozenset({failure}))
        for source, target, failure in sorted(queries)
    ]


class Script:
    """An oracle, its maintainer, and snapshots saved after each step."""

    def __init__(self, tmp_path, seed: int) -> None:
        self.graph = random_graph(seed, n=40, extra=110)
        self.oracle = DISO(self.graph, tau=3)
        self.maintainer = OracleMaintainer(self.oracle)
        self.tmp_path = tmp_path
        self.rng = random.Random(seed)
        self.paths = [self.save()]
        with load_snapshot(self.paths[0]) as engine:
            engine.index.build_views()
            self.traps, queries = trap_queries(engine)
        assert self.traps, "the graph has no non-tree edge inside a tree"
        self.batch = queries + list(
            generate_queries(self.graph, 24, f_gen=2, p=0.05, seed=seed)
        )

    def save(self):
        path = self.tmp_path / f"step-{len(getattr(self, 'paths', []))}.dsosnap"
        return save_snapshot(self.oracle.freeze(), path)

    def step(self) -> None:
        """Raise a few trap edges (trees left as they are) and lower
        one random edge (trees rebuilt)."""
        graph = self.graph
        for tail, head in self.rng.sample(
            self.traps, min(4, len(self.traps))
        ):
            self.maintainer.change_weight(
                tail, head, graph.weight(tail, head) * 2.5
            )
        tail, head, weight = self.rng.choice(sorted(graph.edges()))
        self.maintainer.change_weight(tail, head, weight * 0.6)
        self.paths.append(self.save())


def expected_answers(path, batch) -> list[str]:
    with load_snapshot(path) as engine:
        return hexes(engine.query_many(batch))


class TestApplyDelta:
    """The oracle layer alone: one engine patched through k files."""

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_k_deltas_match_a_fresh_load(self, tmp_path, seed):
        script = Script(tmp_path, seed)
        with load_snapshot(script.paths[0]) as engine:
            engine.index.build_views()
            batch = script.batch
            assert hexes(engine.query_many(batch)) == expected_answers(
                script.paths[0], batch
            )
            untouched_hit = False
            for _ in range(3):
                script.step()
                old, new = script.paths[-2], script.paths[-1]
                with_old = SnapshotReader(old)
                with_new = SnapshotReader(new)
                try:
                    edge_ids, ranks = snapshot_delta(with_old, with_new)
                finally:
                    with_old.close()
                    with_new.close()
                ends = [
                    engine.frozen.endpoints(edge_id) for edge_id in edge_ids
                ]
                untouched_hit |= any(
                    rank not in ranks
                    and any(
                        tail in tree.pos_of and head in tree.pos_of
                        for tail, head in ends
                    )
                    for rank, tree in enumerate(engine.index.trees)
                )
                apply_snapshot_delta(engine, new, edge_ids, ranks)
                with load_snapshot(new) as fresh:
                    fresh.index.build_views()
                    assert hexes(engine.query_many(batch)) == hexes(
                        fresh.query_many(batch)
                    )
                    assert hexes(
                        engine.query(q.source, q.target, q.failed)
                        for q in batch
                    ) == hexes(
                        fresh.query(q.source, q.target, q.failed)
                        for q in batch
                    )
                    # The views the overlay search reads, the reverse
                    # rows patched in place among them, are the ones a
                    # fresh load builds (== on floats: bitwise here).
                    for view in (
                        "overlay_rank_rows", "overlay_reverse_rows",
                        "overlay_min_weight", "overlay_head_ranks",
                        "inverted",
                    ):
                        assert getattr(engine.index, view) == getattr(
                            fresh.index, view
                        ), view
            # The script did reach the trap: a changed edge inside a
            # tree that no delta rebuilt.
            assert untouched_hit

    def test_delta_patches_only_the_changed_heads_reverse_rows(
        self, tmp_path
    ):
        script = Script(tmp_path, 3)
        script.step()
        old, new = script.paths
        with load_snapshot(old) as engine:
            engine.index.build_views()
            reverse = engine.index.overlay_reverse_rows
            before = [list(row) for row in reverse]
            row_objects = [id(row) for row in reverse]
            with_old, with_new = SnapshotReader(old), SnapshotReader(new)
            try:
                edge_ids, ranks = snapshot_delta(with_old, with_new)
            finally:
                with_old.close()
                with_new.close()
            heads = {
                head
                for rank in ranks
                for head, _, _ in engine.index.overlay[rank]
            }
            apply_snapshot_delta(engine, new, edge_ids, ranks)
            heads |= {
                head
                for rank in ranks
                for head, _, _ in engine.index.overlay[rank]
            }
            assert ranks and heads
            # Patched in place: the same list objects, and every row
            # outside the replaced ranks' heads untouched.
            assert [id(row) for row in reverse] == row_objects
            for head, row in enumerate(reverse):
                if head not in heads:
                    assert row == before[head], head

    def test_shape_change_has_no_delta(self, tmp_path):
        script = Script(tmp_path, 5)
        tail, head, _ = sorted(script.graph.edges())[0]
        script.maintainer.delete_edge(tail, head)
        script.paths.append(script.save())
        old, new = (SnapshotReader(path) for path in script.paths)
        try:
            reason = snapshot_delta(old, new)
        finally:
            old.close()
            new.close()
        assert isinstance(reason, str) and "changed" in reason


class TestDeltaSwap:
    """The serving layer: live workers patched by ``swap_snapshot``."""

    def test_k_delta_swaps_match_a_fresh_load(self, tmp_path, caplog):
        script = Script(tmp_path, 3)
        batch = script.batch
        segments = own_ring_segments()
        caplog.set_level(logging.INFO, logger=LOGGER)
        with make_service(script.paths[0], workers=2, cache_size=64) as svc:
            pids = [handle.pid for handle in svc._pool]
            assert hexes(svc.run(batch).answers) == expected_answers(
                script.paths[0], batch
            )
            for number in range(1, 4):
                script.step()
                epoch = svc.swap_snapshot(script.paths[-1])
                assert epoch == number + 1
                report = svc.run(batch)
                assert report.cache_hits == 0
                assert hexes(report.answers) == expected_answers(
                    script.paths[-1], batch
                )
            # No worker was restarted: the deltas were applied in place.
            assert [handle.pid for handle in svc._pool] == pids
            assert svc.total_restarts == 0
        assert multiprocessing.active_children() == []
        assert own_ring_segments() == segments
        messages = [record.getMessage() for record in caplog.records]
        swaps = [text for text in messages if "snapshot swap" in text]
        assert len(swaps) == 3
        assert all(": delta (" in text for text in swaps)
        assert all("max worker apply" in text for text in swaps)
        assert sum("retired snapshot epoch" in text for text in messages) == 3

    def test_crash_on_delta_is_replaced_onto_the_new_file(
        self, tmp_path, caplog
    ):
        script = Script(tmp_path, 8)
        batch = script.batch
        plan = FaultPlan.single("delta_crash", at=1, worker=0)
        caplog.set_level(logging.INFO, logger=LOGGER)
        segments = own_ring_segments()
        with make_service(
            script.paths[0], workers=2, fault_plan=plan
        ) as svc:
            svc.run(batch)
            ring = own_ring_segments() - segments
            assert len(ring) == 1
            script.step()
            svc.swap_snapshot(script.paths[-1])
            assert svc.total_restarts == 1
            # The replacement maps the pool's ring; no new one is made.
            assert own_ring_segments() - segments == ring
            assert hexes(svc.run(batch).answers) == expected_answers(
                script.paths[-1], batch
            )
            # The replacement loaded the new file and takes later
            # deltas in place (its generation has no fault).
            script.step()
            svc.swap_snapshot(script.paths[-1])
            assert svc.total_restarts == 1
            assert hexes(svc.run(batch).answers) == expected_answers(
                script.paths[-1], batch
            )
        assert multiprocessing.active_children() == []
        assert own_ring_segments() == segments
        messages = [record.getMessage() for record in caplog.records]
        assert sum("replaced worker 0" in text for text in messages) == 1

    def test_shape_change_takes_the_restart_path(self, tmp_path, caplog):
        script = Script(tmp_path, 5)
        batch = script.batch
        caplog.set_level(logging.INFO, logger=LOGGER)
        segments = own_ring_segments()
        with make_service(script.paths[0], workers=2) as svc:
            svc.run(batch)
            pids = [handle.pid for handle in svc._pool]
            ring = own_ring_segments() - segments
            assert len(ring) == 1
            tail, head, _ = sorted(script.graph.edges())[0]
            script.maintainer.delete_edge(tail, head)
            script.paths.append(script.save())
            svc.swap_snapshot(script.paths[-1])
            assert not set(pids) & {handle.pid for handle in svc._pool}
            # The restart unlinked the old ring and made one new one.
            restarted = own_ring_segments() - segments
            assert len(restarted) == 1 and not restarted & ring
            live = [
                q for q in batch
                if (tail, head) not in (q.failed or ())
            ]
            assert hexes(svc.run(live).answers) == expected_answers(
                script.paths[-1], live
            )
        assert multiprocessing.active_children() == []
        assert own_ring_segments() == segments
        swaps = [
            record.getMessage() for record in caplog.records
            if "snapshot swap" in record.getMessage()
        ]
        assert len(swaps) == 1
        assert ": restart (graph.offsets changed)" in swaps[0]

    def test_resaving_a_path_a_worker_first_loaded(self, tmp_path, caplog):
        """Swap A -> B by delta, re-save A with other tree sizes, swap
        back: the workers still read their unchanged lanes from the
        first A they mapped, which the re-save must leave intact."""
        script = Script(tmp_path, 3)
        batch = script.batch
        first = script.paths[0]

        def tree_offsets(path) -> bytes:
            reader = SnapshotReader(path)
            try:
                return bytes(reader.section("trees.offsets"))
            finally:
                reader.close()

        original = tree_offsets(first)
        caplog.set_level(logging.INFO, logger=LOGGER)
        with make_service(first, workers=2) as svc:
            pids = [handle.pid for handle in svc._pool]
            svc.run(batch)
            script.step()
            svc.swap_snapshot(script.paths[-1])
            while tree_offsets(script.paths[-1]) == original:
                script.step()
            save_snapshot(script.oracle.freeze(), first)
            assert tree_offsets(first) != original
            svc.swap_snapshot(first)
            assert [handle.pid for handle in svc._pool] == pids
            assert hexes(svc.run(batch).answers) == expected_answers(
                first, batch
            )
        assert multiprocessing.active_children() == []
        swaps = [
            record.getMessage() for record in caplog.records
            if "snapshot swap" in record.getMessage()
        ]
        assert len(swaps) == 2
        assert all(": delta (" in text for text in swaps)

    def test_failed_delta_retires_the_epoch(self, tmp_path, monkeypatch):
        """A delta whose replacement worker cannot load stops the pool;
        a later start() serves the new file with no old cache entry."""
        script = Script(tmp_path, 8)
        batch = script.batch
        plan = FaultPlan.single("delta_crash", at=1, worker=0)
        svc = make_service(
            script.paths[0], workers=2, cache_size=256, fault_plan=plan
        )
        try:
            svc.start()
            svc.run(batch)
            assert svc.run(batch).cache_hits > 0
            script.step()

            def fail_to_load(handle):
                raise RuntimeError(
                    f"worker {handle.index} failed to load snapshot"
                )

            monkeypatch.setattr(svc, "_await_ready", fail_to_load)
            with pytest.raises(RuntimeError, match="failed to load"):
                svc.swap_snapshot(script.paths[-1])
            assert svc._pool == [] and not svc._started
            assert multiprocessing.active_children() == []
            monkeypatch.undo()
            svc.start()
            report = svc.run(batch)
            assert report.cache_hits == 0
            assert hexes(report.answers) == expected_answers(
                script.paths[-1], batch
            )
        finally:
            svc.stop()
        assert multiprocessing.active_children() == []

    def test_served_file_rewritten_in_place_restarts(
        self, tmp_path, caplog
    ):
        script = Script(tmp_path, 8)
        batch = script.batch
        caplog.set_level(logging.INFO, logger=LOGGER)
        with make_service(script.paths[0], workers=2) as svc:
            svc.run(batch)
            script.step()
            served = script.paths[0]
            served.write_bytes(script.paths[-1].read_bytes())
            svc.swap_snapshot(served)
            assert hexes(svc.run(batch).answers) == expected_answers(
                served, batch
            )
        swaps = [
            record.getMessage() for record in caplog.records
            if "snapshot swap" in record.getMessage()
        ]
        assert swaps and "rewritten in place" in swaps[0]

    def test_swap_to_corrupt_file_then_to_good_file(self, tmp_path):
        """A delta-eligible update whose file is corrupt keeps the
        restart path's contract: "failed to load", pool stopped, no
        child left; the good file then serves."""
        script = Script(tmp_path, 21)
        batch = script.batch
        script.step()
        good = script.paths[-1]
        raw = bytearray(good.read_bytes())
        raw[-3] ^= 0xFF
        bad = tmp_path / "bad.dsosnap"
        bad.write_bytes(bytes(raw))
        with make_service(script.paths[0], workers=2, cache_size=64) as svc:
            svc.run(batch)
            with pytest.raises(RuntimeError, match="failed to load"):
                svc.swap_snapshot(bad)
            assert multiprocessing.active_children() == []
            assert svc._pool == [] and not svc._started
            svc.swap_snapshot(good)
            report = svc.run(batch)
            assert hexes(report.answers) == expected_answers(good, batch)
            assert report.cache_hits == 0
        assert multiprocessing.active_children() == []
