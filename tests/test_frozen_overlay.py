"""Frozen stitch plane tests: CSR compile, closure, kernels, serving.

The frozen plane must be bitwise-equal to the scalar stitcher
(:func:`~repro.sharding.oracle.stitch_over_borders`, which
:class:`~repro.sharding.oracle.ShardedOracle` stitches with) — poison
queries and error strings included — at K in {2, 4}, under failure
sets biased toward border-incident and cross-shard edges.  Bitwise
equality is meaningful because every graph here has integer (or unit)
weights, making float addition exact regardless of association order
(the closure fast path's one re-association included).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.oracle.diso import DISO
from repro.oracle.snapshot import SectionWriter, pack_container
from repro.serving.sharded import ShardedQueryService
from repro.sharding import (
    MANIFEST_NAME,
    FrozenOverlay,
    ShardedOracle,
    build_sharded,
    compile_overlay_csr,
    compute_border_closure,
    load_frozen_overlay,
    save_sharded_snapshot,
)
from repro.sharding.oracle import INFINITY, stitch_over_borders
from repro.sharding.snapshot import SHARD_MAGIC, SHARD_VERSION
from test_sharding import GRAPHS, _assert_same, _query_mix
from util import exact_random_graph


def _build(graph, parts, seed=1):
    build = build_sharded(graph, parts, method="metis", seed=seed)
    return build, ShardedOracle.from_build(build)


# ----------------------------------------------------------------------
# CSR compile + snapshot roundtrip
# ----------------------------------------------------------------------
class TestCompile:
    def test_compile_deterministic(self):
        _, sharded = _build(grid_network(5, 5), 2)
        assert compile_overlay_csr(sharded.overlay) == compile_overlay_csr(
            sharded.overlay
        )

    def test_layout_invariants(self):
        _, sharded = _build(exact_random_graph(11, n=30, extra=60), 4)
        overlay = sharded.overlay
        csr = compile_overlay_csr(overlay)
        borders = sorted(
            node for shard in overlay.shard_borders for node in shard
        )
        assert csr["border_ids"] == borders
        assert len(csr["offsets"]) == len(borders) + 1
        assert csr["offsets"][-1] == len(csr["heads"]) == len(csr["weights"])
        # Row u = full-width type-2 segment (diagonal 0.0 at the node's
        # local index) followed by its cross edges.
        frozen = FrozenOverlay.from_overlay(overlay)
        for dense, node in enumerate(borders):
            shard = csr["border_shard"][dense]
            local = csr["border_local"][dense]
            start = csr["offsets"][dense]
            width = len(overlay.shard_borders[shard])
            assert overlay.shard_borders[shard][local] == node
            assert csr["weights"][start + local] == 0.0
            cross = csr["offsets"][dense + 1] - start - width
            assert cross == len(overlay.cross_adjacency.get(node, ()))
        assert frozen.num_borders == len(borders)

    def test_roundtrip_matches_in_memory_compile(self, tmp_path):
        graph = exact_random_graph(12, n=40, extra=70)
        build, sharded = _build(graph, 4)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        loaded = load_frozen_overlay(target)
        direct = FrozenOverlay.from_overlay(
            sharded.overlay, compute_closure=True
        )
        try:
            assert np.array_equal(loaded.border_ids, direct.border_ids)
            assert np.array_equal(loaded.border_shard, direct.border_shard)
            assert np.array_equal(loaded.border_local, direct.border_local)
            assert np.array_equal(loaded.offsets, direct.offsets)
            assert np.array_equal(loaded.heads, direct.heads)
            assert np.array_equal(loaded.weights, direct.weights)
            assert np.array_equal(loaded.closure, direct.closure)
            assert loaded.cross_slot == direct.cross_slot
        finally:
            loaded.close()

    def test_loaded_arrays_are_zero_copy_views(self, tmp_path):
        build, _ = _build(grid_network(4, 4), 2)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        loaded = load_frozen_overlay(target)
        try:
            assert loaded.reader is not None
            for lane in (loaded.heads, loaded.weights, loaded.closure):
                assert not lane.flags.owndata  # view into the mmap
        finally:
            loaded.close()
        assert loaded.reader is None

    def test_old_manifest_falls_back_to_compile(self, tmp_path):
        """Manifests predating the frozen.* sections still load."""
        graph = grid_network(4, 4)
        build, sharded = _build(graph, 2)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        # Re-pack the manifest with only the PR 8 sections.
        plan = build.plan
        writer = SectionWriter()
        nodes = sorted(plan.assignment)
        writer.add("assignment.nodes", "q", nodes)
        writer.add(
            "assignment.parts", "q", [plan.assignment[n] for n in nodes]
        )
        writer.add("borders.all", "q", plan.borders)
        for shard in range(plan.parts):
            writer.add(f"shard{shard}.borders", "q", plan.shard_borders[shard])
            writer.add(
                f"shard{shard}.matrix",
                "d",
                [w for row in build.border_matrices[shard] for w in row],
            )
        writer.add("cross.tails", "q", [e[0] for e in plan.cross_edges])
        writer.add("cross.heads", "q", [e[1] for e in plan.cross_edges])
        writer.add("cross.weights", "d", [e[2] for e in plan.cross_edges])
        meta = {
            "parts": plan.parts,
            "shard_files": [f"shard-{s:04d}.dsosnap" for s in range(2)],
        }
        (target / MANIFEST_NAME).write_bytes(
            pack_container(
                writer,
                magic=SHARD_MAGIC,
                version=SHARD_VERSION,
                engine="ShardedSnapshot",
                meta=meta,
            )
        )
        fallback = load_frozen_overlay(target)
        assert fallback.reader is None  # compiled, not mmapped
        direct = FrozenOverlay.from_overlay(
            sharded.overlay, compute_closure=True
        )
        assert np.array_equal(fallback.weights, direct.weights)
        assert np.array_equal(fallback.closure, direct.closure)


# ----------------------------------------------------------------------
# Closure matrix
# ----------------------------------------------------------------------
class TestClosure:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_closure_matches_scalar_walk(self, graph_name):
        """closure[i][j] == the scalar stitch from a zero seed, bitwise."""
        _, sharded = _build(GRAPHS[graph_name](), 2)
        overlay = sharded.overlay
        closure = compute_border_closure(overlay)
        borders = sorted(
            node for shard in overlay.shard_borders for node in shard
        )
        adjacency = overlay.adjacency()
        for i, source in enumerate(borders):
            for j, target in enumerate(borders):
                want = stitch_over_borders(
                    [(source, 0.0)], {target: 0.0}, adjacency
                )
                _assert_same(closure[i][j], want)

    def test_build_attaches_closure(self, tmp_path):
        graph = grid_network(5, 5)
        build, sharded = _build(graph, 3)
        assert build.border_closure == compute_border_closure(sharded.overlay)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        loaded = load_frozen_overlay(target)
        try:
            assert np.array_equal(
                loaded.closure, np.asarray(build.border_closure)
            )
        finally:
            loaded.close()

    def test_closure_answer_matches_scalar_stitch(self):
        graph = exact_random_graph(11, n=30, extra=60)
        build, sharded = _build(graph, 4)
        overlay = sharded.overlay
        frozen = FrozenOverlay.from_overlay(
            overlay, closure=build.border_closure
        )
        rng = random.Random(17)
        nodes = sorted(graph.nodes())
        adjacency = overlay.adjacency()
        checked = 0
        for _ in range(40):
            source, target = rng.choice(nodes), rng.choice(nodes)
            shard_s = overlay.assignment[source]
            shard_t = overlay.assignment[target]
            if shard_s == shard_t:
                continue
            oracle_s = sharded.shard_oracles[shard_s]
            oracle_t = sharded.shard_oracles[shard_t]
            sources = [
                (b, oracle_s.query(source, b))
                for b in overlay.shard_borders[shard_s]
            ]
            targets = [
                (b, oracle_t.query(b, target))
                for b in overlay.shard_borders[shard_t]
            ]
            want = stitch_over_borders(
                sources,
                {b: v for b, v in targets if v < INFINITY},
                adjacency,
            )
            _assert_same(frozen.closure_answer(sources, targets), want)
            checked += 1
        assert checked > 10

    def test_closure_answer_respects_upper_bound(self):
        build, sharded = _build(grid_network(4, 4), 2)
        frozen = FrozenOverlay.from_overlay(
            sharded.overlay, closure=build.border_closure
        )
        borders = [int(b) for b in frozen.border_ids]
        sources = [(borders[0], 0.0)]
        targets = [(borders[-1], 0.0)]
        unbounded = frozen.closure_answer(sources, targets)
        assert frozen.closure_answer(sources, targets, upper_bound=0.0) == 0.0
        assert frozen.closure_answer(sources, targets, 2 * unbounded + 1) \
            == unbounded
        # No finite leg on either side: the upper bound stands.
        assert frozen.closure_answer([], targets, 7.0) == 7.0
        assert frozen.closure_answer(
            [(borders[0], INFINITY)], targets, 7.0
        ) == 7.0


# ----------------------------------------------------------------------
# The batched stitch kernel
# ----------------------------------------------------------------------
def _legs_for(sharded, source, target, per_shard):
    overlay = sharded.overlay
    shard_s = overlay.assignment[source]
    shard_t = overlay.assignment[target]
    f_s = per_shard.get(shard_s, frozenset())
    f_t = per_shard.get(shard_t, frozenset())
    sources = [
        (b, sharded.shard_oracles[shard_s].query(source, b, f_s))
        for b in overlay.shard_borders[shard_s]
    ]
    targets = [
        (b, sharded.shard_oracles[shard_t].query(b, target, f_t))
        for b in overlay.shard_borders[shard_t]
    ]
    upper = INFINITY
    if shard_s == shard_t:
        upper = sharded.shard_oracles[shard_s].query(source, target, f_s)
    return sources, targets, upper


class TestStitchBatch:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("parts", [2, 4])
    def test_failure_free_batch_matches_scalar(self, graph_name, parts):
        graph = GRAPHS[graph_name]()
        _, sharded = _build(graph, parts)
        overlay = sharded.overlay
        frozen = FrozenOverlay.from_overlay(overlay)
        rng = random.Random(5)
        nodes = sorted(graph.nodes())
        batch = [
            _legs_for(sharded, rng.choice(nodes), rng.choice(nodes), {})
            for _ in range(25)
        ]
        stitched = frozen.stitch_batch(batch)
        adjacency = overlay.adjacency()
        for answer, (sources, targets, upper) in zip(stitched, batch):
            want = stitch_over_borders(
                sources,
                {b: v for b, v in targets if v < INFINITY},
                adjacency,
                upper_bound=upper,
            )
            _assert_same(float(answer), want)

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_patched_batch_matches_scalar(self, graph_name):
        """One repaired + cross-failed patch shared by a whole batch."""
        graph = GRAPHS[graph_name]()
        build, sharded = _build(graph, 4)
        overlay = sharded.overlay
        frozen = FrozenOverlay.from_overlay(overlay)
        rng = random.Random(9)
        # A failure set hitting border-incident intra-shard edges plus
        # cross-shard edges — the hard classes from the parity suite.
        failed = set(rng.sample(sorted(overlay.cross_keys), 2))
        border_set = {b for shard in overlay.shard_borders for b in shard}
        intra = [
            (tail, head)
            for tail, head, _ in graph.edges()
            if overlay.assignment[tail] == overlay.assignment[head]
            and (tail in border_set or head in border_set)
        ]
        failed.update(rng.sample(intra, min(len(intra), 3)))
        per_shard, cross_failed = overlay.split_failures(
            frozenset(failed), sharded.reach
        )
        repaired = {
            shard: sharded.repair_rows(shard, per_shard[shard])
            for shard in overlay.shards_touched(per_shard)
        }
        assert repaired and cross_failed  # the patch is non-trivial
        nodes = sorted(graph.nodes())
        batch = [
            _legs_for(
                sharded, rng.choice(nodes), rng.choice(nodes), per_shard
            )
            for _ in range(20)
        ]
        stitched = frozen.stitch_batch(
            batch, repaired=repaired, cross_failed=cross_failed
        )
        adjacency = overlay.adjacency(repaired, cross_failed)
        for answer, (sources, targets, upper) in zip(stitched, batch):
            want = stitch_over_borders(
                sources,
                {b: v for b, v in targets if v < INFINITY},
                adjacency,
                upper_bound=upper,
            )
            _assert_same(float(answer), want)

    def test_patched_weights_shapes(self):
        build, sharded = _build(grid_network(5, 5), 2)
        overlay = sharded.overlay
        frozen = FrozenOverlay.from_overlay(overlay)
        # No patch: the shared base lane itself, untouched.
        assert frozen.patched_weights() is frozen.weights
        edge = sorted(overlay.cross_keys)[0]
        patched = frozen.patched_weights(cross_failed=[edge])
        assert patched is not frozen.weights
        assert patched[frozen.cross_slot[edge]] == INFINITY
        assert frozen.weights[frozen.cross_slot[edge]] < INFINITY
        # Unknown cross edges are ignored, like the scalar plane.
        assert np.array_equal(
            frozen.patched_weights(cross_failed=[(-1, -2)]), frozen.weights
        )

    def test_empty_batch_and_empty_seeds(self):
        _, sharded = _build(grid_network(4, 4), 2)
        frozen = FrozenOverlay.from_overlay(sharded.overlay)
        assert frozen.stitch_batch([]).size == 0
        borders = [int(b) for b in frozen.border_ids]
        # All-inf leads: the upper bound survives untouched.
        out = frozen.stitch_batch(
            [([(borders[0], INFINITY)], [(borders[1], 0.0)], 4.5)]
        )
        assert out.tolist() == [4.5]


# ----------------------------------------------------------------------
# Serving-level parity: frozen serving plane vs the scalar walk
# ----------------------------------------------------------------------
def _scalar_reference(sharded, batch):
    """``ShardedOracle`` (scalar stitch) answers and error strings in
    the service's report form: NaN plus ``"Type: message"`` on error."""
    answers, errors = [], []
    for source, target, failed in batch:
        try:
            answers.append(sharded.query(source, target, failed))
            errors.append(None)
        except QueryError as exc:
            answers.append(float("nan"))
            errors.append(f"{type(exc).__name__}: {exc}")
    return answers, errors


class TestServingParity:
    @pytest.mark.parametrize(
        "graph_name,parts", [("grid6", 2), ("rand40", 4)]
    )
    def test_planes_agree_bitwise(self, graph_name, parts, tmp_path):
        """Same batch through the service's frozen plane and the
        scalar walk: answers and error strings byte-identical, poison
        queries included."""
        graph = GRAPHS[graph_name]()
        build, sharded = _build(graph, parts)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        batch = list(_query_mix(graph, build.plan, seed=31, count=30))
        batch.append((999, 0, None))  # poison source
        batch.append((0, 999, None))  # poison target
        want_answers, want_errors = _scalar_reference(sharded, batch)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            frozen = service.run(batch)
        assert frozen.errors == want_errors
        for got, want in zip(frozen.answers, want_answers):
            _assert_same(got, want)
        # Failure-free cross-shard queries rode the closure fast path.
        assert frozen.closure_hits > 0
        assert frozen.stitch_seconds > 0.0

    def test_frozen_matches_reference_oracle(self, tmp_path):
        graph = grid_network(5, 5)
        build, _ = _build(graph, 2)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        reference = DISO(graph, tau=3).freeze()
        batch = list(_query_mix(graph, build.plan, seed=13, count=25))
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run(batch)
        for position, (source, target_node, failed) in enumerate(batch):
            assert report.errors[position] is None
            _assert_same(
                report.answers[position],
                reference.query(source, target_node, failed),
            )


# ----------------------------------------------------------------------
# Repaired-row memoization across batches
# ----------------------------------------------------------------------
class TestRepairMemo:
    def _mixed_failure_batch(self, graph, build):
        """Cross-shard queries under two distinct intra-shard failure
        sets plus failure-free ones — three patch groups in one batch."""
        overlay = ShardedOracle.from_build(build).overlay
        border_set = {b for shard in overlay.shard_borders for b in shard}
        by_shard: dict[int, list[int]] = {}
        for node, shard in build.plan.assignment.items():
            by_shard.setdefault(shard, []).append(node)
        intra = [
            (tail, head)
            for tail, head, _ in graph.edges()
            if overlay.assignment[tail] == overlay.assignment[head]
            and tail in border_set
        ]
        f1 = (intra[0],)
        f2 = (intra[0], intra[1])
        source = sorted(by_shard[0])[0]
        target = sorted(by_shard[1])[0]
        return [
            (source, target, None),
            (source, target, f1),
            (target, source, f1),
            (source, target, f2),
            (target, source, f2),
        ]

    def test_second_batch_skips_repair_legs(self, tmp_path):
        graph = grid_network(6, 6)
        build, _ = _build(graph, 2)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        batch = self._mixed_failure_batch(graph, build)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            first = service.run(batch)
            assert len(service._repair_memo) > 0
            second = service.run(batch)
            # Repair legs resolved once: the second run plans strictly
            # fewer shard legs, and the answers do not move.
            assert sum(second.shard_loads) < sum(first.shard_loads)
            for got, want in zip(second.answers, first.answers):
                _assert_same(got, want)
            # Retiring any shard epoch drops the memo — the rows embed
            # answers from the retired snapshot generation.
            service.retire_snapshot_epoch()
            assert service._repair_memo == {}
            third = service.run(batch)
            assert sum(third.shard_loads) == sum(first.shard_loads)
            for got, want in zip(third.answers, first.answers):
                _assert_same(got, want)

    def test_memoized_batches_match_scalar_plane(self, tmp_path):
        graph = grid_network(6, 6)
        build, sharded = _build(graph, 2)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        batch = self._mixed_failure_batch(graph, build)
        want_answers, want_errors = _scalar_reference(sharded, batch)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            service.run(batch)  # warm the memo
            got = service.run(batch)  # answered via memoized rows
        assert got.errors == want_errors
        for got_answer, want_answer in zip(got.answers, want_answers):
            _assert_same(got_answer, want_answer)


# ----------------------------------------------------------------------
# Zero-border and isolated-shard edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_single_shard_has_no_borders(self, tmp_path):
        graph = grid_network(4, 4)
        build = build_sharded(graph, 1, seed=0)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        loaded = load_frozen_overlay(target)
        try:
            assert loaded.num_borders == 0
            assert loaded.closure.shape == (0, 0)
            assert loaded.stitch_batch([([], [], 3.0)]).tolist() == [3.0]
        finally:
            loaded.close()
        reference = DISO(graph, tau=3).freeze()
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run([(0, 15, None), (15, 0, None)])
        assert report.closure_hits == 0  # nothing to stitch
        _assert_same(report.answers[0], reference.query(0, 15))
        _assert_same(report.answers[1], reference.query(15, 0))

    def test_disconnected_shards_stitch_to_infinity(self, tmp_path):
        graph = DiGraph()
        for base in (0, 10):
            for i in range(4):
                graph.add_edge(base + i, base + (i + 1) % 4, 1.0)
                graph.add_edge(base + (i + 1) % 4, base + i, 1.0)
        build = build_sharded(graph, 2, method="metis", seed=0)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        batch = [(0, 12, None), (12, 0, None), (0, 3, None)]
        want, _ = _scalar_reference(ShardedOracle.from_build(build), batch)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            answers = service.run(batch).answers
        for got, expected in zip(answers, want):
            _assert_same(got, expected)
        assert math.isinf(answers[0])
        assert answers[2] == 1.0
