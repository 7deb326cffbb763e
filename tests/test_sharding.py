"""Sharded serving plane tests: plans, parity, snapshots, serving.

The acceptance bar (ISSUE 8): stitched answers must be bitwise-equal
to the unsharded frozen oracle — NaN sentinel included — on seeded
graphs at K in {2, 4}, under failure sets that delete border-incident
and cross-shard edges.  Bitwise equality is meaningful because every
graph here has integer (or unit) weights, making float addition exact
regardless of association order.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import FormatError, PartitionError, QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.oracle.diso import DISO
from repro.pathing.dijkstra import dijkstra
from repro.sharding import (
    MANIFEST_NAME,
    ShardedOracle,
    build_sharded,
    compute_border_matrix,
    load_shard_plan_overlay,
    load_sharded_snapshot,
    make_shard_plan,
    save_sharded_snapshot,
    sharded_snapshot_info,
)
from repro.serving.sharded import ShardedQueryService
from util import exact_random_graph


def _reference(graph):
    return DISO(graph, tau=3).freeze()


def _assert_same(got: float, want: float) -> None:
    """Bitwise equality, with inf==inf and NaN==NaN."""
    if math.isinf(want):
        assert math.isinf(got)
    elif math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want


def _query_mix(graph, plan, seed: int, count: int):
    """Random (s, t, F) triples biased toward the hard failure classes:
    failure sets deleting border-incident edges and cross-shard edges."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    edges = [(tail, head) for tail, head, _ in graph.edges()]
    cross = [(tail, head) for tail, head, _ in plan.cross_edges]
    border_set = set(plan.borders)
    border_edges = [
        (tail, head)
        for tail, head in edges
        if tail in border_set or head in border_set
    ]
    for _ in range(count):
        failed: set = set()
        if cross and rng.random() < 0.5:
            failed.update(rng.sample(cross, min(len(cross), 2)))
        if border_edges and rng.random() < 0.5:
            failed.update(rng.sample(border_edges, min(len(border_edges), 2)))
        if rng.random() < 0.4:
            failed.update(rng.sample(edges, min(len(edges), 2)))
        yield (
            rng.choice(nodes),
            rng.choice(nodes),
            frozenset(failed) or None,
        )


class TestShardPlan:
    def test_every_sequence_sorted(self):
        plan = make_shard_plan(grid_network(5, 5), 3, seed=1)
        assert list(plan.borders) == sorted(plan.borders)
        for nodes in plan.shard_nodes:
            assert list(nodes) == sorted(nodes)
            assert nodes  # never empty
        for borders in plan.shard_borders:
            assert list(borders) == sorted(borders)
        assert list(plan.cross_edges) == sorted(plan.cross_edges)

    def test_borders_union_and_cross_endpoints(self):
        graph = grid_network(5, 5)
        plan = make_shard_plan(graph, 3, seed=1)
        union = sorted(
            node for borders in plan.shard_borders for node in borders
        )
        assert union == list(plan.borders)
        border_set = set(plan.borders)
        for tail, head, weight in plan.cross_edges:
            assert tail in border_set and head in border_set
            assert plan.shard_of(tail) != plan.shard_of(head)
            assert weight == graph.weight(tail, head)

    def test_cut_matches_cross_edges(self):
        plan = make_shard_plan(grid_network(4, 4), 2, seed=0)
        assert plan.edge_cut == len(plan.cross_edges)
        assert (plan.edge_cut > 0) == (plan.num_borders > 0)

    def test_bad_method_raises(self):
        with pytest.raises(ValueError):
            make_shard_plan(grid_network(3, 3), 2, method="kmeans")

    def test_empty_graph_raises(self):
        with pytest.raises(PartitionError):
            make_shard_plan(DiGraph(), 2)

    def test_nonpositive_parts_raise(self):
        for parts in (0, -3):
            with pytest.raises(PartitionError):
                make_shard_plan(grid_network(3, 3), parts)

    def test_single_part_skips_partitioner(self):
        """K=1 plans need no partitioner and produce no borders, so no
        query ever stitches — the PartitionError-free trivial path."""
        graph = grid_network(4, 4)
        plan = make_shard_plan(graph, 1, seed=0)
        assert plan.parts == 1
        assert set(plan.assignment.values()) == {0}
        assert plan.num_borders == 0
        assert plan.cross_edges == ()
        assert plan.edge_cut == 0

    def test_too_many_parts_raises(self):
        with pytest.raises(PartitionError):
            make_shard_plan(grid_network(2, 2), 9)

    def test_deterministic(self):
        graph = exact_random_graph(5, n=24, extra=40)
        assert make_shard_plan(graph, 4, seed=2) == make_shard_plan(
            graph, 4, seed=2
        )


class TestBorderMatrix:
    def test_diagonal_zero_rows_match_shards(self):
        graph = grid_network(4, 4)
        plan = make_shard_plan(graph, 2, seed=1)
        shard_graph = graph.subgraph(plan.shard_nodes[0])
        matrix = compute_border_matrix(shard_graph, plan.shard_borders[0])
        width = len(plan.shard_borders[0])
        assert len(matrix) == width
        for i, row in enumerate(matrix):
            assert len(row) == width
            assert row[i] == 0.0

    @staticmethod
    def _reference(shard_graph, borders):
        """One forward Dijkstra per border, read at the border columns."""
        rows = []
        for border in borders:
            distances, _ = dijkstra(shard_graph, border)
            rows.append([distances.get(b, math.inf) for b in borders])
        return rows

    def test_rows_are_dijkstra_on_a_directed_float_shard(self):
        # 0 -> 1 -> 2 -> 3 one way only, plus a float shortcut 0 -> 2;
        # border 3 reaches no other border and border 2 not border 0.
        shard = DiGraph([
            (0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.31), (2, 3, 0.7),
            (1, 4, 1.3), (4, 3, 0.05),
        ])
        borders = (0, 2, 3, 4)
        matrix = compute_border_matrix(shard, borders)
        assert matrix == self._reference(shard, borders)
        assert math.isinf(matrix[2][0]) and math.isinf(matrix[1][0])
        # 0.1 + 0.2 < 0.31 in floats: the row keeps Dijkstra's sum.
        assert matrix[0][1] == 0.1 + 0.2

    def test_grid_cut_matches_reference(self):
        build = build_sharded(
            grid_network(20, 20), 2, method="metis", seed=1, tau=4,
            theta=1.0,
        )
        for shard, shard_graph in enumerate(build.shard_graphs):
            borders = build.plan.shard_borders[shard]
            assert build.border_matrices[shard] == self._reference(
                shard_graph, borders
            )

    def test_empty_borders(self):
        graph = grid_network(3, 3)
        assert compute_border_matrix(graph, ()) == []


class TestStitchEarlyExit:
    """Degenerate stitches return the upper bound without walking."""

    def _counting_adjacency(self):
        calls = []

        def adjacency(u):
            calls.append(u)
            return ()

        return adjacency, calls

    def test_empty_targets_skip_the_walk(self):
        from repro.sharding.oracle import stitch_over_borders

        adjacency, calls = self._counting_adjacency()
        best = stitch_over_borders(
            [(1, 0.0), (2, 3.0)], {}, adjacency, upper_bound=5.0
        )
        assert best == 5.0
        assert calls == []

    def test_all_infinite_leads_skip_the_walk(self):
        from repro.sharding.oracle import stitch_over_borders

        adjacency, calls = self._counting_adjacency()
        inf = float("inf")
        best = stitch_over_borders(
            [(1, inf), (2, inf)], {3: 0.0}, adjacency, upper_bound=7.0
        )
        assert best == 7.0
        assert calls == []


GRAPHS = {
    "grid6": lambda: grid_network(6, 6),
    "rand30": lambda: exact_random_graph(11, n=30, extra=60),
    "rand40": lambda: exact_random_graph(12, n=40, extra=70),
}


class TestShardedParity:
    """Sharded answers == unsharded answers, bitwise."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("parts", [2, 4])
    def test_bitwise_parity(self, graph_name, parts):
        graph = GRAPHS[graph_name]()
        reference = _reference(graph)
        build = build_sharded(graph, parts, method="metis", seed=1)
        sharded = ShardedOracle.from_build(build)
        for source, target, failed in _query_mix(
            graph, build.plan, seed=7, count=80
        ):
            _assert_same(
                sharded.query(source, target, failed),
                reference.query(source, target, failed),
            )

    @pytest.mark.parametrize("method", ["metis", "spectral", "uniform"])
    def test_parity_across_partitioners(self, method):
        graph = grid_network(5, 5)
        reference = _reference(graph)
        build = build_sharded(graph, 3, method=method, seed=2)
        sharded = ShardedOracle.from_build(build)
        for source, target, failed in _query_mix(
            graph, build.plan, seed=3, count=50
        ):
            _assert_same(
                sharded.query(source, target, failed),
                reference.query(source, target, failed),
            )

    def test_poison_queries_match_unsharded_errors(self):
        graph = grid_network(4, 4)
        reference = _reference(graph)
        sharded = ShardedOracle.from_build(build_sharded(graph, 2, seed=1))
        for source, target in ((999, 0), (0, 999)):
            with pytest.raises(QueryError) as unsharded_exc:
                reference.query(source, target)
            with pytest.raises(QueryError) as sharded_exc:
                sharded.query(source, target)
            assert str(sharded_exc.value) == str(unsharded_exc.value)

    def test_single_shard_is_local_only(self):
        graph = grid_network(4, 4)
        reference = _reference(graph)
        sharded = ShardedOracle.from_build(build_sharded(graph, 1, seed=0))
        assert sharded.overlay.shard_borders == ((),)
        for node in (0, 5, 15):
            _assert_same(
                sharded.query(0, node), reference.query(0, node)
            )

    def test_disconnected_components_cross_shard_unreachable(self):
        graph = DiGraph()
        for base in (0, 10):
            for i in range(4):
                graph.add_edge(base + i, base + (i + 1) % 4, 1.0)
                graph.add_edge(base + (i + 1) % 4, base + i, 1.0)
        build = build_sharded(graph, 2, method="metis", seed=0)
        sharded = ShardedOracle.from_build(build)
        # The ISC cover is empty on this graph, so pin the transit set.
        reference = DISO(graph, tau=3, transit=set(graph.nodes())).freeze()
        _assert_same(sharded.query(0, 12), reference.query(0, 12))
        _assert_same(sharded.query(0, 3), reference.query(0, 3))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        parts=st.sampled_from([2, 4]),
    )
    def test_parity_property(self, seed, parts):
        """Random graphs, random failure sets hitting borders and cross
        edges — the stitched plane never disagrees with the oracle."""
        graph = exact_random_graph(seed, n=16, extra=26)
        reference = _reference(graph)
        build = build_sharded(graph, parts, method="uniform", seed=seed)
        sharded = ShardedOracle.from_build(build)
        for source, target, failed in _query_mix(
            graph, build.plan, seed=seed + 1, count=25
        ):
            _assert_same(
                sharded.query(source, target, failed),
                reference.query(source, target, failed),
            )


class TestShardedSnapshot:
    def test_roundtrip_parity(self, tmp_path):
        graph = grid_network(5, 5)
        reference = _reference(graph)
        build = build_sharded(graph, 3, seed=1)
        target = save_sharded_snapshot(build, tmp_path / "sharded")
        assert (target / MANIFEST_NAME).exists()
        restored = load_sharded_snapshot(target)
        for source, target_node, failed in _query_mix(
            graph, build.plan, seed=9, count=40
        ):
            _assert_same(
                restored.query(source, target_node, failed),
                reference.query(source, target_node, failed),
            )

    def test_manifest_bytes_deterministic(self, tmp_path):
        graph = exact_random_graph(4, n=20, extra=30)
        build = build_sharded(graph, 3, seed=5)
        a = save_sharded_snapshot(build, tmp_path / "a") / MANIFEST_NAME
        b = save_sharded_snapshot(build, tmp_path / "b") / MANIFEST_NAME
        assert a.read_bytes() == b.read_bytes()

    def test_info_reports_layout(self, tmp_path):
        graph = grid_network(4, 4)
        build = build_sharded(graph, 2, seed=1)
        target = save_sharded_snapshot(build, tmp_path / "sharded")
        info = sharded_snapshot_info(target)
        meta = info["meta"]
        assert meta["parts"] == 2
        assert meta["method"] == "metis"
        assert meta["num_nodes"] == 16
        assert sum(meta["shard_sizes"]) == 16
        assert len(info["shard_file_bytes"]) == 2
        assert all(
            size and size > 0 for size in info["shard_file_bytes"].values()
        )
        assert info["manifest_bytes"] > 0

    def test_overlay_only_load_skips_shards(self, tmp_path):
        graph = grid_network(4, 4)
        build = build_sharded(graph, 2, seed=1)
        target = save_sharded_snapshot(build, tmp_path / "sharded")
        # Dispatcher-side load must not need the shard files at all.
        for path in target.glob("shard-*.dsosnap"):
            path.rename(path.with_suffix(".moved"))
        overlay, meta, shard_paths = load_shard_plan_overlay(target)
        assert overlay.parts == 2
        assert set(overlay.assignment) == set(graph.nodes())
        assert len(shard_paths) == 2

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FormatError):
            load_sharded_snapshot(tmp_path)

    def test_unsharded_snapshot_rejected(self, tmp_path):
        from repro.oracle.snapshot import save_snapshot

        graph = grid_network(3, 3)
        path = tmp_path / MANIFEST_NAME
        save_snapshot(_reference(graph), path)
        with pytest.raises(FormatError):
            load_sharded_snapshot(tmp_path)


class TestShardedServing:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        graph = grid_network(5, 5)
        build = build_sharded(graph, 2, seed=1)
        target = save_sharded_snapshot(
            build, tmp_path_factory.mktemp("sharded") / "snap"
        )
        return graph, build, target

    def test_serving_parity_and_stats(self, served):
        graph, build, target = served
        reference = _reference(graph)
        batch = list(_query_mix(graph, build.plan, seed=21, count=25))
        batch.append((999, 0, None))  # poison source
        batch.append((0, 999, None))  # poison target
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run(batch)
        assert len(report.answers) == len(batch)
        for position, (source, target_node, failed) in enumerate(batch):
            try:
                want = reference.query(source, target_node, failed)
            except QueryError as exc:
                assert math.isnan(report.answers[position])
                assert report.errors[position] == f"QueryError: {exc}"
                continue
            assert report.errors[position] is None
            _assert_same(report.answers[position], want)
        # Shard-aware routing stats.
        assert report.shards == 2
        assert 0.0 <= report.cross_shard_ratio <= 1.0
        assert len(report.shard_loads) == 2
        assert sum(report.shard_loads) > 0
        summary = report.summary()
        assert summary["shards"] == 2
        assert summary["cross_shard_ratio"] == round(
            report.cross_shard_ratio, 3
        )

    def test_cross_shard_ratio_counts_cross_queries(self, served):
        graph, build, target = served
        assignment = build.plan.assignment
        by_shard: dict[int, list[int]] = {}
        for node, shard in assignment.items():
            by_shard.setdefault(shard, []).append(node)
        same = (by_shard[0][0], by_shard[0][-1], None)
        cross = (by_shard[0][0], by_shard[1][0], None)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run([same, cross, cross, same])
        assert report.cross_shard_ratio == 0.5

    def test_workers_accounting(self, served):
        _, _, target = served
        with ShardedQueryService(target, workers_per_shard=2) as service:
            assert service.workers == 4
            report = service.run([(0, 24, None)])
        assert report.workers == 4
        assert len(report.per_worker) == 4
        assert [stats.index for stats in report.per_worker] == [0, 1, 2, 3]

    def test_result_cache_spans_shard_epochs(self, served):
        graph, build, target = served
        batch = list(_query_mix(graph, build.plan, seed=33, count=10))
        batch.append(batch[0])  # within-batch duplicate
        with ShardedQueryService(
            target, workers_per_shard=1, cache_size=64
        ) as service:
            first = service.run(batch)
            assert first.cache_hits >= 1  # the duplicate coalesced
            second = service.run(batch)
            # Everything answered from the dispatcher cache: no legs
            # planned, no shard dispatched.
            assert second.cache_hits == len(batch)
            assert sum(second.shard_loads) == 0
            for got, want in zip(second.answers, first.answers):
                _assert_same(got, want)
            # The cache stamp is the *sum* of shard epochs: retiring
            # (any) shard snapshots invalidates every stitched answer.
            before = service.snapshot_epoch
            assert service.retire_snapshot_epoch() > before
            third = service.run(batch)
            assert third.cache_hits == 1  # only the duplicate again
            assert sum(third.shard_loads) > 0
            for got, want in zip(third.answers, first.answers):
                _assert_same(got, want)
            stats = service.cache_stats()
            assert stats is not None and stats["hits"] >= len(batch)

    def test_deadline_sheds_whole_queries(self, served):
        _, _, target = served
        batch = [(0, 24, None), (24, 0, None), (0, 12, None)]
        with ShardedQueryService(
            target, workers_per_shard=1, deadline_ms=1e-6
        ) as service:  # impossible budget: everything sheds
            report = service.run(batch)
        assert report.shed_count == len(batch)
        assert set(report.statuses) == {"shed"}
        assert all(math.isnan(answer) for answer in report.answers)
        assert report.error_count == 0
