"""Affected-only border repair: the rows, the test, and the dispatcher.

A failure set ``F_k`` inside shard ``k`` re-asks shard ``k``'s oracle
only for the border pairs it can reach (``ShardReach.affected_pairs``);
every other entry keeps the failure-free matrix value.  These tests pin
that down against two references: a direct Dijkstra on ``G_k \\ F_k``
(the definition) and the full "re-ask every ordered border pair"
repair (the behaviour being replaced).  Integer-weight graphs compare
bitwise; float-weight graphs compare within ``AFFECTED_SLACK``.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import grid_network
from repro.pathing.dijkstra import dijkstra
from repro.serving.cache import canonical_query_key
from repro.serving.sharded import _REPAIR_MEMO_LIMIT, ShardedQueryService
from repro.sharding import (
    ShardedOracle,
    build_sharded,
    load_shard_reach,
    save_sharded_snapshot,
)
from repro.sharding.oracle import AFFECTED_SLACK, INFINITY
from test_sharding import _assert_same, _query_mix, _reference
from util import exact_random_graph, random_graph


def _direct_rows(shard_graph, borders, failed) -> list[list[float]]:
    """Border matrix of ``shard_graph`` minus ``failed``, by Dijkstra."""
    rows = []
    for a in borders:
        dist, _ = dijkstra(shard_graph, a, set(failed))
        rows.append([dist.get(b, INFINITY) for b in borders])
    return rows


def _reask_every_pair(oracle, borders, failed) -> list[list[float]]:
    """The replaced repair: every ordered border pair re-asked."""
    return [
        [0.0 if a == b else oracle.query(a, b, failed) for b in borders]
        for a in borders
    ]


def _shard_failures(graph, build, shard: int, rng: random.Random):
    """A failure set inside ``shard`` biased to the hard classes.

    Mixes border-incident edges, every out- or in-edge of one border
    (cutting it off inside the shard), random shard edges, and a
    same-shard pair that is not an edge (which must change nothing).
    """
    assignment = build.plan.assignment
    borders = build.plan.shard_borders[shard]
    border_set = set(borders)
    edges = [
        (tail, head)
        for tail, head, _ in graph.edges()
        if assignment[tail] == shard and assignment[head] == shard
    ]
    failed: set = set()
    if not edges:
        return frozenset()
    incident = [e for e in edges if e[0] in border_set or e[1] in border_set]
    if incident and rng.random() < 0.7:
        failed.update(rng.sample(incident, min(len(incident), 2)))
    if borders and rng.random() < 0.3:
        cut = rng.choice(borders)
        side = rng.randrange(2)
        failed.update(e for e in edges if e[side] == cut)
    if rng.random() < 0.5:
        failed.update(rng.sample(edges, min(len(edges), 2)))
    nodes = sorted(n for n, owner in assignment.items() if owner == shard)
    if len(nodes) > 1 and rng.random() < 0.3:
        tail, head = rng.sample(nodes, 2)
        if not graph.has_edge(tail, head):
            failed.add((tail, head))
    return frozenset(failed) or frozenset(rng.sample(edges, 1))


def _failure_sets(graph, build, seed: int, count: int):
    rng = random.Random(seed)
    shards = [
        shard
        for shard, borders in enumerate(build.plan.shard_borders)
        if borders
    ]
    for _ in range(count):
        shard = rng.choice(shards)
        yield shard, _shard_failures(graph, build, shard, rng)


class TestAffectedRows:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        parts=st.sampled_from([2, 4]),
    )
    def test_rows_match_direct_dijkstra_bitwise(self, seed, parts):
        """Integer weights: affected-only rows == Dijkstra on G_k minus
        F_k == the full re-ask, bitwise; every changed entry marked."""
        graph = exact_random_graph(seed, n=20, extra=34)
        build = build_sharded(graph, parts, method="uniform", seed=seed)
        sharded = ShardedOracle.from_build(build)
        for shard, failed in _failure_sets(graph, build, seed + 1, 8):
            borders = build.plan.shard_borders[shard]
            got = sharded.repair_rows(shard, failed)
            want = _direct_rows(build.shard_graphs[shard], borders, failed)
            full = _reask_every_pair(
                sharded.shard_oracles[shard], borders, failed
            )
            marked = set(sharded.reach[shard].affected_pairs(failed))
            base = build.border_matrices[shard]
            for i, j in itertools.product(range(len(borders)), repeat=2):
                _assert_same(got[i][j], want[i][j])
                _assert_same(got[i][j], full[i][j])
                if want[i][j] != base[i][j]:
                    assert (i, j) in marked, (shard, failed, i, j)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_float_rows_within_slack(self, seed):
        """Float weights: every entry within AFFECTED_SLACK (relative)
        of the direct Dijkstra, and every entry that moves by more than
        the slack is marked."""
        graph = random_graph(seed, n=20, extra=34)
        build = build_sharded(graph, 2, method="uniform", seed=seed)
        sharded = ShardedOracle.from_build(build)
        for shard, failed in _failure_sets(graph, build, seed + 1, 8):
            borders = build.plan.shard_borders[shard]
            got = sharded.repair_rows(shard, failed)
            want = _direct_rows(build.shard_graphs[shard], borders, failed)
            marked = set(sharded.reach[shard].affected_pairs(failed))
            base = build.border_matrices[shard]
            for i, j in itertools.product(range(len(borders)), repeat=2):
                if math.isinf(want[i][j]):
                    assert math.isinf(got[i][j])
                    continue
                assert abs(got[i][j] - want[i][j]) <= (
                    AFFECTED_SLACK * want[i][j]
                )
                if want[i][j] > base[i][j] * (1.0 + AFFECTED_SLACK):
                    assert (i, j) in marked

    def test_non_edges_mark_nothing(self):
        graph = grid_network(5, 5)
        build = build_sharded(graph, 2, method="metis", seed=1)
        sharded = ShardedOracle.from_build(build)
        reach = sharded.reach[0]
        nodes = sorted(
            n for n, owner in build.plan.assignment.items() if owner == 0
        )
        non_edges = [
            (a, b) for a, b in itertools.permutations(nodes, 2)
            if not graph.has_edge(a, b)
        ]
        assert non_edges and not any(map(reach.has_edge, non_edges))
        assert reach.affected_pairs(non_edges[:5]) == []

    def test_loaded_reach_matches_in_memory(self, tmp_path):
        """The dispatcher's reach, read from the shard file's CSR
        sections, plans the same pairs as the in-process one."""
        graph = grid_network(6, 6)
        build = build_sharded(graph, 2, method="metis", seed=1)
        sharded = ShardedOracle.from_build(build)
        target = save_sharded_snapshot(build, tmp_path / "snap")
        for shard, borders in enumerate(build.plan.shard_borders):
            loaded = load_shard_reach(
                target / f"shard-{shard:04d}.dsosnap", borders
            )
            for _, failed in _failure_sets(graph, build, shard, 10):
                assert loaded.affected_pairs(failed) == (
                    sharded.reach[shard].affected_pairs(failed)
                )


def _off_path_edge(graph, build):
    """A same-shard edge on no shortest border-to-border path, found by
    brute force over the shard's own Dijkstra distances."""
    assignment = build.plan.assignment
    for shard, borders in enumerate(build.plan.shard_borders):
        shard_graph = build.shard_graphs[shard]
        into = {a: dijkstra(shard_graph, a)[0] for a in borders}
        for tail, head, weight in sorted(shard_graph.edges()):
            if assignment[tail] != shard:
                continue
            out_of_head = dijkstra(shard_graph, head)[0]
            if all(
                into[a].get(tail, INFINITY) + weight
                + out_of_head.get(b, INFINITY) > into[a].get(b, INFINITY)
                for a in borders
                for b in borders
                if a != b
            ):
                return shard, (tail, head)
    return None


def _cross_pair(build, source_shard: int):
    by_shard: dict[int, list[int]] = {}
    for node, shard in build.plan.assignment.items():
        by_shard.setdefault(shard, []).append(node)
    other = 1 - source_shard
    return min(by_shard[source_shard]), min(by_shard[other])


@pytest.fixture(scope="module")
def grid_snapshot(tmp_path_factory):
    graph = grid_network(6, 6)
    build = build_sharded(graph, 2, method="metis", seed=1)
    target = save_sharded_snapshot(
        build, tmp_path_factory.mktemp("repair") / "snap"
    )
    return graph, build, target


class TestDispatcherRepair:
    def test_serving_parity_on_both_planes(self, grid_snapshot):
        """Affected-only serving stays bitwise-equal to the unsharded
        oracle."""
        graph, build, target = grid_snapshot
        reference = _reference(graph)
        batch = list(_query_mix(graph, build.plan, seed=5, count=40))
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run(batch)
        assert report.error_count == 0
        for position, (source, target_node, failed) in enumerate(batch):
            _assert_same(
                report.answers[position],
                reference.query(source, target_node, failed),
            )

    def test_memo_rows_match_direct_dijkstra(self, grid_snapshot):
        """Rows the dispatcher resolves are the definition's rows, and
        it sends one repair leg per affected pair that no query already
        asks as an outbound leg (each query's source lies in the shard
        its failures are in)."""
        graph, build, target = grid_snapshot
        sets = list(_failure_sets(graph, build, seed=17, count=12))
        expected = {}
        sent = {}
        queries = []
        for shard, failed in sets:
            source, target_node = _cross_pair(build, shard)
            queries.append((source, target_node, tuple(sorted(failed))))
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run(queries)
            reach = service._reach
            for shard, failed in sets:
                kept = frozenset(e for e in failed if reach[shard].has_edge(e))
                key = (shard, canonical_query_key(0, 0, kept)[2])
                expected[key] = reach[shard].affected_pairs(kept)
                borders = build.plan.shard_borders[shard]
                source = _cross_pair(build, shard)[0]
                sent[key] = [
                    (i, j) for i, j in expected[key] if borders[i] != source
                ]
                rows = service._repair_memo.get(key)
                if not expected[key]:
                    assert rows is None
                    continue
                want = _direct_rows(build.shard_graphs[shard], borders, kept)
                for got_row, want_row in zip(rows, want):
                    for got, value in zip(got_row, want_row):
                        _assert_same(got, value)
        assert report.error_count == 0
        assert report.repair_legs == sum(map(len, sent.values()))
        assert 0 < report.repair_legs < sum(map(len, expected.values()))
        assert report.summary()["repair_legs"] == report.repair_legs

    def test_repair_pairs_shared_with_border_legs_count_once(
        self, grid_snapshot
    ):
        """A query whose source is border ``b_i`` asks ``(b_i, b_j, F_k)``
        as an outbound leg already; ``repair_legs`` leaves those out
        (failing the out-edges of ``b_0`` and ``b_1`` affects pairs from
        both, and only the source's pairs are shared)."""
        graph, build, target = grid_snapshot
        assignment = build.plan.assignment
        borders = build.plan.shard_borders[0]
        source = borders[0]
        _, target_node = _cross_pair(build, 0)
        failed = tuple(sorted(
            (tail, head)
            for tail, head, _ in graph.edges()
            if tail in borders[:2] and assignment[head] == 0
        ))
        with ShardedQueryService(target, workers_per_shard=1) as service:
            pairs = service._reach[0].affected_pairs(failed)
            report = service.run([(source, target_node, failed)])
        shared = [(i, j) for i, j in pairs if i == 0]
        assert shared and len(shared) < len(pairs)
        assert report.error_count == 0
        assert report.repair_legs == len(pairs) - len(shared)
        _assert_same(
            report.answers[0],
            _reference(graph).query(source, target_node, set(failed)),
        )

    def test_off_path_failure_plans_no_repair(self, grid_snapshot):
        graph, build, target = grid_snapshot
        found = _off_path_edge(graph, build)
        assert found is not None
        shard, edge = found
        source, target_node = _cross_pair(build, shard)
        reference = _reference(graph)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            report = service.run([(source, target_node, (edge,))])
            assert service._repair_memo == {}
        assert report.repair_legs == 0
        assert report.errors == [None]
        _assert_same(
            report.answers[0], reference.query(source, target_node, {edge})
        )

    def test_non_edge_failures_plan_like_failure_free_twin(
        self, grid_snapshot
    ):
        graph, build, target = grid_snapshot
        assignment = build.plan.assignment
        source, target_node = _cross_pair(build, 0)
        nodes = sorted(n for n, owner in assignment.items() if owner == 0)
        non_edges = tuple(
            (a, b) for a, b in itertools.permutations(nodes, 2)
            if not graph.has_edge(a, b)
        )[:3]
        assert non_edges
        with ShardedQueryService(target, workers_per_shard=1) as service:
            twin = service.run([(source, target_node, None)])
            report = service.run([(source, target_node, non_edges)])
        assert report.shard_loads == twin.shard_loads
        assert report.repair_legs == twin.repair_legs == 0
        assert report.closure_hits == twin.closure_hits == 1
        _assert_same(report.answers[0], twin.answers[0])


class TestRepairMemoChurn:
    def _affecting_sets(self, build, reach, count: int):
        """``count`` distinct failure sets inside shard 0, each reaching
        at least one border pair (all share one affecting edge)."""
        assignment = build.plan.assignment
        edges = sorted(
            (tail, head)
            for tail, head, _ in build.shard_graphs[0].edges()
            if assignment[tail] == 0
        )
        anchor = next(e for e in edges if reach.affected_pairs([e]))
        others = [e for e in edges if e != anchor]
        sets = []
        for extra in itertools.combinations(others, 2):
            sets.append(tuple(sorted((anchor, *extra))))
            if len(sets) == count:
                return sets
        raise AssertionError("shard 0 too small for the churn test")

    def test_memo_evicts_oldest_and_keeps_newest(self, grid_snapshot):
        _, build, target = grid_snapshot
        source, target_node = _cross_pair(build, 0)
        with ShardedQueryService(target, workers_per_shard=1) as service:
            service.start()
            sets = self._affecting_sets(build, service._reach[0], 300)
            report = service.run(
                [(source, target_node, failed) for failed in sets]
            )
            memo = service._repair_memo
            first = (0, canonical_query_key(0, 0, frozenset(sets[0]))[2])
            last = (0, canonical_query_key(0, 0, frozenset(sets[-1]))[2])
            assert len(memo) <= _REPAIR_MEMO_LIMIT
            assert last in memo
            assert first not in memo
            # A memo hit makes its entry the most recent one.
            oldest = next(iter(memo))
            oldest_set = sets[300 - _REPAIR_MEMO_LIMIT]
            assert oldest == (
                0, canonical_query_key(0, 0, frozenset(oldest_set))[2]
            )
            again = service.run([(source, target_node, oldest_set)])
            assert again.repair_legs == 0
            assert next(reversed(memo)) == oldest
        assert report.error_count == 0
        assert report.repair_legs > 0
