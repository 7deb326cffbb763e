"""Tests for the CSR snapshot and the static Dijkstra baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dijkstra_oracle import DijkstraOracle, StaticDijkstraOracle
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.csr import (
    FrozenGraph,
    csr_dijkstra,
    csr_distance,
    csr_distances,
)
from repro.graph.digraph import DiGraph
from repro.pathing.dijkstra import dijkstra
from repro.workload.queries import generate_queries
from util import random_failures_from, random_graph


class TestFrozenGraph:
    def test_counts_match(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        assert frozen.number_of_nodes() == small_road.number_of_nodes()
        assert frozen.number_of_edges() == small_road.number_of_edges()

    def test_successors_match(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        for node in list(small_road.nodes())[:20]:
            expected = sorted(small_road.successors(node).items())
            assert frozen.successors(node) == expected
            assert frozen.out_degree(node) == len(expected)

    def test_non_contiguous_labels(self):
        g = DiGraph([(100, 7, 1.5), (7, 42, 2.5), (42, 100, 3.5)])
        frozen = FrozenGraph.from_digraph(g)
        assert frozen.number_of_nodes() == 3
        assert frozen.successors(100) == [(7, 1.5)]

    def test_edge_id_roundtrip(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        ids = set()
        for tail, head, _ in list(small_road.edges())[:50]:
            ids.add(frozen.edge_id(tail, head))
        assert len(ids) == 50  # edge ids are distinct

    def test_edge_id_missing_raises(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        with pytest.raises(EdgeNotFoundError):
            frozen.edge_id(0, 0)
        with pytest.raises(NodeNotFoundError):
            frozen.edge_id(99_999, 0)

    def test_edge_ids_drop_unknown(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        tail, head, _ = next(iter(small_road.edges()))
        ids = frozen.edge_ids({(tail, head), (-1, -2)})
        assert len(ids) == 1


class TestCsrDijkstra:
    def test_matches_dict_dijkstra(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        expected, _ = dijkstra(small_road, 0)
        got = csr_dijkstra(frozen, 0)
        assert set(got) == set(expected)
        for node, d in expected.items():
            assert got[node] == pytest.approx(d)

    def test_with_failures(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        failed = {(0, 1), (20, 21)}
        live = {e for e in failed if small_road.has_edge(*e)}
        expected, _ = dijkstra(small_road, 0, failed=live)
        got = csr_dijkstra(frozen, 0, frozen.edge_ids(live))
        assert set(got) == set(expected)

    def test_target_early_exit(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        got = csr_dijkstra(frozen, 0, target_label=5)
        assert 5 in got

    def test_csr_distance(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        expected, _ = dijkstra(small_road, 0, target=100)
        assert csr_distance(frozen, 0, 100) == pytest.approx(
            expected[100]
        )

    def test_unreachable(self):
        g = DiGraph([(0, 1, 1.0)])
        g.add_node(2)
        frozen = FrozenGraph.from_digraph(g)
        assert csr_distance(frozen, 0, 2) == float("inf")

    def test_missing_source_raises(self, small_road):
        frozen = FrozenGraph.from_digraph(small_road)
        with pytest.raises(NodeNotFoundError):
            csr_dijkstra(frozen, 99_999)
        with pytest.raises(NodeNotFoundError):
            csr_distances(frozen, 99_999)

    def test_dense_distances_both_directions(self):
        """``csr_distances`` equals the label-keyed search forward, and
        the search on the reversed graph backward."""
        g = DiGraph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (3, 0, 1.0)])
        frozen = FrozenGraph.from_digraph(g)
        reversed_graph = DiGraph(
            [(head, tail, weight) for tail, head, weight in g.edges()]
        )
        for source in frozen.node_ids:
            forward = csr_distances(frozen, source)
            backward = csr_distances(frozen, source, reverse=True)
            want_forward = csr_dijkstra(frozen, source)
            want_backward, _ = dijkstra(reversed_graph, source)
            for index, label in enumerate(frozen.node_ids):
                inf = float("inf")
                assert forward[index] == want_forward.get(label, inf)
                assert backward[index] == want_backward.get(label, inf)


class TestStaticDijkstraOracle:
    def test_matches_dijkstra_oracle(self, small_road):
        plain = DijkstraOracle(small_road)
        static = StaticDijkstraOracle(small_road)
        queries = generate_queries(small_road, 10, f_gen=3, p=0.003, seed=2)
        for q in queries:
            assert static.query(q.source, q.target, q.failed) == (
                pytest.approx(plain.query(q.source, q.target, q.failed))
            )

    def test_preprocessing_recorded(self, small_road):
        static = StaticDijkstraOracle(small_road)
        assert static.preprocess_seconds > 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fail_seed=st.integers(min_value=0, max_value=10_000),
)
def test_csr_matches_dict_random(seed, fail_seed):
    graph = random_graph(seed)
    frozen = FrozenGraph.from_digraph(graph)
    failed = random_failures_from(graph, fail_seed, 8)
    expected, _ = dijkstra(graph, 0, failed=failed)
    got = csr_dijkstra(frozen, 0, frozen.edge_ids(failed))
    assert set(got) == set(expected)
    for node, d in expected.items():
        assert got[node] == pytest.approx(d)
