"""The frozen query plane must agree exactly with the dict engines.

The contract of ``freeze()`` is bitwise answer parity: the compiled
engines perform the same float additions as their dict reference, so
distances are ``==``-equal, not just approximately equal.  A frozen
DISO or DISO-S engine runs the bidirectional overlay search, so its
reference is :class:`DISOBidirectional` (or the DISO-S variant with that
search) over the same transit set; frozen ADISO's is :class:`ADISO`.
On integer weights every frozen answer also equals Dijkstra exactly.
These tests sweep randomized graphs, endpoints and failure sets —
including failures inside stored trees, disconnecting cuts and s == t —
plus the bounded-search substrate, arena reuse, and the no-locking
concurrency claim.
"""

from __future__ import annotations

import random
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import QueryError
from repro.graph.csr import FrozenGraph, SearchArena, csr_dijkstra
from repro.graph.digraph import DiGraph
from repro.oracle.adiso import ADISO
from repro.oracle.diso import DISO
from repro.oracle.diso_bi import DISOBidirectional
from repro.oracle.diso_s import DISOSparse
from repro.oracle.frozen import FrozenADISO, FrozenDISO
from repro.oracle.maintenance import OracleMaintainer
from repro.oracle.snapshot import load_snapshot, save_snapshot
from repro.oracle.parallel import QueryEngine
from repro.pathing.bounded import bounded_dijkstra
from repro.pathing.csr_bounded import csr_bounded_dijkstra
from repro.pathing.dijkstra import shortest_distance
from repro.pathing.spt import INFINITY
from repro.workload.queries import Query
from util import (
    DISOSparseBidirectional,
    exact_random_graph,
    random_failures_from,
    random_graph,
)


def _random_cases(graph, seed: int, count: int):
    """Random (source, target, failures) cases, failure sizes 0..6."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    edges = sorted((t, h) for t, h, _ in graph.edges())
    for index in range(count):
        source = rng.choice(nodes)
        target = source if index % 9 == 0 else rng.choice(nodes)
        k = rng.randint(0, 6)
        failed = set(rng.sample(edges, k)) if k else None
        yield source, target, failed


def bidirectional(oracle: DISO) -> DISOBidirectional:
    """DISO-B over ``oracle``'s graph and transit set: the dict oracle
    whose answers a frozen DISO engine equals bitwise."""
    return DISOBidirectional(oracle.graph, transit=oracle.transit)


class TestBoundedSearchParity:
    """csr_bounded_dijkstra must mirror bounded_dijkstra exactly."""

    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_forward_access_sets_match(self, seed):
        graph = random_graph(seed)
        frozen = FrozenGraph.from_digraph(graph)
        rng = random.Random(seed + 1)
        transit = frozenset(rng.sample(sorted(graph.nodes()), 6))
        flags = bytearray(frozen.number_of_nodes())
        for label in transit:
            flags[frozen.index_of[label]] = 1
        failed = random_failures_from(graph, seed + 2, 3)
        failed_ids = frozen.edge_ids(failed)
        source = rng.choice(sorted(graph.nodes()))

        expected = bounded_dijkstra(graph, source, transit, failed)
        got = csr_bounded_dijkstra(
            frozen, frozen.index_of[source], flags, failed_ids, "out"
        )
        expected_access = {
            frozen.index_of[label]: d for label, d in expected.access.items()
        }
        assert got.access == expected_access
        for label, d in expected.dist.items():
            assert got.distance(frozen.index_of[label]) == d

    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_backward_access_sets_match(self, seed):
        graph = random_graph(seed)
        frozen = FrozenGraph.from_digraph(graph)
        rng = random.Random(seed + 3)
        transit = frozenset(rng.sample(sorted(graph.nodes()), 6))
        flags = bytearray(frozen.number_of_nodes())
        for label in transit:
            flags[frozen.index_of[label]] = 1
        failed = random_failures_from(graph, seed + 4, 3)
        source = rng.choice(sorted(graph.nodes()))

        expected = bounded_dijkstra(
            graph, source, transit, failed, direction="in"
        )
        got = csr_bounded_dijkstra(
            frozen,
            frozen.index_of[source],
            flags,
            frozen.edge_ids(failed),
            "in",
        )
        expected_access = {
            frozen.index_of[label]: d for label, d in expected.access.items()
        }
        assert got.access == expected_access

    def test_stale_result_raises(self):
        graph = random_graph(0)
        frozen = FrozenGraph.from_digraph(graph)
        flags = bytearray(frozen.number_of_nodes())
        arena = SearchArena(frozen.number_of_nodes())
        first = csr_bounded_dijkstra(frozen, 0, flags, None, "out", arena)
        csr_bounded_dijkstra(frozen, 1, flags, None, "out", arena)
        with pytest.raises(RuntimeError):
            first.distance(0)


class TestFrozenDISOParity:
    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=12, deadline=None)
    def test_random_graphs_endpoints_failures(self, seed):
        graph = random_graph(seed)
        oracle = DISO(graph, tau=3, theta=1.0)
        frozen = oracle.freeze()
        reference = bidirectional(oracle)
        for source, target, failed in _random_cases(graph, seed, 24):
            expected = reference.query(source, target, failed=failed)
            assert frozen.query(source, target, failed=failed) == expected

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=12, deadline=None)
    def test_integer_weights_equal_dijkstra(self, seed):
        graph = exact_random_graph(seed)
        frozen = DISO(graph, tau=3, theta=1.0).freeze()
        for source, target, failed in _random_cases(graph, seed, 24):
            expected = shortest_distance(graph, source, target, failed)
            assert frozen.query(source, target, failed=failed) == expected

    def test_failures_inside_stored_trees(self):
        graph = random_graph(11)
        oracle = DISO(graph, tau=3, theta=1.0)
        frozen = oracle.freeze()
        reference = bidirectional(oracle)
        # Failure sets drawn from stored tree edges, so every query
        # exercises the lazy recompute path.
        tree_edges = sorted(
            {
                (parent, node)
                for root in oracle.trees.roots()
                for node, parent in oracle.trees.tree(root).parent.items()
                if parent is not None
            }
        )
        rng = random.Random(99)
        nodes = sorted(graph.nodes())
        for _ in range(40):
            failed = set(rng.sample(tree_edges, min(4, len(tree_edges))))
            source, target = rng.choice(nodes), rng.choice(nodes)
            expected = reference.query(source, target, failed=failed)
            got = frozen.query(source, target, failed=failed)
            assert got == expected

    def test_disconnecting_failures(self):
        # A path graph: cutting both directions of one link disconnects.
        from repro.graph.generators import path_network

        graph = path_network(10)
        oracle = DISO(graph, tau=2, theta=1.0)
        frozen = oracle.freeze()
        failed = {(4, 5), (5, 4)}
        assert oracle.query(0, 9, failed=failed) == INFINITY
        assert frozen.query(0, 9, failed=failed) == INFINITY
        assert frozen.query(0, 4, failed=failed) == oracle.query(
            0, 4, failed=failed
        )

    def test_source_equals_target(self):
        graph = random_graph(3)
        frozen = DISO(graph, tau=3, theta=1.0).freeze()
        assert frozen.query(5, 5) == 0.0
        assert frozen.query(5, 5, failed={(5, 6)}) == 0.0

    def test_arena_reuse_is_consistent(self):
        """Back-to-back queries on one thread reuse arenas unchanged."""
        graph = random_graph(17)
        oracle = DISO(graph, tau=3, theta=1.0)
        frozen = oracle.freeze()
        cases = list(_random_cases(graph, 23, 30))
        first = [frozen.query(s, t, failed=f) for s, t, f in cases]
        second = [frozen.query(s, t, failed=f) for s, t, f in cases]
        assert first == second
        reference = bidirectional(oracle)
        expected = [reference.query(s, t, failed=f) for s, t, f in cases]
        assert first == expected

    def test_name_and_metadata(self):
        graph = random_graph(2)
        oracle = DISO(graph, tau=3, theta=1.0)
        frozen = oracle.freeze()
        assert isinstance(frozen, FrozenDISO)
        assert frozen.name == "DISO-F"
        assert frozen.exact
        assert frozen.freeze_seconds > 0.0
        assert frozen.preprocess_seconds >= oracle.preprocess_seconds


class TestEveryFrozenPathEqualsDISOB:
    """Scalar, batch, snapshot-loaded and delta-swapped engines all
    equal the dict DISO-B bitwise on float weights."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        changes=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_and_failure_sets(self, seed, changes):
        from repro.oracle.snapshot import (
            SnapshotReader,
            apply_snapshot_delta,
            snapshot_delta,
        )

        graph = random_graph(seed, n=28, extra=70)
        oracle = DISOBidirectional(graph, tau=3, theta=1.0)
        cases = list(_random_cases(graph, seed, 20))

        def expected() -> list[str]:
            return [
                oracle.query(s, t, failed=f).hex() for s, t, f in cases
            ]

        def answers(engine) -> tuple[list[str], list[str]]:
            scalar = [
                engine.query(s, t, failed=f).hex() for s, t, f in cases
            ]
            batch, errors = engine.answer_many(cases)
            assert errors == []
            # One failure set for the whole batch: repaired rows are
            # shared between its queries.
            shared = [(s, t, cases[1][2]) for s, t, _ in cases]
            together, errors = engine.answer_many(shared)
            assert errors == []
            assert [value.hex() for value in together] == [
                oracle.query(s, t, failed=f).hex() for s, t, f in shared
            ]
            return scalar, [value.hex() for value in batch]

        with tempfile.TemporaryDirectory(prefix="dso-bi-") as tmp:
            before = save_snapshot(oracle.freeze(), Path(tmp) / "a.dsosnap")
            assert answers(oracle.freeze()) == (expected(), expected())
            with load_snapshot(before) as loaded:
                assert answers(loaded) == (expected(), expected())

                rng = random.Random(seed)
                maintainer = OracleMaintainer(oracle)
                for tail, head, weight in rng.sample(
                    sorted(graph.edges()), changes
                ):
                    maintainer.change_weight(
                        tail, head, weight * rng.choice((0.5, 1.5, 3.0))
                    )
                after = save_snapshot(
                    oracle.freeze(), Path(tmp) / "b.dsosnap"
                )
                old, new = SnapshotReader(before), SnapshotReader(after)
                try:
                    delta = snapshot_delta(old, new)
                finally:
                    old.close()
                    new.close()
                if isinstance(delta, str):
                    return  # a transit or shape change has no delta form
                apply_snapshot_delta(loaded, after, *delta)
                assert answers(loaded) == (expected(), expected())


class TestFrozenEngineOwnsItsGraph:
    """Frozen engines answer from their own CSR, never a live graph."""

    @staticmethod
    def _diamond() -> DiGraph:
        graph = DiGraph()
        for tail, head, weight in [
            (0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 2, 5.0),
            (2, 0, 1.0), (3, 0, 1.0), (2, 3, 1.0),
        ]:
            graph.add_edge(tail, head, weight)
        return graph

    def test_maintaining_the_source_leaves_node_failures_alone(self):
        oracle = DISO(self._diamond(), tau=2)
        frozen = oracle.freeze()
        assert frozen.query_avoiding_nodes(0, 2, {1}) == 10.0
        maintainer = OracleMaintainer(oracle)
        maintainer.delete_edge(0, 1)
        maintainer.delete_edge(1, 2)
        # Node 1's incident edges come from the frozen CSR, which still
        # holds 0->1 and 1->2; a live-graph expansion would miss both
        # and route through the failed node (2.0).
        assert frozen.query_avoiding_nodes(0, 2, {1}) == 10.0
        assert not hasattr(frozen, "graph")

    def test_snapshot_engine_matches_in_memory_on_node_failures(
        self, tmp_path
    ):
        graph = random_graph(11)
        for oracle in (
            DISO(graph, tau=3, theta=1.0),
            ADISO(graph, tau=3, theta=1.0, seed=11),
        ):
            frozen = oracle.freeze()
            loaded = load_snapshot(
                save_snapshot(frozen, tmp_path / f"{oracle.name}.dsosnap")
            )
            assert not hasattr(loaded, "graph")
            rng = random.Random(5)
            nodes = sorted(graph.nodes())
            for _ in range(25):
                source, target = rng.sample(nodes, 2)
                others = [n for n in nodes if n not in (source, target)]
                failed_nodes = set(rng.sample(others, rng.randint(0, 3)))
                # An unknown failed node names no edge; both skip it.
                failed_nodes.add(10_000)
                expected = frozen.query_avoiding_nodes(
                    source, target, failed_nodes
                )
                assert loaded.query_avoiding_nodes(
                    source, target, failed_nodes
                ) == expected
            for engine in (frozen, loaded):
                with pytest.raises(QueryError):
                    engine.query_avoiding_nodes(10_000, nodes[0], set())
                with pytest.raises(QueryError):
                    engine.query_avoiding_nodes(nodes[0], 10_000, set())
                with pytest.raises(QueryError):
                    engine.query_avoiding_nodes(
                        nodes[0], nodes[1], {nodes[0]}
                    )
                with pytest.raises(QueryError):
                    engine.query_avoiding_nodes(
                        nodes[0], nodes[1], {nodes[1]}
                    )


class TestFrozenADISOParity:
    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_endpoints_failures(self, seed):
        graph = random_graph(seed)
        oracle = ADISO(graph, tau=3, theta=1.0, seed=seed)
        frozen = oracle.freeze()
        assert isinstance(frozen, FrozenADISO)
        for source, target, failed in _random_cases(graph, seed + 7, 20):
            expected = oracle.query(source, target, failed=failed)
            assert frozen.query(source, target, failed=failed) == expected


class TestFrozenDISOSparseParity:
    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=8, deadline=None)
    def test_sparsified_oracle_parity_including_fallback(self, seed):
        graph = random_graph(seed, n=24, extra=40)
        oracle = DISOSparse(graph, beta=2.0, tau=3, theta=1.0)
        frozen = oracle.freeze()
        reference = DISOSparseBidirectional(
            graph, beta=2.0, tau=3, theta=1.0, transit=oracle.transit
        )
        for source, target, failed in _random_cases(graph, seed + 13, 20):
            expected = reference.query(source, target, failed=failed)
            assert frozen.query(source, target, failed=failed) == expected


class TestConcurrency:
    def test_concurrent_queries_match_sequential(self):
        """QueryEngine over one shared frozen index: no cross-thread
        interference despite each thread's private arena reuse."""
        graph = random_graph(29)
        frozen = DISO(graph, tau=3, theta=1.0).freeze()
        cases = list(_random_cases(graph, 31, 60))
        sequential = [frozen.query(s, t, failed=f) for s, t, f in cases]

        engine = QueryEngine(frozen, threads=4)
        queries = [
            Query(source=s, target=t, failed=frozenset(f) if f else frozenset())
            for s, t, f in cases
        ]
        report = engine.run(queries)
        assert report.answers == sequential

    def test_threads_get_private_arenas(self):
        graph = random_graph(7)
        frozen = DISO(graph, tau=3, theta=1.0).freeze()
        arenas = {}

        def grab(key):
            frozen.query(0, 1)
            arenas[key] = frozen._arenas()

        threads = [
            threading.Thread(target=grab, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        grab("main")
        distinct = {id(a) for a in arenas.values()}
        assert len(distinct) == len(arenas)

    def test_single_thread_engine_reuses_caller_arenas(self, monkeypatch):
        """Regression: ``threads=1`` must not allocate arenas per batch.

        ``run()`` used to spin up a fresh one-thread executor per call;
        each batch then ran on a brand-new pool thread, and since the
        frozen engines key their arena set on the thread, every batch
        re-allocated all four ``SearchArena`` instances.  A one-worker
        engine now answers in the calling thread, so repeated batches
        share the caller's set.
        """
        graph = random_graph(11)
        frozen = DISO(graph, tau=3, theta=1.0).freeze()
        cases = list(_random_cases(graph, 17, 10))
        expected = [frozen.query(s, t, failed=f) for s, t, f in cases]

        allocations = []
        original_init = SearchArena.__init__

        def counting_init(self, size):
            allocations.append(size)
            original_init(self, size)

        monkeypatch.setattr(SearchArena, "__init__", counting_init)
        engine = QueryEngine(frozen, threads=1)
        queries = [
            Query(
                source=s,
                target=t,
                failed=frozenset(f) if f else frozenset(),
            )
            for s, t, f in cases
        ]
        first = engine.run(queries)
        second = engine.run(queries)
        assert first.answers == expected
        assert second.answers == expected
        # The caller thread warmed its arena set answering `expected`
        # above, so the two engine batches must allocate nothing at all.
        assert allocations == []


class TestArenaDijkstra:
    """Satellite: arena-aware csr_dijkstra answers never drift."""

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_arena_matches_arenaless(self, seed):
        graph = random_graph(seed)
        frozen = FrozenGraph.from_digraph(graph)
        arena = SearchArena(frozen.number_of_nodes())
        failed = random_failures_from(graph, seed + 1, 3)
        failed_ids = frozen.edge_ids(failed)
        for source in list(graph.nodes())[:4]:
            plain = csr_dijkstra(frozen, source, failed_ids)
            arenaed = csr_dijkstra(frozen, source, failed_ids, arena=arena)
            assert arenaed == plain

    def test_size_mismatch_raises(self):
        graph = random_graph(1)
        frozen = FrozenGraph.from_digraph(graph)
        with pytest.raises(ValueError):
            csr_dijkstra(frozen, 0, arena=SearchArena(3))
