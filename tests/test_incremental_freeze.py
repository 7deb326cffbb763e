"""A re-freeze must equal a full compile, byte for byte.

``DISO.freeze()`` keeps compact state between calls and recompiles only
the trees maintenance replaced (:class:`repro.oracle.frozen.FreezeMemo`).
Nothing else checks it: the benchmark's reference oracles call the same
``freeze()``.  So after every step of a random update script — weight
changes through the maintainer (increases, decreases, ties to an
existing path length), direct ``graph.set_weight`` calls the maintainer
never sees, and inserts/deletes that change the CSR shape — the
incremental engine must save the same snapshot payload as
``FrozenDISO(oracle)`` and answer bitwise like it.
"""

from __future__ import annotations

import gc
import random
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import scale_free_network
from repro.oracle.diso import DISO
from repro.oracle.frozen import FreezeMemo, FrozenDISO
from repro.oracle.maintenance import OracleMaintainer
from repro.oracle.snapshot import SnapshotReader, save_snapshot
from repro.pathing.dijkstra import shortest_distance
from repro.workload.queries import generate_queries
from util import random_graph

OPS = ("increase", "decrease", "tie", "set_weight", "insert", "delete")


def payload(engine, directory: Path, name: str) -> bytes:
    """The snapshot payload (header timings excluded) of ``engine``."""
    reader = SnapshotReader(save_snapshot(engine, directory / name))
    try:
        return bytes(reader._payload)
    finally:
        reader.close()


def answers(engine, batch) -> list[str]:
    scalar = [engine.query(q.source, q.target, q.failed) for q in batch]
    return [value.hex() for value in scalar + engine.query_many(batch)]


def apply_op(graph, maintainer, op: str, rng: random.Random) -> None:
    edges = sorted((tail, head) for tail, head, _ in graph.edges())
    tail, head = edges[rng.randrange(len(edges))]
    weight = graph.weight(tail, head)
    if op == "increase":
        maintainer.change_weight(tail, head, weight * rng.uniform(1.1, 3.0))
    elif op == "decrease":
        maintainer.change_weight(tail, head, weight * rng.uniform(0.2, 0.9))
    elif op == "tie":
        # Tie the edge to the shortest other path between its ends.
        detour = shortest_distance(graph, tail, head, {(tail, head)})
        if detour < float("inf"):
            maintainer.change_weight(tail, head, detour)
    elif op == "set_weight":
        graph.set_weight(tail, head, weight * rng.uniform(0.5, 2.0))
    elif op == "insert":
        nodes = sorted(graph.nodes())
        a, b = rng.sample(nodes, 2)
        if not graph.has_edge(a, b):
            maintainer.insert_edge(a, b, rng.uniform(0.1, 4.0))
    else:
        # Keep the Hamiltonian cycle's reachability loosely intact by
        # only deleting edges whose tail keeps another out-edge.
        if len(graph.successors(tail)) > 1:
            maintainer.delete_edge(tail, head)


class TestIncrementalFreeze:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=8),
    )
    def test_every_step_matches_a_full_compile(self, seed, ops):
        graph = random_graph(seed, n=24, extra=50)
        oracle = DISO(graph, tau=2)
        maintainer = OracleMaintainer(oracle)
        rng = random.Random(seed)
        batch = generate_queries(graph, 12, f_gen=2, p=0.05, seed=seed)
        oracle.freeze()
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for step, op in enumerate(ops):
                apply_op(graph, maintainer, op, rng)
                incremental = oracle.freeze()
                full = FrozenDISO(oracle)
                assert payload(incremental, directory, f"i{step}") == payload(
                    full, directory, f"f{step}"
                ), (step, op)
                queries = [
                    q for q in batch
                    if graph.has_node(q.source) and graph.has_node(q.target)
                ]
                assert answers(incremental, queries) == answers(full, queries)

    def test_reuses_untouched_trees_and_builds_no_views(self, tmp_path):
        graph = random_graph(7, n=30, extra=70)
        oracle = DISO(graph, tau=2)
        first = oracle.freeze()
        tail, head, weight = sorted(graph.edges())[0]
        OracleMaintainer(oracle).change_weight(tail, head, weight * 3)
        second = oracle.freeze()
        # Untouched roots share their lanes, never the tree objects:
        # the maps a query builds stay with one engine.
        kept = sum(
            a.order is b.order
            for a, b in zip(first.index.trees, second.index.trees)
        )
        assert 0 < kept < len(first.index.trees)
        assert not any(
            a is b for a, b in zip(first.index.trees, second.index.trees)
        )
        save_snapshot(second, tmp_path / "s.dsosnap")
        # Only saved: the query views were never built.
        assert not second.frozen.views_built()
        assert second.index.inverted is None

    def test_kept_state_is_compact(self):
        """What a DISO keeps between freezes stays under 5 MiB on the
        benchmark's social graph (scale-free, 3000 nodes), even when
        the engines it returned were queried (which builds their maps
        and views)."""
        graph = scale_free_network(3000, seed=1)
        oracle = DISO(graph, tau=4, theta=1.0)
        batch = generate_queries(graph, 40, f_gen=2, p=0.01, seed=1)
        # Import the modules the query paths load lazily outside the
        # trace: their code objects are not state the oracle keeps.
        FrozenDISO(oracle).query_many(batch)
        gc.collect()
        tracemalloc.start()
        try:
            memo = FreezeMemo()
            for _ in range(2):  # the second freeze reuses every tree
                engine = memo.freeze(oracle)
                engine.query_many(batch)
                for q in batch[:10]:
                    engine.query(q.source, q.target, q.failed)
                del engine
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert memo.trees
        assert all(tree.pos_of is None for _, tree in memo.trees.values())
        assert kept <= 5 * 2**20, kept
