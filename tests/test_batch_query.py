"""The batch plane must agree bitwise with the scalar loop.

``query_many`` / ``answer_many`` run the scalar search per query and
share only the failure translation between queries with the same
failure set, so every answer must be the exact float the scalar
``query`` loop returns, for all four frozen families (DISO, ADISO,
DISO-S, ADISO-P), with and without failure sets, at the edges (empty
batch, single query, unreachable pairs), across batches that mix
failure sets, and under per-query poison (invalid endpoints inside an
otherwise healthy batch).
"""

from __future__ import annotations

import math

import pytest

from repro.graph.digraph import DiGraph
from repro.oracle.adiso import ADISO
from repro.oracle.adiso_p import ADISOPartial
from repro.oracle.base import INFINITY
from repro.oracle.batch import as_query_triple, query_many
from repro.oracle.diso import DISO
from repro.oracle.diso_bi import DISOBidirectional
from repro.oracle.diso_s import DISOSparse
from repro.workload.queries import Query, generate_queries
from util import random_failures_from, random_graph

FAMILIES = (
    ("DISO", lambda g: DISO(g, tau=3, theta=1.0)),
    ("ADISO", lambda g: ADISO(g, tau=3, theta=1.0, seed=9)),
    ("DISO-S", lambda g: DISOSparse(g, beta=1.5, tau=3, theta=1.0)),
    (
        "ADISO-P",
        lambda g: ADISOPartial(
            g, tau=3, theta=1.0, tau_h=2, num_landmarks=4
        ),
    ),
)


def scalar_answers(frozen, batch) -> list[float]:
    return [frozen.query(q.source, q.target, q.failed) for q in batch]


def assert_bitwise(got: list[float], expected: list[float]) -> None:
    assert len(got) == len(expected)
    for position, (a, b) in enumerate(zip(got, expected)):
        # Bitwise: == for finite/inf values, NaN only equals NaN.
        same = a == b or (math.isnan(a) and math.isnan(b))
        assert same, f"position {position}: {a!r} != {b!r}"


@pytest.mark.parametrize("name,factory", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("seed", [2, 5])
def test_parity_all_families_with_failures(name, factory, seed):
    graph = random_graph(seed, n=36, extra=80)
    frozen = factory(graph).freeze()
    batch = generate_queries(graph, 18, f_gen=3, p=0.01, seed=seed)
    assert_bitwise(frozen.query_many(batch), scalar_answers(frozen, batch))


@pytest.mark.parametrize("name,factory", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_parity_failure_free(name, factory):
    graph = random_graph(13, n=30, extra=60)
    frozen = factory(graph).freeze()
    batch = generate_queries(graph, 12, f_gen=0, p=0.0, seed=13)
    assert_bitwise(frozen.query_many(batch), scalar_answers(frozen, batch))


def test_empty_batch():
    frozen = DISO(random_graph(3, n=20, extra=30), tau=3).freeze()
    assert frozen.query_many([]) == []
    answers, errors = frozen.answer_many([])
    assert answers == [] and errors == []


def test_single_query_and_same_node():
    graph = random_graph(4, n=24, extra=40)
    frozen = DISO(graph, tau=3).freeze()
    (query,) = generate_queries(graph, 1, f_gen=2, seed=4)
    assert frozen.query_many([query]) == [
        frozen.query(query.source, query.target, query.failed)
    ]
    assert frozen.query_many([(7, 7, None)]) == [0.0]


def two_island_graph() -> DiGraph:
    """Two strongly connected islands with no edges between them."""
    graph = DiGraph()
    for base in (0, 100):
        for i in range(8):
            graph.add_edge(base + i, base + (i + 1) % 8, 1.0 + 0.1 * i)
            graph.add_edge(base + (i + 1) % 8, base + i, 1.5 + 0.1 * i)
    return graph


def test_mixed_reachable_and_unreachable():
    graph = two_island_graph()
    frozen = DISO(graph, tau=2, theta=1.0).freeze()
    batch = [
        (0, 4, None),        # reachable, same island
        (0, 104, None),      # cross-island: unreachable
        (101, 105, {(101, 102)}),  # reachable around a failure
        (105, 3, None),      # cross-island the other way
    ]
    got = frozen.query_many(batch)
    expected = [
        frozen.query(s, t, frozenset(f) if f else None) for s, t, f in batch
    ]
    assert_bitwise(got, expected)
    assert got[1] == INFINITY and got[3] == INFINITY
    assert got[0] < INFINITY and got[2] < INFINITY


def test_diso_s_fallback_parity_on_unreachable():
    # DISO-S answers INF overlay misses on the original graph; the
    # batched plane must take the identical fallback.
    graph = random_graph(21, n=30, extra=40)
    frozen = DISOSparse(graph, beta=1.5, tau=3, theta=1.0).freeze()
    failed = random_failures_from(graph, 8, 12)
    batch = [
        Query(source=s, target=t, failed=frozenset(failed))
        for s in (0, 3, 11)
        for t in (17, 25)
        if s != t
    ]
    assert_bitwise(frozen.query_many(batch), scalar_answers(frozen, batch))


class TestPoisonQueries:
    def test_poison_sentinel_in_right_slot_neighbors_unaffected(self):
        graph = random_graph(6, n=28, extra=50)
        frozen = DISO(graph, tau=3).freeze()
        healthy = generate_queries(graph, 6, f_gen=2, seed=6)
        batch = list(healthy[:3]) + [(0, 10**9, None)] + list(healthy[3:])
        answers, errors = frozen.answer_many(batch)
        assert len(answers) == len(batch)
        assert math.isnan(answers[3])
        assert [position for position, _ in errors] == [3]
        expected = scalar_answers(frozen, healthy)
        assert answers[:3] == expected[:3]
        assert answers[4:] == expected[3:]

    def test_poison_message_matches_scalar_exception(self):
        frozen = DISO(random_graph(7, n=24, extra=40), tau=3).freeze()
        _, errors = frozen.answer_many([(0, -5, None)])
        with pytest.raises(Exception) as caught:
            frozen.query(0, -5)
        assert errors == [
            (0, f"{type(caught.value).__name__}: {caught.value}")
        ]

    def test_query_many_raises_first_failure(self):
        frozen = DISO(random_graph(8, n=24, extra=40), tau=3).freeze()
        with pytest.raises(Exception):
            frozen.query_many([(1, 2, None), (0, 10**9, None)])


def test_query_objects_and_triples_agree():
    graph = random_graph(9, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    failed = frozenset(random_failures_from(graph, 2, 4))
    as_objects = [Query(source=1, target=14, failed=failed)]
    as_triples = [(1, 14, tuple(failed))]
    assert frozen.query_many(as_objects) == frozen.query_many(as_triples)
    assert as_query_triple(as_objects[0])[:2] == (1, 14)


def test_mixed_failure_sets_match_scalar_and_share_state(monkeypatch):
    # Queries with several failure sets, interleaved: each distinct set
    # is translated once per batch, and every answer is the scalar one.
    graph = random_graph(10, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    failure_sets = [
        None,
        frozenset(random_failures_from(graph, 1, 3)),
        frozenset(random_failures_from(graph, 2, 5)),
    ]
    nodes = sorted(graph.nodes())
    batch = [
        (nodes[i % len(nodes)], nodes[(7 * i + 3) % len(nodes)],
         failure_sets[i % 3])
        for i in range(24)
    ]
    expected = [
        frozen.query(s, t, frozenset(f) if f else None) for s, t, f in batch
    ]
    translated = []
    original = type(frozen)._failure_state

    def counting(self, fail_set):
        translated.append(fail_set)
        return original(self, fail_set)

    monkeypatch.setattr(type(frozen), "_failure_state", counting)
    assert_bitwise(frozen.query_many(batch), expected)
    assert len(translated) == len(set(translated)) == 3


def test_module_level_query_many_on_dict_oracle():
    # Dict engines have no ``query_many``; the module helper loops.
    # DISO-B is the dict engine whose answers the frozen one equals.
    graph = random_graph(12, n=24, extra=40)
    oracle = DISOBidirectional(graph, tau=3)
    frozen = oracle.freeze()
    batch = generate_queries(graph, 8, f_gen=2, seed=12)
    assert query_many(oracle, batch) == scalar_answers(frozen, batch)
    assert query_many(frozen, batch) == scalar_answers(frozen, batch)
