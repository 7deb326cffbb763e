"""Index serialization must round-trip every oracle family.

The registry covers DISO, DISO-B, ADISO, and the boosted variants
DISO-S and ADISO-P.  For each family: save to JSON, load, and compare
answers (``==``-equal — the loaded oracle runs the same arithmetic)
over randomized queries with failures.  The boosted variants also keep
their extras: the Dijkstra fallback graph and sparsification
bookkeeping for DISO-S, the second overlay ``H`` for ADISO-P.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.exceptions import FormatError
from repro.oracle.adiso import ADISO
from repro.oracle.adiso_p import ADISOPartial
from repro.oracle.diso import DISO
from repro.oracle.diso_bi import DISOBidirectional
from repro.oracle.diso_s import DISOSparse
from repro.oracle.serialize import load_index, save_index
from util import (
    DISOSparseBidirectional,
    random_failures_from,
    random_graph,
)


def _roundtrip(oracle):
    buffer = io.StringIO()
    save_index(oracle, buffer)
    buffer.seek(0)
    return load_index(buffer)


def _assert_query_parity(original, loaded, graph, seed, count=20):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    for index in range(count):
        source = rng.choice(nodes)
        target = source if index % 6 == 0 else rng.choice(nodes)
        failed = (
            random_failures_from(graph, seed + index, rng.randint(1, 4))
            if index % 3
            else None
        )
        expected = original.query(source, target, failed)
        got = loaded.query(source, target, failed)
        assert got == expected, (source, target, failed)


@pytest.mark.parametrize(
    "family",
    ["diso", "diso_bi", "adiso", "diso_s", "adiso_p"],
)
def test_roundtrip_parity(family):
    graph = random_graph(17, n=28, extra=80)
    oracle = {
        "diso": lambda: DISO(graph, tau=3),
        "diso_bi": lambda: DISOBidirectional(graph, tau=3),
        "adiso": lambda: ADISO(graph, tau=3, seed=17),
        "diso_s": lambda: DISOSparse(graph, beta=1.5, tau=3),
        "adiso_p": lambda: ADISOPartial(graph, tau=3, seed=17),
    }[family]()
    loaded = _roundtrip(oracle)
    assert type(loaded) is type(oracle)
    assert loaded.name == oracle.name
    assert loaded.transit == oracle.transit
    _assert_query_parity(oracle, loaded, graph, seed=23)


def test_loaded_diso_s_keeps_extras():
    graph = random_graph(19, n=24, extra=70)
    oracle = DISOSparse(graph, beta=1.5, tau=3)
    loaded = _roundtrip(oracle)
    assert loaded.beta == oracle.beta
    assert sorted(loaded.original_graph.edges()) == sorted(
        oracle.original_graph.edges()
    )
    assert (
        loaded.input_sparsification.removed
        == oracle.input_sparsification.removed
    )
    assert (
        loaded.overlay_sparsification.removed
        == oracle.overlay_sparsification.removed
    )
    # The restored original graph powers both the Dijkstra safety net
    # and freeze(); exercise the frozen plane from the loaded object
    # against the dict DISO-S that runs the frozen engine's
    # bidirectional overlay search.
    frozen = loaded.freeze()
    reference = DISOSparseBidirectional(
        graph, beta=1.5, tau=3, transit=oracle.transit
    )
    _assert_query_parity(reference, frozen, graph, seed=29, count=10)


def test_loaded_adiso_p_keeps_second_overlay():
    graph = random_graph(21, n=24, extra=70)
    oracle = ADISOPartial(graph, tau=3, seed=21)
    loaded = _roundtrip(oracle)
    assert sorted(loaded.h_overlay.graph.edges()) == sorted(
        oracle.h_overlay.graph.edges()
    )
    assert set(loaded.h_trees) == set(oracle.h_trees)
    assert loaded._node_to_h_roots == oracle._node_to_h_roots
    assert loaded.exit_candidates == oracle.exit_candidates
    assert loaded.avoid_affected_bias == oracle.avoid_affected_bias


def test_unknown_class_raises_format_error():
    oracle = DISO(random_graph(3), tau=3)
    buffer = io.StringIO()
    save_index(oracle, buffer)
    import json

    document = json.loads(buffer.getvalue())
    document["oracle"] = "EvilOracle"
    with pytest.raises(FormatError, match="unknown oracle class"):
        load_index(io.StringIO(json.dumps(document)))
