"""Shared helpers for property tests (importable, unlike conftest)."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro.graph.digraph import DiGraph
from repro.oracle.diso_bi import DISOBidirectional
from repro.oracle.diso_s import DISOSparse
from repro.oracle.snapshot import save_snapshot


class DISOSparseBidirectional(DISOSparse):
    """DISO-S with DISO-B's bidirectional overlay search.

    The dict reference a frozen DISO-S engine equals bitwise: the frozen
    overlay search is bidirectional, so on float weights it matches
    DISO-B's additions, not the forward search of plain DISO-S.
    """

    _overlay_search = DISOBidirectional._overlay_search


def random_graph(seed: int, n: int = 30, extra: int = 60) -> DiGraph:
    """Strongly connected random weighted digraph for property tests.

    A random Hamiltonian cycle guarantees strong connectivity; ``extra``
    additional random edges are layered on top.  Deterministic per seed.
    """
    rng = random.Random(seed)
    graph = DiGraph()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        graph.add_edge(order[i], order[(i + 1) % n], rng.random() * 4 + 0.1)
    added = 0
    while added < extra:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b, rng.random() * 4 + 0.1)
            added += 1
    return graph


def exact_random_graph(seed: int, n: int = 30, extra: int = 60) -> DiGraph:
    """Like :func:`random_graph` but with small *integer* weights.

    Integer weights keep float addition exact, so answers composed from
    partial sums in any association order (the sharded stitcher) stay
    bitwise-equal to a single-pass computation — the precondition of
    the sharded parity suite.
    """
    rng = random.Random(seed)
    graph = DiGraph()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        graph.add_edge(order[i], order[(i + 1) % n], float(rng.randint(1, 8)))
    added = 0
    while added < extra:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b, float(rng.randint(1, 8)))
            added += 1
    return graph


def random_failures_from(
    graph: DiGraph, seed: int, count: int
) -> set[tuple[int, int]]:
    """Pick ``count`` random existing edges as a failure set."""
    rng = random.Random(seed)
    edges = sorted((t, h) for t, h, _ in graph.edges())
    count = min(count, len(edges) - 1)
    return set(rng.sample(edges, count))


def canonical_snapshot_bytes(frozen_oracle) -> bytes:
    """Snapshot bytes with the two wall-clock meta fields zeroed.

    ``preprocess_seconds``/``freeze_seconds`` differ between two builds
    of the same index; with them zeroed the bytes are a pure function of
    the index content.
    """
    saved = (frozen_oracle.preprocess_seconds, frozen_oracle.freeze_seconds)
    frozen_oracle.preprocess_seconds = frozen_oracle.freeze_seconds = 0.0
    try:
        with tempfile.TemporaryDirectory(prefix="dso-canon-") as tmp:
            path = Path(tmp) / "canonical.dsosnap"
            save_snapshot(frozen_oracle, path)
            return path.read_bytes()
    finally:
        frozen_oracle.preprocess_seconds, frozen_oracle.freeze_seconds = saved
