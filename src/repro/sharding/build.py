"""Sharded build: per-shard oracles plus the border-distance overlay.

:func:`build_sharded` takes a :class:`~repro.sharding.plan.ShardPlan`
cut and produces, per shard, a frozen DISO over the shard's induced
subgraph, plus the *border matrix* — the failure-free distances
``d_k(b, b')`` between every pair of the shard's border nodes inside
that shard.  Border matrices are the type-2 edges of the cross-shard
overlay graph the stitcher walks (DESIGN.md §13).

Each border row is one forward Dijkstra from that border node over the
shard subgraph, read at the border columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.graph.digraph import DiGraph
from repro.oracle.diso import DISO
from repro.pathing.dijkstra import dijkstra
from repro.sharding.plan import ShardPlan, make_shard_plan

INFINITY = float("inf")


@dataclass
class ShardedBuild:
    """The finished sharded index, ready to snapshot or query.

    Attributes
    ----------
    plan:
        The cut this build realises.
    shard_graphs:
        Per shard, the induced subgraph the oracle was built on.
    shard_oracles:
        Per shard, a frozen DISO over that subgraph.
    border_matrices:
        Per shard, the row-major failure-free distance matrix over the
        shard's sorted border list (``matrix[i][j] = d_k(b_i, b_j)``
        inside the shard subgraph; ``inf`` when unreachable).
    build_seconds:
        Wall time of the whole sharded build.
    """

    plan: ShardPlan
    shard_graphs: list[DiGraph]
    shard_oracles: list
    border_matrices: list[list[list[float]]]
    build_seconds: float = 0.0
    #: Failure-free all-pairs border-to-border closure over the overlay
    #: (row-major over the globally sorted border list) — the frozen
    #: stitch plane's F=∅ fast path.  ``None`` on builds predating it;
    #: :func:`repro.sharding.snapshot.save_sharded_snapshot` computes a
    #: missing closure before persisting.
    border_closure: list[list[float]] | None = None


def _shard_transit(shard_graph: DiGraph, tau: int, theta: float):
    """Transit set for one shard's oracle, never empty.

    Tiny shards (a few nodes, or no edges at all) can yield an empty
    ISC cover, which DISO rejects; falling back to *all* shard nodes
    keeps the oracle exact — it just means no query on that shard
    benefits from the overlay shortcut.
    """
    transit = DISO.select_transit(shard_graph, tau=tau, theta=theta)
    if not transit:
        transit = set(shard_graph.nodes())
    return transit


def compute_border_matrix(
    shard_graph: DiGraph,
    borders: tuple[int, ...] | list[int],
) -> list[list[float]]:
    """Failure-free border-to-border distances inside one shard.

    Row ``i`` is the forward Dijkstra from ``borders[i]`` over
    ``shard_graph`` read at the border columns, ``inf`` where a border
    cannot reach another.
    """
    matrix: list[list[float]] = []
    for border in borders:
        distances, _ = dijkstra(shard_graph, border)
        matrix.append([distances.get(other, INFINITY) for other in borders])
    return matrix


def build_sharded(
    graph: DiGraph,
    parts: int,
    method: str = "metis",
    seed: int = 0,
    tau: int = 3,
    theta: float = 1.0,
    plan: ShardPlan | None = None,
) -> ShardedBuild:
    """Cut ``graph`` and build the full sharded index.

    Returns a :class:`ShardedBuild` whose oracles answer shard-local
    queries exactly; stitched cross-shard answers come from
    :class:`repro.sharding.oracle.ShardedOracle` (or the sharded
    serving plane) on top of it.
    """
    started = time.perf_counter()
    if plan is None:
        plan = make_shard_plan(graph, parts, method=method, seed=seed)
    shard_graphs = [graph.subgraph(nodes) for nodes in plan.shard_nodes]
    shard_oracles = [
        DISO(
            shard_graph, tau=tau, theta=theta,
            transit=_shard_transit(shard_graph, tau, theta),
        ).freeze()
        for shard_graph in shard_graphs
    ]
    border_matrices = [
        compute_border_matrix(shard_graph, plan.shard_borders[shard])
        for shard, shard_graph in enumerate(shard_graphs)
    ]
    # The F=∅ border closure is cheap relative to the per-shard oracle
    # builds (one Dijkstra per border over the small overlay graph) and
    # unlocks the frozen stitch plane's fast path, so it is always
    # precomputed here rather than lazily at load time.
    from repro.sharding.frozen_overlay import compute_border_closure
    from repro.sharding.oracle import BorderOverlay

    overlay = BorderOverlay(
        plan.assignment,
        plan.shard_borders,
        [(tail, head, weight) for tail, head, weight in plan.cross_edges],
        border_matrices,
    )
    return ShardedBuild(
        plan=plan,
        shard_graphs=shard_graphs,
        shard_oracles=shard_oracles,
        border_matrices=border_matrices,
        build_seconds=time.perf_counter() - started,
        border_closure=compute_border_closure(overlay),
    )
