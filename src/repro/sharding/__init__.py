"""Sharded serving plane: partition cuts, per-shard builds, stitching.

The pipeline (DESIGN.md §13):

1. :func:`make_shard_plan` cuts the graph with one of the existing
   partitioners and derives the sorted border/cross-edge overlay.
2. :func:`build_sharded` builds a frozen DISO per shard plus the
   failure-free border-distance matrices (one Dijkstra per border).
3. :func:`save_sharded_snapshot` / :func:`load_sharded_snapshot`
   persist the result as a manifest + per-shard DSOSNAP1 directory.
4. :class:`ShardedOracle` (or the sharded serving plane in
   :mod:`repro.serving.sharded`) answers queries by stitching
   shard-local legs over the border overlay.
"""

from repro.sharding.build import (
    ShardedBuild,
    build_sharded,
    compute_border_matrix,
)
from repro.sharding.frozen_overlay import (
    FrozenOverlay,
    compile_overlay_csr,
    compute_border_closure,
)
from repro.sharding.oracle import (
    BorderOverlay,
    ShardedOracle,
    ShardReach,
    stitch_over_borders,
)
from repro.sharding.plan import PARTITION_METHODS, ShardPlan, make_shard_plan
from repro.sharding.snapshot import (
    MANIFEST_NAME,
    SHARD_MAGIC,
    load_frozen_overlay,
    load_shard_plan_overlay,
    load_shard_reach,
    load_sharded_snapshot,
    save_sharded_snapshot,
    sharded_snapshot_info,
)

__all__ = [
    "MANIFEST_NAME",
    "PARTITION_METHODS",
    "SHARD_MAGIC",
    "BorderOverlay",
    "FrozenOverlay",
    "ShardPlan",
    "ShardReach",
    "ShardedBuild",
    "ShardedOracle",
    "build_sharded",
    "compile_overlay_csr",
    "compute_border_closure",
    "compute_border_matrix",
    "load_frozen_overlay",
    "load_shard_plan_overlay",
    "load_shard_reach",
    "load_sharded_snapshot",
    "make_shard_plan",
    "save_sharded_snapshot",
    "sharded_snapshot_info",
    "stitch_over_borders",
]
