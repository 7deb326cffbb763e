"""Sharded snapshots: a manifest plus one DSOSNAP1 file per shard.

A sharded snapshot is a *directory*::

    <dir>/manifest.dsoshrd     DSOSHRD1 container: assignment, borders,
                               border matrices, cross edges, provenance
    <dir>/shard-0000.dsosnap   per-shard frozen-oracle snapshots, each a
    <dir>/shard-0001.dsosnap   plain DSOSNAP1 file (loadable standalone
    ...                        with :func:`repro.oracle.snapshot.load_snapshot`)

The manifest reuses the parameterized DSOSNAP1 framing
(:func:`repro.oracle.snapshot.pack_container` /
:class:`~repro.oracle.snapshot.SnapshotReader` with the ``DSOSHRD1``
magic) — same section table, CRC, and alignment rules, distinct magic
so a shard manifest can never be mistaken for a serving snapshot.

The split matters for serving: a dispatcher only needs the manifest
(the :class:`~repro.sharding.oracle.BorderOverlay` state — small), while
each shard worker maps exactly one ``shard-*.dsosnap`` file.  Nothing
loads the whole graph anywhere.

Every sequence serialized here arrives pre-sorted from the
:class:`~repro.sharding.plan.ShardPlan` (nodes ascending, borders
ascending, cross edges lexicographic), so equal builds produce
bitwise-equal manifests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import FormatError
from repro.oracle.snapshot import (
    SectionWriter,
    SnapshotReader,
    _load_csr,
    load_snapshot,
    pack_container,
    save_snapshot,
    write_atomic,
)
from repro.sharding.frozen_overlay import (
    FrozenOverlay,
    compile_overlay_csr,
    compute_border_closure,
)
from repro.sharding.oracle import BorderOverlay, ShardedOracle, ShardReach

SHARD_MAGIC = b"DSOSHRD1"
SHARD_VERSION = 1
MANIFEST_NAME = "manifest.dsoshrd"

INFINITY = float("inf")


def _shard_file(shard: int) -> str:
    return f"shard-{shard:04d}.dsosnap"


def save_sharded_snapshot(build, target: str | Path) -> Path:
    """Write a :class:`~repro.sharding.build.ShardedBuild` as a directory.

    Creates ``target`` (and parents) if needed, writes the manifest and
    one per-shard snapshot file, and returns the directory path.
    """
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    plan = build.plan

    writer = SectionWriter()
    # node -> shard, as two parallel columns sorted by node id.
    nodes = sorted(plan.assignment)
    writer.add("assignment.nodes", "q", nodes)
    writer.add("assignment.parts", "q", [plan.assignment[n] for n in nodes])
    writer.add("borders.all", "q", plan.borders)
    for shard in range(plan.parts):
        writer.add(f"shard{shard}.borders", "q", plan.shard_borders[shard])
        writer.add(
            f"shard{shard}.matrix",
            "d",
            [w for row in build.border_matrices[shard] for w in row],
        )
    writer.add("cross.tails", "q", [e[0] for e in plan.cross_edges])
    writer.add("cross.heads", "q", [e[1] for e in plan.cross_edges])
    writer.add("cross.weights", "d", [e[2] for e in plan.cross_edges])

    # Frozen stitch plane sections: the overlay pre-compiled to CSR
    # (dense border ids reuse ``borders.all``) plus the failure-free
    # border closure.  Pure-Python compile, so equal builds give equal
    # manifest bytes.
    overlay = BorderOverlay(
        plan.assignment,
        plan.shard_borders,
        [(tail, head, weight) for tail, head, weight in plan.cross_edges],
        build.border_matrices,
    )
    csr = compile_overlay_csr(overlay)
    writer.add("frozen.shard", "q", csr["border_shard"])
    writer.add("frozen.local", "q", csr["border_local"])
    writer.add("frozen.offsets", "q", csr["offsets"])
    writer.add("frozen.heads", "q", csr["heads"])
    writer.add("frozen.weights", "d", csr["weights"])
    closure = getattr(build, "border_closure", None)
    if closure is None:
        closure = compute_border_closure(overlay)
    writer.add("closure.matrix", "d", [w for row in closure for w in row])

    shard_files = [_shard_file(shard) for shard in range(plan.parts)]
    meta = {
        "parts": plan.parts,
        "method": plan.method,
        "seed": plan.seed,
        "num_nodes": len(plan.assignment),
        "num_borders": plan.num_borders,
        "edge_cut": plan.edge_cut,
        "shard_files": shard_files,
        "shard_sizes": [len(nodes) for nodes in plan.shard_nodes],
        "build_seconds": build.build_seconds,
    }
    blob = pack_container(
        writer,
        magic=SHARD_MAGIC,
        version=SHARD_VERSION,
        engine="ShardedSnapshot",
        meta=meta,
    )
    write_atomic(target / MANIFEST_NAME, blob)
    for shard, name in enumerate(shard_files):
        save_snapshot(build.shard_oracles[shard], target / name)
    return target


def _open_manifest(source: str | Path, verify: bool = True) -> SnapshotReader:
    source = Path(source)
    manifest = source / MANIFEST_NAME if source.is_dir() else source
    if not manifest.exists():
        raise FormatError(f"{source}: no {MANIFEST_NAME} manifest found")
    return SnapshotReader(
        manifest, verify=verify, magic=SHARD_MAGIC, version=SHARD_VERSION
    )


def load_shard_plan_overlay(
    source: str | Path, verify: bool = True
) -> tuple[BorderOverlay, dict, list[Path]]:
    """Load only the manifest: overlay state, meta, shard file paths.

    This is the dispatcher-side load — no shard snapshot is touched, so
    the caller's memory footprint is the overlay (assignment + borders +
    matrices + cross edges), not the index.
    """
    reader = _open_manifest(source, verify=verify)
    try:
        return _plan_overlay(reader, source)
    finally:
        reader.close()


def load_frozen_overlay(
    source: str | Path, verify: bool = True
) -> FrozenOverlay:
    """Load the frozen stitch plane from a manifest, zero-copy.

    When the manifest carries ``frozen.*`` sections the CSR lanes (and
    the closure matrix, if present) are NumPy views straight into the
    manifest mmap — no copies; the returned overlay keeps the reader
    open and releases it via :meth:`FrozenOverlay.close`.  Manifests
    predating the sections fall back to an in-memory compile (closure
    included).
    """
    return _frozen_overlay(_open_manifest(source, verify=verify), source)


def load_sharded_manifest(
    source: str | Path, verify: bool = True
) -> tuple[BorderOverlay, dict, list[Path], FrozenOverlay]:
    """Both dispatcher loads from one open (and one CRC check) of the
    manifest: what :func:`load_shard_plan_overlay` and
    :func:`load_frozen_overlay` return, in that order."""
    reader = _open_manifest(source, verify=verify)
    try:
        overlay, meta, shard_paths = _plan_overlay(reader, source)
    except Exception:
        reader.close()
        raise
    return overlay, meta, shard_paths, _frozen_overlay(reader, source)


def _plan_overlay(
    reader: SnapshotReader, source: str | Path
) -> tuple[BorderOverlay, dict, list[Path]]:
    """The plan overlay from an open manifest, as private copies."""
    source = Path(source)
    base = source if source.is_dir() else source.parent
    meta = dict(reader.meta)
    parts = int(meta["parts"])
    nodes = reader.section("assignment.nodes")
    owners = reader.section("assignment.parts")
    assignment = {
        int(node): int(owner) for node, owner in zip(nodes, owners)
    }
    shard_borders = []
    border_matrices = []
    for shard in range(parts):
        borders = tuple(
            int(b) for b in reader.section(f"shard{shard}.borders")
        )
        flat = reader.section(f"shard{shard}.matrix")
        width = len(borders)
        if len(flat) != width * width:
            raise FormatError(
                f"{source}: shard {shard} matrix has {len(flat)} "
                f"entries, expected {width * width}"
            )
        shard_borders.append(borders)
        border_matrices.append(
            [
                list(flat[i * width : (i + 1) * width])
                for i in range(width)
            ]
        )
    cross_edges = list(
        zip(
            (int(t) for t in reader.section("cross.tails")),
            (int(h) for h in reader.section("cross.heads")),
            reader.section("cross.weights"),
        )
    )
    overlay = BorderOverlay(
        assignment, tuple(shard_borders), cross_edges, border_matrices
    )
    shard_paths = [base / name for name in meta["shard_files"]]
    return overlay, meta, shard_paths


def _frozen_overlay(
    reader: SnapshotReader, source: str | Path
) -> FrozenOverlay:
    """The frozen stitch plane over an open manifest.

    Takes ownership of ``reader``: the returned overlay holds it (or it
    is closed here when the manifest has no ``frozen.*`` sections or
    reading them fails).
    """
    if not reader.has_section("frozen.offsets"):
        try:
            overlay, _, _ = _plan_overlay(reader, source)
        finally:
            reader.close()
        return FrozenOverlay.from_overlay(overlay, compute_closure=True)
    try:
        border_ids = np.asarray(reader.section("borders.all"))
        closure = None
        if reader.has_section("closure.matrix"):
            flat = np.asarray(reader.section("closure.matrix"))
            num = int(border_ids.size)
            if flat.size != num * num:
                raise FormatError(
                    f"{source}: closure matrix has {flat.size} entries, "
                    f"expected {num * num}"
                )
            closure = flat.reshape(num, num)
        frozen = FrozenOverlay(
            border_ids,
            np.asarray(reader.section("frozen.shard")),
            np.asarray(reader.section("frozen.local")),
            np.asarray(reader.section("frozen.offsets")),
            np.asarray(reader.section("frozen.heads")),
            np.asarray(reader.section("frozen.weights")),
            closure=closure,
        )
    except Exception:
        reader.close()
        raise
    frozen.reader = reader
    return frozen


def load_shard_reach(
    path: str | Path, borders: tuple[int, ...], verify: bool = True
) -> ShardReach:
    """One shard's :class:`ShardReach`, from its file's CSR sections.

    Reads only the ``graph.*`` sections of the ``shard-*.dsosnap``
    file — no index is restored — and releases the mapping before
    returning: the reach keeps its own copies.
    """
    reader = SnapshotReader(path, verify=verify)
    try:
        return ShardReach(_load_csr(reader, "graph"), borders)
    finally:
        reader.close()


def load_sharded_snapshot(
    source: str | Path, verify: bool = True
) -> ShardedOracle:
    """Restore the full sharded oracle: manifest plus every shard file."""
    overlay, _, shard_paths = load_shard_plan_overlay(source, verify=verify)
    shard_oracles = [load_snapshot(path, verify=verify) for path in shard_paths]
    return ShardedOracle(overlay, shard_oracles)


def sharded_snapshot_info(source: str | Path) -> dict:
    """Manifest header plus per-shard file sizes, without loading oracles."""
    source = Path(source)
    base = source if source.is_dir() else source.parent
    reader = _open_manifest(source)
    try:
        header = dict(reader.header)
        meta = reader.meta
    finally:
        reader.close()
    shard_bytes = {}
    for name in meta.get("shard_files", []):
        path = base / name
        shard_bytes[name] = path.stat().st_size if path.exists() else None
    header["shard_file_bytes"] = shard_bytes
    header["manifest_bytes"] = (
        (base / MANIFEST_NAME).stat().st_size
        if (base / MANIFEST_NAME).exists()
        else None
    )
    return header
