"""Frozen-index snapshots: one binary file, mapped by every worker.

The frozen query plane (:mod:`repro.oracle.frozen`) already stores the
hot index data as flat buffers — the CSR graph, preorder trees,
distance-graph rows, landmark tables.  This module serializes exactly
those buffers into a versioned binary container so a serving fleet can
``mmap`` one file from every worker process: the kernel shares the
read-only pages across processes, nothing is pickled, and per-worker
startup is bounded by rebuilding the Python-object views the query
paths iterate (see :func:`load_snapshot`), never by re-running
preprocessing or ``freeze()``.  No mutable :class:`DiGraph` is
rebuilt: restored engines check endpoints and expand node failures
against their own CSR, exactly as engines fresh from ``freeze()`` do.

Layout (DESIGN.md §7)::

    magic   8 bytes   b"DSOSNAP1"
    hlen    4 bytes   little-endian uint32, header byte length
    header  hlen      UTF-8 JSON (format version, engine class, section
                      table, payload CRC-32, metadata)
    pad     0-7       zero bytes aligning the payload to 8
    payload           concatenated raw little-endian array sections,
                      each 8-byte aligned

Sections are raw ``array`` buffers — typecode ``q`` (int64) or ``d``
(float64) — addressed by ``(offset, count)`` relative to the payload
start.  The loader never copies them: each section becomes a
``memoryview(...).cast(typecode)`` over the mapping.  Integrity is a
CRC-32 over the whole payload, verified on load (skippable for hot
restart paths that trust the file).

Answer parity with the in-memory frozen engines is exact and
property-tested (``tests/test_snapshot.py``): the loader reconstructs
the derived structures with the same deterministic code paths
``freeze()`` uses, so every query performs identical arithmetic.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import tempfile
import zlib
from array import array
from pathlib import Path

import numpy as np

from repro.exceptions import FormatError
from repro.graph.csr import FrozenGraph
from repro.landmarks.base import FrozenLandmarkTable
from repro.oracle.frozen import FrozenADISO, FrozenDISO
from repro.overlay.frozen_index import FrozenIndex, FrozenTree

SNAPSHOT_MAGIC = b"DSOSNAP1"
SNAPSHOT_VERSION = 1

_ITEM_SIZE = 8  # both section dtypes ("q" and "d") are 8-byte items


def _align8(value: int) -> int:
    return (value + 7) & ~7


class SectionWriter:
    """Accumulates named array sections and lays them out 8-aligned."""

    def __init__(self) -> None:
        self.table: list[dict] = []
        self.chunks: list[bytes] = []
        self.size = 0

    def add(self, name: str, typecode: str, values) -> None:
        data = array(typecode, values)
        if sys.byteorder != "little":  # pragma: no cover - x86/arm LE
            data.byteswap()
        raw = data.tobytes()
        offset = _align8(self.size)
        if offset != self.size:
            self.chunks.append(b"\x00" * (offset - self.size))
        self.table.append(
            {
                "name": name,
                "typecode": typecode,
                "offset": offset,
                "count": len(data),
            }
        )
        self.chunks.append(raw)
        self.size = offset + len(raw)

    def payload(self) -> bytes:
        return b"".join(self.chunks)


# Historical internal name, kept for callers that predate the rename.
_SectionWriter = SectionWriter


def pack_container(
    writer: SectionWriter,
    *,
    magic: bytes = SNAPSHOT_MAGIC,
    version: int = SNAPSHOT_VERSION,
    engine: str | None = None,
    meta: dict | None = None,
) -> bytes:
    """Serialize accumulated sections into one container byte string.

    This is the DSOSNAP1 framing (DESIGN.md §7) with ``magic`` and
    ``version`` as parameters: the sharded snapshot's manifest
    (:mod:`repro.sharding.snapshot`) reuses the exact same layout,
    writer, and reader without masquerading as serving snapshots.
    ``magic`` must be exactly 8 bytes.

    The output is a pure function of the sections and ``meta`` (the
    header JSON is dumped with sorted keys, no timestamps are added),
    so equal inputs produce bitwise-equal containers.
    """
    if len(magic) != len(SNAPSHOT_MAGIC):
        raise FormatError(
            f"container magic must be {len(SNAPSHOT_MAGIC)} bytes, "
            f"got {magic!r}"
        )
    payload = writer.payload()
    header = {
        "format_version": version,
        "endianness": "little",
        "payload_size": len(payload),
        "payload_crc32": zlib.crc32(payload),
        "sections": writer.table,
        "meta": meta if meta is not None else {},
    }
    if engine is not None:
        header["engine"] = engine
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    prefix_len = len(magic) + 4 + len(header_bytes)
    padding = b"\x00" * (_align8(prefix_len) - prefix_len)
    return b"".join(
        (magic, struct.pack("<I", len(header_bytes)), header_bytes, padding,
         payload)
    )


def _add_csr(writer: SectionWriter, prefix: str, frozen: FrozenGraph) -> None:
    writer.add(f"{prefix}.node_ids", "q", frozen.node_ids)
    writer.add(f"{prefix}.offsets", "q", frozen._offsets)
    writer.add(f"{prefix}.heads", "q", frozen._heads)
    writer.add(f"{prefix}.weights", "d", frozen._weights)


def _add_index(writer: _SectionWriter, index: FrozenIndex) -> None:
    writer.add("index.transit_nodes", "q", index.transit_nodes)

    overlay_offsets = [0]
    head_ranks: list[int] = []
    head_indices: list[int] = []
    weights: list[float] = []
    for rows in index.overlay:
        for head_rank, head_index, weight in rows:
            head_ranks.append(head_rank)
            head_indices.append(head_index)
            weights.append(weight)
        overlay_offsets.append(len(head_ranks))
    writer.add("overlay.offsets", "q", overlay_offsets)
    writer.add("overlay.head_rank", "q", head_ranks)
    writer.add("overlay.head_index", "q", head_indices)
    writer.add("overlay.weight", "d", weights)

    tree_offsets = [0]
    order = array("q")
    dist = array("d")
    size = array("q")
    # Per preorder position, the dense edge id of the tree edge into the
    # node at that position (-1 at each root): enough to rebuild both
    # ``edge_pos`` and the inverted tree index on load.
    edge_ids = array("q")
    for tree in index.trees:
        order.extend(tree.order)
        dist.extend(tree.dist)
        size.extend(tree.size)
        edge_ids.extend(tree.edge_ids)
        tree_offsets.append(len(order))
    writer.add("trees.offsets", "q", tree_offsets)
    writer.add("trees.order", "q", order)
    writer.add("trees.dist", "d", dist)
    writer.add("trees.size", "q", size)
    writer.add("trees.edge_ids", "q", edge_ids)


def save_snapshot(oracle: FrozenDISO, target: str | Path) -> Path:
    """Write ``oracle`` (a frozen engine) as a binary snapshot file.

    Accepts :class:`FrozenDISO` and :class:`FrozenADISO` instances —
    i.e. anything ``freeze()`` returns, covering all four oracle
    families (DISO, ADISO, DISO-S with its fallback graph, ADISO-P).
    The file is written whole and renamed over ``target``
    (:func:`write_atomic`), so a worker still mapping an earlier file
    at that path keeps reading it unchanged.

    Raises
    ------
    FormatError
        If ``oracle`` is not a frozen engine (dict oracles must be
        frozen first; their indexes have no flat-buffer form).
    """
    if not isinstance(oracle, FrozenDISO):
        raise FormatError(
            f"snapshots require a frozen engine (freeze() result), "
            f"got {type(oracle).__name__}"
        )
    writer = SectionWriter()
    _add_csr(writer, "graph", oracle.frozen)
    _add_index(writer, oracle.index)

    meta = {
        "name": oracle.name,
        "exact": bool(oracle.exact),
        "preprocess_seconds": oracle.preprocess_seconds,
        "freeze_seconds": oracle.freeze_seconds,
        "num_nodes": oracle.frozen.number_of_nodes(),
        "num_edges": oracle.frozen.number_of_edges(),
        "num_transit": oracle.index.num_transit(),
    }
    if oracle._fallback is not None:
        _add_csr(writer, "fallback", oracle._fallback)
        meta["has_fallback"] = True
    if isinstance(oracle, FrozenADISO):
        engine = "FrozenADISO"
        table = oracle.landmarks
        n = oracle.frozen.number_of_nodes()
        flat_out: list[float] = []
        flat_in: list[float] = []
        for row in table._outbound:
            flat_out.extend(row)
        for row in table._inbound:
            flat_in.extend(row)
        writer.add("landmarks.nodes", "q", table.landmarks)
        writer.add("landmarks.outbound", "d", flat_out)
        writer.add("landmarks.inbound", "d", flat_in)
        meta["num_landmarks"] = len(table)
        meta["landmark_entries"] = oracle._landmark_entries
        assert len(flat_out) == len(table) * n
    else:
        engine = "FrozenDISO"

    blob = pack_container(writer, engine=engine, meta=meta)
    path = Path(target)
    write_atomic(path, blob)
    return path


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` by a rename over it.

    A process that maps the old file keeps the old inode, so re-saving a
    path never changes bytes under a live mapping: an engine patched by
    deltas (DESIGN.md §8.1) keeps reading its original file's unchanged
    lanes for its whole life.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # dsolint: disable=DSO403 -- tmp cleanup is best-effort; the original failure re-raises below
            pass
        raise


def _read_header(
    raw: bytes | mmap.mmap,
    path: Path,
    magic: bytes = SNAPSHOT_MAGIC,
    version: int = SNAPSHOT_VERSION,
) -> tuple[dict, int]:
    """Parse and validate the container prefix; return (header, payload_start)."""
    if len(raw) < len(magic) + 4:
        raise FormatError(f"{path}: truncated snapshot (no header)")
    if raw[: len(magic)] != magic:
        raise FormatError(
            f"{path}: not a {magic.decode('ascii', 'replace')} container "
            f"(bad magic)"
        )
    (header_len,) = struct.unpack_from("<I", raw, len(magic))
    prefix_len = len(magic) + 4 + header_len
    if len(raw) < prefix_len:
        raise FormatError(f"{path}: truncated snapshot header")
    try:
        header = json.loads(
            bytes(raw[len(magic) + 4 : prefix_len]).decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt snapshot header: {exc}") from exc
    found = header.get("format_version")
    if found != version:
        raise FormatError(
            f"{path}: unsupported snapshot version {found!r} "
            f"(expected {version})"
        )
    if header.get("endianness") != sys.byteorder:
        raise FormatError(
            f"{path}: snapshot endianness {header.get('endianness')!r} "
            f"does not match this machine ({sys.byteorder})"
        )
    return header, _align8(prefix_len)


class SnapshotReader:
    """A mapped snapshot file and zero-copy views into its sections.

    Holds the open file descriptor and ``mmap`` for as long as any
    restored structure references the mapped pages; the loaded oracle
    keeps a reference to the reader for exactly that reason.
    """

    def __init__(
        self,
        path: str | Path,
        verify: bool = True,
        magic: bytes = SNAPSHOT_MAGIC,
        version: int = SNAPSHOT_VERSION,
    ) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "rb")
        stat = os.fstat(self._handle.fileno())
        self._stamp = (stat.st_size, stat.st_mtime_ns)
        try:
            self._mmap = mmap.mmap(
                self._handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError as exc:
            self._handle.close()
            raise FormatError(f"{self.path}: empty snapshot file") from exc
        try:
            self.header, self._payload_start = _read_header(
                self._mmap, self.path, magic=magic, version=version
            )
            self._prefix = self._mmap[: self._payload_start]
            payload_size = self.header.get("payload_size", 0)
            if self._payload_start + payload_size > len(self._mmap):
                raise FormatError(f"{self.path}: truncated snapshot payload")
            self._payload = memoryview(self._mmap)[
                self._payload_start : self._payload_start + payload_size
            ]
            if verify:
                crc = zlib.crc32(self._payload)
                if crc != self.header.get("payload_crc32"):
                    raise FormatError(
                        f"{self.path}: payload checksum mismatch "
                        f"(file corrupt?)"
                    )
            self._sections = {
                entry["name"]: entry for entry in self.header["sections"]
            }
        except Exception:
            self.close()
            raise

    @property
    def meta(self) -> dict:
        return self.header.get("meta", {})

    def section(self, name: str):
        """Zero-copy typed view of one section (int64 or float64)."""
        entry = self._sections.get(name)
        if entry is None:
            raise FormatError(f"{self.path}: missing section {name!r}")
        start = entry["offset"]
        end = start + entry["count"] * _ITEM_SIZE
        if end > len(self._payload):
            raise FormatError(
                f"{self.path}: section {name!r} overruns the payload"
            )
        return self._payload[start:end].cast(entry["typecode"])

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def rewritten(self) -> bool:
        """Whether the mapped file was written to since it was opened.

        A file rewritten in place changes under the mapping (a file
        replaced by a rename does not: the mapping keeps the old one).
        The size and modification time are checked first, then the
        header, whose CRC changes with the payload.
        """
        stat = os.fstat(self._handle.fileno())
        if (stat.st_size, stat.st_mtime_ns) != self._stamp:
            return True
        return self._mmap[: self._payload_start] != self._prefix

    def close(self) -> None:
        """Release views and the mapping (restored oracles die with it)."""
        payload = getattr(self, "_payload", None)
        if payload is not None:
            payload.release()
            self._payload = None
        mapping = getattr(self, "_mmap", None)
        if mapping is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Live section views still reference the pages; the map
                # stays valid until they are garbage-collected.
                pass
            self._mmap = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _load_csr(reader: SnapshotReader, prefix: str) -> FrozenGraph:
    return FrozenGraph(
        node_ids=list(reader.section(f"{prefix}.node_ids")),
        offsets=reader.section(f"{prefix}.offsets"),
        heads=reader.section(f"{prefix}.heads"),
        weights=reader.section(f"{prefix}.weights"),
    )


#: The sections holding the compiled index, per transit rank.
_INDEX_SECTIONS = (
    "overlay.offsets", "overlay.head_rank", "overlay.head_index",
    "overlay.weight", "trees.offsets", "trees.order", "trees.dist",
    "trees.size", "trees.edge_ids",
)


def _index_lanes(reader: SnapshotReader) -> dict:
    return {name: reader.section(name) for name in _INDEX_SECTIONS}


def _load_index(reader: SnapshotReader, frozen: FrozenGraph) -> FrozenIndex:
    transit_nodes = list(reader.section("index.transit_nodes"))
    lanes = _index_lanes(reader)
    ranks = range(len(transit_nodes))
    return FrozenIndex(
        frozen=frozen,
        transit_nodes=transit_nodes,
        overlay=[_overlay_row(lanes, rank) for rank in ranks],
        trees=[_tree(lanes, rank) for rank in ranks],
    )


def _overlay_row(lanes: dict, rank: int) -> tuple:
    """Rank ``rank``'s ``(head_rank, head_index, weight)`` overlay rows."""
    offsets = lanes["overlay.offsets"]
    head_rank = lanes["overlay.head_rank"]
    head_index = lanes["overlay.head_index"]
    weight = lanes["overlay.weight"]
    return tuple(
        (head_rank[pos], head_index[pos], weight[pos])
        for pos in range(offsets[rank], offsets[rank + 1])
    )


def _tree(lanes: dict, rank: int, copy: bool = False) -> FrozenTree:
    """Rank ``rank``'s tree over the mapped lanes, or over private copies."""
    offsets = lanes["trees.offsets"]
    start, end = offsets[rank], offsets[rank + 1]
    parts = [
        lanes[name][start:end]
        for name in ("trees.order", "trees.dist", "trees.size",
                     "trees.edge_ids")
    ]
    if copy:
        parts = [array(part.format, part) for part in parts]
    return FrozenTree(*parts)


def load_snapshot(
    source: str | Path, verify: bool = True
) -> FrozenDISO | FrozenADISO:
    """Map a snapshot file and restore the frozen engine it contains.

    The heavyweight storage (CSR buffers, preorder trees, overlay rows,
    landmark tables) stays backed by the mapping — shared read-only
    across every process that loads the same file.  What is rebuilt, in
    one linear pass and never per query, is the CSR's label index and
    the overlay rows.  The other Python-object views the query paths
    iterate — the CSR's edge-id dict and forward and reverse adjacency
    tuples, the overlay-derived rows, the inverted index, each tree's
    ``edge_pos`` and ``pos_of`` dicts — are built before the engine's
    first query, or at once by ``index.build_views()`` (DESIGN.md
    §7.2).  No :class:`DiGraph` is built:
    the engine validates endpoints and expands node failures against
    its own CSR.

    Parameters
    ----------
    source:
        Path of a file written by :func:`save_snapshot`.
    verify:
        Check the payload CRC-32 before restoring (default).  Skipping
        saves one pass over the file for trusted/local restarts.

    Raises
    ------
    FormatError
        On a missing/garbled header, version or endianness mismatch,
        truncation, or checksum failure.
    """
    reader = SnapshotReader(source, verify=verify)
    meta = reader.meta
    frozen = _load_csr(reader, "graph")
    index = _load_index(reader, frozen)
    fallback = (
        _load_csr(reader, "fallback") if reader.has_section("fallback.node_ids")
        else None
    )
    parts = dict(
        frozen=frozen,
        index=index,
        fallback=fallback,
        name=meta.get("name", "DISO-F"),
        exact=bool(meta.get("exact", True)),
        preprocess_seconds=meta.get("preprocess_seconds", 0.0),
        freeze_seconds=meta.get("freeze_seconds", 0.0),
    )
    if reader.header.get("engine") == "FrozenADISO":
        nodes = reader.section("landmarks.nodes")
        flat_out = reader.section("landmarks.outbound")
        flat_in = reader.section("landmarks.inbound")
        n = frozen.number_of_nodes()
        count = len(nodes)
        landmarks = FrozenLandmarkTable._restore(
            landmarks=list(nodes),
            outbound=[flat_out[i * n : (i + 1) * n] for i in range(count)],
            inbound=[flat_in[i * n : (i + 1) * n] for i in range(count)],
        )
        oracle = FrozenADISO._restore_adiso(
            landmarks=landmarks,
            landmark_entries=int(meta.get("landmark_entries", 0)),
            **parts,
        )
    elif reader.header.get("engine") == "FrozenDISO":
        oracle = FrozenDISO._restore(**parts)
    else:
        engine = reader.header.get("engine")
        reader.close()
        raise FormatError(f"{source}: unknown snapshot engine {engine!r}")
    # The restored structures reference the mapped pages; keep the
    # mapping alive exactly as long as the oracle.
    oracle._snapshot_reader = reader
    return oracle


#: Sections a delta cannot express: the node set, the CSR shape and
#: the transit set.
_SHAPE_SECTIONS = (
    "graph.node_ids", "graph.offsets", "graph.heads", "index.transit_nodes",
)


def snapshot_delta(
    old: SnapshotReader, new: SnapshotReader
) -> tuple[list[int], list[int]] | str:
    """How a live engine loaded from ``old`` can become one of ``new``.

    Returns ``(edge_ids, ranks)``: the edge ids whose weight differs
    bitwise and the transit ranks whose tree or overlay row differs —
    what :func:`apply_snapshot_delta` patches.  Returns a string naming
    the reason instead when only a full load can make the step: an
    engine other than a plain :class:`FrozenDISO`, a fallback graph, or
    a changed node set, CSR shape or transit set.
    """
    for reader in (old, new):
        engine = reader.header.get("engine")
        if engine != "FrozenDISO":
            return f"{reader.path.name}: engine {engine} has no delta form"
        if reader.has_section("fallback.node_ids"):
            return f"{reader.path.name}: has a fallback graph"
    for name in _SHAPE_SECTIONS:
        if bytes(old.section(name)) != bytes(new.section(name)):
            return f"{name} changed"
    edge_ids = np.flatnonzero(
        _bits(old, "graph.weights") != _bits(new, "graph.weights")
    )
    ranks = np.union1d(
        _changed_ranks(old, new, "trees.offsets", (
            "trees.order", "trees.dist", "trees.size", "trees.edge_ids",
        )),
        _changed_ranks(old, new, "overlay.offsets", (
            "overlay.head_rank", "overlay.head_index", "overlay.weight",
        )),
    )
    return edge_ids.tolist(), ranks.tolist()


def _bits(reader: SnapshotReader, name: str):
    """A section as int64 words, so float lanes compare bitwise."""
    return np.frombuffer(reader.section(name), dtype=np.int64)


def _changed_ranks(old, new, offsets_name: str, lane_names) -> "np.ndarray":
    """Ranks whose slice of any of ``lane_names`` differs."""
    old_offsets = _bits(old, offsets_name)
    new_offsets = _bits(new, offsets_name)
    lengths = np.diff(old_offsets)
    changed = lengths != np.diff(new_offsets)
    # Compare the equal-length slices entry by entry: flatten them into
    # one position list per file, tagged with the owning rank.
    same = np.flatnonzero(~changed)
    lengths = lengths[same]
    within = np.arange(int(lengths.sum())) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    old_pos = np.repeat(old_offsets[same], lengths) + within
    new_pos = np.repeat(new_offsets[same], lengths) + within
    differs = np.zeros(old_pos.size, dtype=bool)
    for name in lane_names:
        differs |= _bits(old, name)[old_pos] != _bits(new, name)[new_pos]
    changed[np.repeat(same, lengths)[differs]] = True
    return np.flatnonzero(changed)


def apply_snapshot_delta(
    oracle: FrozenDISO,
    source: str | Path,
    edge_ids: list[int],
    ranks: list[int],
) -> None:
    """Patch ``oracle`` in place into the engine ``source`` holds.

    ``edge_ids`` and ``ranks`` come from :func:`snapshot_delta` between
    the file ``oracle`` answers as and ``source``.  Only those slices
    are read, as private copies, and the mapping of ``source`` is
    closed before returning: the engine keeps no reference to it.

    Raises
    ------
    FormatError
        If ``source`` is unreadable or its shape differs from the
        engine's.
    """
    reader = SnapshotReader(source)
    try:
        meta = reader.meta
        if (
            meta.get("num_nodes") != oracle.frozen.number_of_nodes()
            or meta.get("num_edges") != oracle.frozen.number_of_edges()
            or meta.get("num_transit") != oracle.index.num_transit()
        ):
            raise FormatError(f"{source}: shape differs from the engine's")
        weights = reader.section("graph.weights")
        changes = {edge_id: weights[edge_id] for edge_id in edge_ids}
        lanes = _index_lanes(reader)
        updates = {
            rank: (_tree(lanes, rank, copy=True), _overlay_row(lanes, rank))
            for rank in ranks
        }
        del weights, lanes
    finally:
        reader.close()
    oracle.apply_delta(changes, updates)


def snapshot_info(source: str | Path) -> dict:
    """Read a snapshot's header without restoring the engine.

    Returns the parsed header (format version, engine, metadata and the
    section table) plus the file size — what the CLI prints.
    """
    path = Path(source)
    raw = path.read_bytes()
    header, payload_start = _read_header(raw, path)
    header["file_bytes"] = len(raw)
    header["payload_start"] = payload_start
    return header
