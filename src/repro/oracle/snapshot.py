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
import struct
import sys
import zlib
from array import array
from pathlib import Path

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
    ``version`` as parameters: sibling planes — the parallel build
    plane's graph container in :mod:`repro.build.graph_store` — reuse
    the exact same layout, writer, and reader without masquerading as
    serving snapshots.  ``magic`` must be exactly 8 bytes.

    The output is a pure function of the sections and ``meta`` (the
    header JSON is dumped with sorted keys, no timestamps are added),
    so equal inputs produce bitwise-equal containers — the property the
    build plane's checkpoint fingerprinting relies on.
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
    order: list[int] = []
    dist: list[float] = []
    size: list[int] = []
    # Per preorder position, the dense edge id of the tree edge into the
    # node at that position (-1 at each root): enough to rebuild both
    # ``edge_pos`` and the inverted tree index on load.
    edge_ids: list[int] = []
    for tree in index.trees:
        base = len(order)
        order.extend(tree.order)
        dist.extend(tree.dist)
        size.extend(tree.size)
        edge_ids.extend([-1] * len(tree.order))
        for edge_id, pos in tree.edge_pos.items():
            edge_ids[base + pos] = edge_id
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
    path.write_bytes(blob)
    return path


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


def _load_index(reader: SnapshotReader, frozen: FrozenGraph) -> FrozenIndex:
    transit_nodes = list(reader.section("index.transit_nodes"))
    n = frozen.number_of_nodes()
    rank_of = [-1] * n
    transit_flags = bytearray(n)
    for rank, node_index in enumerate(transit_nodes):
        rank_of[node_index] = rank
        transit_flags[node_index] = 1

    overlay_offsets = reader.section("overlay.offsets")
    head_rank = reader.section("overlay.head_rank")
    head_index = reader.section("overlay.head_index")
    weight = reader.section("overlay.weight")
    overlay = [
        tuple(
            (head_rank[pos], head_index[pos], weight[pos])
            for pos in range(overlay_offsets[rank], overlay_offsets[rank + 1])
        )
        for rank in range(len(transit_nodes))
    ]

    tree_offsets = reader.section("trees.offsets")
    tree_order = reader.section("trees.order")
    tree_dist = reader.section("trees.dist")
    tree_size = reader.section("trees.size")
    tree_edge_ids = reader.section("trees.edge_ids")
    trees: list[FrozenTree] = []
    inverted_members: dict[int, list[int]] = {}
    for rank in range(len(transit_nodes)):
        start, end = tree_offsets[rank], tree_offsets[rank + 1]
        order = tree_order[start:end]
        edge_pos: dict[int, int] = {}
        for pos in range(1, end - start):
            edge_id = tree_edge_ids[start + pos]
            if edge_id >= 0:
                edge_pos[edge_id] = pos
                inverted_members.setdefault(edge_id, []).append(rank)
        trees.append(
            FrozenTree(
                root=order[0],
                order=order,
                dist=tree_dist[start:end],
                size=tree_size[start:end],
                edge_pos=edge_pos,
            )
        )
    inverted = {
        edge_id: tuple(ranks) for edge_id, ranks in inverted_members.items()
    }
    return FrozenIndex(
        frozen=frozen,
        transit_nodes=transit_nodes,
        rank_of=rank_of,
        transit_flags=transit_flags,
        overlay=overlay,
        inverted=inverted,
        trees=trees,
    )


def load_snapshot(
    source: str | Path, verify: bool = True
) -> FrozenDISO | FrozenADISO:
    """Map a snapshot file and restore the frozen engine it contains.

    The heavyweight storage (CSR buffers, preorder trees, overlay rows,
    landmark tables) stays backed by the mapping — shared read-only
    across every process that loads the same file.  What is rebuilt, in
    one linear pass and never per query, is the Python-object views the
    query paths iterate: the CSR's label index, edge-id dict and forward
    and reverse adjacency tuples, the overlay rows, each tree's
    ``edge_pos`` and ``pos_of`` dicts, and the inverted index.  No
    :class:`DiGraph` is built: the engine validates endpoints and
    expands node failures against its own CSR.

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
