"""Binary snapshots must restore engines with bitwise answer parity.

The snapshot contract is stronger than "approximately the same oracle":
a restored engine performs identical arithmetic to the in-memory frozen
engine it was saved from, so every answer — including infinities from
disconnecting failure sets and the s == t shortcut — is ``==``-equal.
These tests sweep random graphs and failure sets via hypothesis, check
the container rejects every corruption mode with ``FormatError``, and
pin down the zero-copy property (sections are views over the mapping,
not copies) plus byte-identical re-saves.
"""

from __future__ import annotations

import gc
import json
import random
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import FormatError
from repro.oracle.adiso import ADISO
from repro.oracle.diso import DISO
from repro.oracle.diso_s import DISOSparse
from repro.oracle.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotReader,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from util import random_failures_from, random_graph


def _random_cases(graph, seed: int, count: int):
    """Random (source, target, failures) with s == t and heavy cuts."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    edges = sorted((t, h) for t, h, _ in graph.edges())
    for index in range(count):
        source = rng.choice(nodes)
        target = source if index % 7 == 0 else rng.choice(nodes)
        # index % 5 == 0 draws a large failure set, which on a sparse
        # random graph regularly disconnects target — the infinity path.
        k = 12 if index % 5 == 0 else rng.randint(0, 4)
        failed = set(rng.sample(edges, min(k, len(edges) - 1))) if k else None
        yield source, target, failed


def _assert_snapshot_parity(oracle, graph, seed):
    """save -> mmap load -> every query bitwise equal to the original."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_snapshot(oracle, Path(tmp) / "o.dsosnap")
        loaded = load_snapshot(path)
        try:
            for source, target, failed in _random_cases(graph, seed, 30):
                expected = oracle.query(source, target, failed)
                got = loaded.query(source, target, failed)
                assert got == expected, (source, target, failed)
        finally:
            loaded.close()


class TestSnapshotParity:
    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=8, deadline=None)
    def test_diso_parity(self, seed):
        graph = random_graph(seed)
        frozen = DISO(graph, tau=3).freeze()
        _assert_snapshot_parity(frozen, graph, seed + 1)

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=6, deadline=None)
    def test_adiso_parity(self, seed):
        graph = random_graph(seed)
        frozen = ADISO(graph, tau=3, seed=seed).freeze()
        _assert_snapshot_parity(frozen, graph, seed + 1)

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=6, deadline=None)
    def test_diso_s_parity_with_fallback_sections(self, seed):
        graph = random_graph(seed, n=25, extra=90)
        frozen = DISOSparse(graph, beta=1.5, tau=3).freeze()
        assert frozen._fallback is not None
        _assert_snapshot_parity(frozen, graph, seed + 1)

    def test_self_loop_query_and_unknown_node(self):
        graph = random_graph(3)
        frozen = DISO(graph, tau=3).freeze()
        with tempfile.TemporaryDirectory() as tmp:
            path = save_snapshot(frozen, Path(tmp) / "o.dsosnap")
            loaded = load_snapshot(path)
            assert loaded.query(5, 5) == 0.0
            with pytest.raises(Exception):
                loaded.query(10**9, 5)
            loaded.close()


class TestSnapshotContainer:
    def test_save_rejects_dict_oracles(self, tmp_path):
        oracle = DISO(random_graph(1), tau=3)
        with pytest.raises(FormatError, match="frozen"):
            save_snapshot(oracle, tmp_path / "o.dsosnap")

    def test_resave_is_byte_identical(self, tmp_path):
        frozen = ADISO(random_graph(2), tau=3, seed=2).freeze()
        first = save_snapshot(frozen, tmp_path / "a.dsosnap")
        loaded = load_snapshot(first)
        second = save_snapshot(loaded, tmp_path / "b.dsosnap")
        assert first.read_bytes() == second.read_bytes()
        loaded.close()

    def test_sections_are_zero_copy_views(self, tmp_path):
        frozen = DISO(random_graph(4), tau=3).freeze()
        path = save_snapshot(frozen, tmp_path / "o.dsosnap")
        loaded = load_snapshot(path)
        reader = loaded._snapshot_reader
        for storage in (
            loaded.frozen._offsets,
            loaded.frozen._heads,
            loaded.frozen._weights,
            loaded.index.trees[0].order,
            loaded.index.trees[0].dist,
        ):
            assert isinstance(storage, memoryview)
            # .obj walks back to the buffer owner: the mapping itself.
            assert storage.obj is reader._mmap
        reader.close()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda g: DISO(g, tau=3), id="DISO"),
            pytest.param(lambda g: ADISO(g, tau=3, seed=1), id="ADISO"),
        ],
    )
    def test_close_releases_the_mapping(self, tmp_path, build):
        graph = random_graph(7)
        frozen = build(graph).freeze()
        path = save_snapshot(frozen, tmp_path / "o.dsosnap")

        def resource_warnings(close: bool) -> list:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                engine = load_snapshot(path)
                assert engine.query(0, 7) == frozen.query(0, 7)
                if close:
                    engine.close()
                    engine.close()  # idempotent
                del engine
                gc.collect()
            return [
                warning for warning in caught
                if issubclass(warning.category, ResourceWarning)
            ]

        assert resource_warnings(close=True) == []
        # The probe does see the leak that close() prevents.
        assert resource_warnings(close=False)
        with load_snapshot(path) as engine:
            assert engine.query(0, 7) == frozen.query(0, 7)
        assert engine._snapshot_reader is None
        # A freeze()d engine maps nothing: close() is a no-op.
        answer = frozen.query(0, 7)
        frozen.close()
        assert frozen.query(0, 7) == answer

    def test_info_reads_header_without_restoring(self, tmp_path):
        frozen = DISO(random_graph(5), tau=3).freeze()
        path = save_snapshot(frozen, tmp_path / "o.dsosnap")
        info = snapshot_info(path)
        assert info["engine"] == "FrozenDISO"
        assert info["file_bytes"] == path.stat().st_size
        assert info["meta"]["num_nodes"] == 30
        names = {entry["name"] for entry in info["sections"]}
        assert "graph.offsets" in names and "trees.order" in names

    def test_verify_false_skips_checksum(self, tmp_path):
        frozen = DISO(random_graph(6), tau=3).freeze()
        path = save_snapshot(frozen, tmp_path / "o.dsosnap")
        loaded = load_snapshot(path, verify=False)
        assert loaded.query(0, 7) == frozen.query(0, 7)
        loaded.close()


class TestSnapshotCorruption:
    @pytest.fixture()
    def snapshot_path(self, tmp_path):
        frozen = DISO(random_graph(7), tau=3).freeze()
        return save_snapshot(frozen, tmp_path / "o.dsosnap")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dsosnap"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="empty"):
            SnapshotReader(path)

    def test_bad_magic(self, snapshot_path):
        raw = bytearray(snapshot_path.read_bytes())
        raw[:8] = b"NOTASNAP"
        snapshot_path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_snapshot(snapshot_path)

    def test_truncated_header(self, snapshot_path):
        snapshot_path.write_bytes(snapshot_path.read_bytes()[:10])
        with pytest.raises(FormatError, match="truncated"):
            load_snapshot(snapshot_path)

    def test_truncated_payload(self, snapshot_path):
        raw = snapshot_path.read_bytes()
        snapshot_path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(FormatError, match="truncated"):
            load_snapshot(snapshot_path)

    def test_version_mismatch(self, snapshot_path):
        raw = snapshot_path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        header["format_version"] = 99
        # Re-encoding may change the header length; rebuild the prefix
        # with correct padding so only the version is wrong.
        new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
        prefix_len = 8 + 4 + len(new_header)
        padding = b"\x00" * ((-prefix_len) % 8)
        old_payload_start = (12 + header_len + 7) & ~7
        snapshot_path.write_bytes(
            SNAPSHOT_MAGIC
            + struct.pack("<I", len(new_header))
            + new_header
            + padding
            + raw[old_payload_start:]
        )
        with pytest.raises(FormatError, match="version"):
            load_snapshot(snapshot_path)

    def test_checksum_mismatch(self, snapshot_path):
        info = snapshot_info(snapshot_path)
        raw = bytearray(snapshot_path.read_bytes())
        raw[info["payload_start"] + 8] ^= 0xFF
        snapshot_path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum"):
            load_snapshot(snapshot_path)

    def test_garbled_header_json(self, snapshot_path):
        raw = bytearray(snapshot_path.read_bytes())
        raw[14] = 0xFF  # inside the JSON header
        snapshot_path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="corrupt|checksum"):
            load_snapshot(snapshot_path)
