"""Resumable build checkpoints: the spool directory.

Layout::

    <spool>/
        graph.dsobuild          the build-graph container (fingerprint)
        shards/
            tree-<label>.shard      one CRC-framed file per finished unit
            landmark-<label>.shard

Every file is written atomically (temp file + ``os.replace`` in the
same directory), so a kill at any instant leaves either a complete,
CRC-valid file or a stray ``*.tmp`` that the next run ignores.  Resume
is therefore a directory scan: decode every shard, drop (and delete)
any that fail CRC or frame validation, and rebuild only the missing
units.

The container doubles as the spool's fingerprint.  A resuming build
recomputes its container bytes from scratch — same graph, same
parameters, same selection — and compares them to the spooled file;
any mismatch means the shards on disk belong to a *different* build,
and the spool is rejected with :class:`FormatError` rather than
silently merged into a wrong index.
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import FormatError
from repro.build.shards import (
    LANDMARK_KIND,
    TREE_KIND,
    LandmarkShard,
    TreeShard,
    decode_shard,
    kind_name,
)
from repro.oracle.snapshot import write_atomic

CONTAINER_NAME = "graph.dsobuild"
SHARD_DIR = "shards"

Unit = tuple[int, int]  # (kind, label)


class BuildSpool:
    """A checkpoint directory for one build's container and shards."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.shard_dir = self.root / SHARD_DIR

    @property
    def container_path(self) -> Path:
        return self.root / CONTAINER_NAME

    def prepare(self, container_bytes: bytes) -> bool:
        """Create or validate the spool; return True when resuming.

        Raises
        ------
        FormatError
            When the spool already holds a container whose bytes differ
            from this build's — graph, parameters, or selection drifted
            since the shards were written.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.shard_dir.mkdir(exist_ok=True)
        if self.container_path.exists():
            existing = self.container_path.read_bytes()
            if existing != container_bytes:
                raise FormatError(
                    f"{self.root}: spool fingerprint mismatch — the "
                    f"checkpointed build used a different graph, "
                    f"parameters, or landmark selection; use a fresh "
                    f"spool directory (or delete this one) to rebuild"
                )
            return True
        write_atomic(self.container_path, container_bytes)
        return False

    def shard_path(self, kind: int, label: int) -> Path:
        return self.shard_dir / f"{kind_name(kind)}-{label}.shard"

    def write_shard(self, kind: int, label: int, data: bytes) -> None:
        write_atomic(self.shard_path(kind, label), data)

    def load_shards(
        self,
    ) -> tuple[dict[Unit, TreeShard | LandmarkShard], int]:
        """Scan the spool; return (valid decoded shards, corrupt count).

        Corrupt or truncated shard files (a kill mid-rename cannot
        produce one, but disk faults or manual tampering can) are
        deleted so the unit rebuilds, never trusted.
        """
        results: dict[Unit, TreeShard | LandmarkShard] = {}
        corrupt = 0
        if not self.shard_dir.is_dir():
            return results, corrupt
        for path in sorted(self.shard_dir.glob("*.shard")):
            try:
                shard = decode_shard(path.read_bytes())
            except FormatError:
                corrupt += 1
                try:
                    path.unlink()
                except OSError:  # dsolint: disable=DSO403 -- corrupt shard is rebuilt either way; deletion only reclaims disk
                    pass
                continue
            if isinstance(shard, TreeShard):
                results[(TREE_KIND, shard.root)] = shard
            else:
                results[(LANDMARK_KIND, shard.landmark)] = shard
        return results, corrupt
