"""Index builds are deterministic down to the snapshot byte.

Two builds of the same index must save identical snapshots (modulo the
two wall-clock meta fields), whatever the hash seed and whatever ran in
the process before: snapshot diffs (the delta swap) and cache keys rest
on it, and the DSO1xx lint rules guard it statically.  Each family is
built in two fresh interpreters with different ``PYTHONHASHSEED``s and
once in this (already busy) test process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.generators import road_network
from repro.oracle.adiso import ADISO
from repro.oracle.adiso_p import ADISOPartial
from repro.oracle.diso import DISO
from repro.oracle.diso_s import DISOSparse
from util import canonical_snapshot_bytes

FAMILIES = ("diso", "adiso", "diso-s", "adiso-p")
TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def _build(family: str):
    graph = road_network(6, 6, seed=1)
    if family == "diso":
        return DISO(graph, tau=3)
    if family == "adiso":
        return ADISO(graph, tau=3, num_landmarks=4)
    if family == "diso-s":
        return DISOSparse(graph, beta=1.5, tau=3, theta=1.0)
    return ADISOPartial(graph, tau=3, num_landmarks=4, tau_h=3)


def write_snapshots(out_dir: str) -> None:
    """Child entry point: one canonical snapshot per family."""
    for family in FAMILIES:
        data = canonical_snapshot_bytes(_build(family).freeze())
        (Path(out_dir) / f"{family}.dsosnap").write_bytes(data)


@pytest.fixture(scope="module")
def child_snapshots(tmp_path_factory):
    """``{hash_seed: {family: bytes}}`` from two fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(TESTS_DIR)])
    results = {}
    for hash_seed in ("0", "1"):
        out_dir = tmp_path_factory.mktemp(f"hashseed{hash_seed}")
        env["PYTHONHASHSEED"] = hash_seed
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from test_build_determinism import "
             "write_snapshots; write_snapshots(sys.argv[1])",
             str(out_dir)],
            env=env, check=True, timeout=300,
        )
        results[hash_seed] = {
            family: (out_dir / f"{family}.dsosnap").read_bytes()
            for family in FAMILIES
        }
    return results


@pytest.mark.parametrize("family", FAMILIES)
def test_snapshot_bytes_independent_of_hash_seed(family, child_snapshots):
    assert child_snapshots["0"][family] == child_snapshots["1"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_snapshot_bytes_match_a_fresh_process(family, child_snapshots):
    in_process = canonical_snapshot_bytes(_build(family).freeze())
    assert in_process == child_snapshots["0"][family]
