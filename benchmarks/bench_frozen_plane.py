"""Bench: frozen query plane vs dict engines (DISO and ADISO).

Measures per-query latency of the dict engines against their
``freeze()`` counterparts on a road network and a scale-free network in
the paper's standard 10^3-10^4 node range, with the paper's failure
workload (f_gen=5, p=0.0005).  Engines are timed in interleaved rounds
(dict batch, frozen batch, repeat) so machine-load drift hits both
sides equally; the reported number is the median over all rounds.

Every run first asserts exact answer parity over the whole batch — a
benchmark of a wrong answer is worthless.  The frozen ADISO engine is
checked against the dict ADISO; the frozen DISO engine runs the
bidirectional overlay search, so it is checked against the dict DISO-B
(:class:`~repro.oracle.diso_bi.DISOBidirectional`) over the same
transit set, bitwise.  The dict DISO row still times the forward-search
DISO, the oracle the paper measures.

The frozen DISO cells also time CSR Dijkstra on ``G - F``
(:func:`repro.graph.csr.csr_distance`) on the same queries, interleaved
with the frozen engine, and report ``dijkstra_ratio``: Dijkstra's
median per-query time over the frozen engine's.  An oracle that does
not beat the plain search on its own queries has no reason to exist,
so a change to the query path that leaves this ratio flat did not make
the oracle better.

Standalone usage (writes ``results/frozen_plane.txt`` and merges the
repo-root ``BENCH_query_latency.json``; ``merge_json`` stamps
``git_rev`` + ``cpu_count`` into every entry centrally, so latency
numbers stay attributable to the code and hardware that produced
them)::

    PYTHONPATH=src:benchmarks python benchmarks/bench_frozen_plane.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_frozen_plane.py --smoke

``--smoke`` runs tiny graphs and two rounds — a CI-sized end-to-end
check of build, freeze, parity, and the reporting path (no files
written, no speedup asserted; micro-graph timings are pure noise).
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.graph.csr import SearchArena, csr_distance
from repro.graph.generators import road_network, scale_free_network
from repro.oracle.adiso import ADISO
from repro.oracle.diso import DISO
from repro.oracle.diso_bi import DISOBidirectional
from repro.workload.queries import generate_queries

from bench_util import latency_summary, merge_latency_json, write_result

SEED = 7
QUERY_COUNT = 25
ROUNDS = 10

#: (name, builder) — both inside the paper's standard evaluation range.
GRAPHS = (
    ("road2k", lambda: road_network(48, 48, seed=SEED)),
    ("scalefree1k5", lambda: scale_free_network(1500, seed=SEED)),
)
SMOKE_GRAPHS = (
    ("road-smoke", lambda: road_network(8, 8, seed=SEED)),
    ("scalefree-smoke", lambda: scale_free_network(100, seed=SEED)),
)

#: (name, builder, parity reference) — the reference is the dict engine
#: whose float additions the frozen engine repeats.
ORACLES = (
    (
        "DISO",
        lambda g: DISO(g, tau=4, theta=1.0),
        lambda oracle: DISOBidirectional(oracle.graph, transit=oracle.transit),
    ),
    (
        "ADISO",
        lambda g: ADISO(g, tau=4, theta=1.0, seed=SEED),
        lambda oracle: oracle,
    ),
)


def timed_batch(oracle, batch) -> list[float]:
    """Per-query wall-clock seconds for one pass over ``batch``."""
    samples = []
    for query in batch:
        started = time.perf_counter()
        oracle.query(query.source, query.target, query.failed)
        samples.append(time.perf_counter() - started)
    return samples


def timed_dijkstra(frozen_oracle, batch) -> list[float]:
    """Per-query seconds of CSR Dijkstra on ``G - F`` over ``batch``.

    Each sample includes translating ``F`` to edge ids, as the oracle's
    does; the search reuses one arena, as the oracle's searches do.
    """
    frozen = frozen_oracle.frozen
    arena = SearchArena(frozen.number_of_nodes())
    samples = []
    for query in batch:
        started = time.perf_counter()
        csr_distance(
            frozen, query.source, query.target,
            frozen.edge_ids(query.failed), arena,
        )
        samples.append(time.perf_counter() - started)
    return samples


def compare_planes(
    graph, oracle_factory, reference_factory, rounds: int, query_count: int,
    with_dijkstra: bool,
):
    """Build dict + frozen engines, assert parity, time both.

    Returns ``(dict_samples, frozen_samples, dijkstra_samples,
    frozen_oracle)``; ``dijkstra_samples`` is empty unless
    ``with_dijkstra``, in which case each round also times CSR
    Dijkstra on the same batch.  Its answers are not compared: on float
    weights they may differ from the oracle's in the last bits.
    """
    dict_oracle = oracle_factory(graph)
    frozen_oracle = dict_oracle.freeze()
    reference = reference_factory(dict_oracle)
    batch = generate_queries(
        graph, query_count, f_gen=5, p=0.0005, seed=SEED
    )
    for query in batch:
        expected = reference.query(query.source, query.target, query.failed)
        got = frozen_oracle.query(query.source, query.target, query.failed)
        assert got == expected, (
            f"frozen/dict mismatch on {query}: {got} != {expected}"
        )
    dict_samples: list[float] = []
    frozen_samples: list[float] = []
    dijkstra_samples: list[float] = []
    for _ in range(rounds):
        dict_samples.extend(timed_batch(dict_oracle, batch))
        frozen_samples.extend(timed_batch(frozen_oracle, batch))
        if with_dijkstra:
            dijkstra_samples.extend(timed_dijkstra(frozen_oracle, batch))
    return dict_samples, frozen_samples, dijkstra_samples, frozen_oracle


def run(smoke: bool = False, rounds: int | None = None) -> list[dict]:
    """Run every (graph, oracle) cell; return one row per cell."""
    graphs = SMOKE_GRAPHS if smoke else GRAPHS
    rounds = rounds or (2 if smoke else ROUNDS)
    query_count = 10 if smoke else QUERY_COUNT
    rows = []
    for graph_name, build in graphs:
        graph = build()
        for oracle_name, factory, reference in ORACLES:
            dict_s, frozen_s, dijkstra_s, frozen_oracle = compare_planes(
                graph, factory, reference, rounds, query_count,
                with_dijkstra=oracle_name == "DISO",
            )
            dict_median = statistics.median(dict_s)
            frozen_median = statistics.median(frozen_s)
            row = {
                "graph": graph_name,
                "oracle": oracle_name,
                "dict_samples": dict_s,
                "frozen_samples": frozen_s,
                "dict_median_us": 1e6 * dict_median,
                "frozen_median_us": 1e6 * frozen_median,
                "speedup": dict_median / frozen_median,
                "build_s": frozen_oracle.preprocess_seconds
                - frozen_oracle.freeze_seconds,
                "freeze_s": frozen_oracle.freeze_seconds,
            }
            line = (
                f"{graph_name:>16} {oracle_name:>6}: "
                f"dict {row['dict_median_us']:8.1f}us  "
                f"frozen {row['frozen_median_us']:8.1f}us  "
                f"speedup {row['speedup']:.2f}x  "
                f"(freeze {row['freeze_s']:.3f}s)"
            )
            if dijkstra_s:
                dijkstra_median = statistics.median(dijkstra_s)
                row["dijkstra_median_us"] = 1e6 * dijkstra_median
                row["dijkstra_ratio"] = dijkstra_median / frozen_median
                line += (
                    f"  dijkstra {row['dijkstra_median_us']:8.1f}us "
                    f"({row['dijkstra_ratio']:.2f}x)"
                )
            rows.append(row)
            print(line)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        "Frozen query plane vs dict engines "
        "(median per-query latency, interleaved rounds)",
        f"{'graph':>16} {'oracle':>8} {'dict(us)':>10} "
        f"{'frozen(us)':>10} {'speedup':>8} {'freeze(s)':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['graph']:>16} {row['oracle']:>8} "
            f"{row['dict_median_us']:>10.1f} {row['frozen_median_us']:>10.1f} "
            f"{row['speedup']:>7.2f}x {row['freeze_s']:>10.3f}"
        )
    lines.append("")
    lines.append(
        "Frozen DISO vs CSR Dijkstra on G - F "
        "(same queries, interleaved rounds)"
    )
    lines.append(
        f"{'graph':>16} {'frozen(us)':>11} {'dijkstra(us)':>13} "
        f"{'dijkstra_ratio':>15}"
    )
    for row in rows:
        if "dijkstra_ratio" in row:
            lines.append(
                f"{row['graph']:>16} {row['frozen_median_us']:>11.1f} "
                f"{row['dijkstra_median_us']:>13.1f} "
                f"{row['dijkstra_ratio']:>14.2f}x"
            )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graphs, two rounds, no files written",
    )
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args()
    rows = run(smoke=args.smoke, rounds=args.rounds)
    if args.smoke:
        print("smoke run OK (parity held on every cell)")
        return
    write_result("frozen_plane", format_rows(rows))
    entries = {}
    for row in rows:
        build = row["build_s"]
        entries[f"{row['oracle']}@{row['graph']}"] = latency_summary(
            build, row["dict_samples"]
        )
        entries[f"{row['oracle']}-F@{row['graph']}"] = latency_summary(
            build + row["freeze_s"], row["frozen_samples"]
        )
        if "dijkstra_ratio" in row:
            entries[f"{row['oracle']}-F/Dijkstra@{row['graph']}"] = {
                "frozen_median_us": round(row["frozen_median_us"], 3),
                "dijkstra_median_us": round(row["dijkstra_median_us"], 3),
                "dijkstra_ratio": round(row["dijkstra_ratio"], 3),
            }
    path = merge_latency_json(entries)
    print(f"wrote {path}")
    print(format_rows(rows))


# ----------------------------------------------------------------------
# pytest entry points (small scale; the standalone main is the real run)
# ----------------------------------------------------------------------
def test_frozen_plane_parity_and_speed():
    rows = run(smoke=True)
    assert len(rows) == 4
    for row in rows:
        assert row["frozen_median_us"] > 0.0
    # One Dijkstra ratio per DISO cell; parity asserted inside.
    ratios = [row["dijkstra_ratio"] for row in rows if "dijkstra_ratio" in row]
    assert len(ratios) == 2
    assert all(ratio > 0.0 for ratio in ratios)


if __name__ == "__main__":
    main()
