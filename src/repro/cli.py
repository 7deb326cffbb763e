"""Command-line interface: ``repro-dso`` / ``python -m repro``.

Subcommands
-----------
``stats``
    Print Table 2 dataset statistics.
``query``
    Build an oracle over a dataset (or a graph file) and answer one
    distance sensitivity query.
``experiment``
    Reproduce one of the paper's tables/figures and print it.
``lint``
    Run the ``dsolint`` static invariant checks (determinism,
    multiprocessing safety, float sentinels, protocol hygiene) and
    exit non-zero on any unsuppressed finding.
"""

from __future__ import annotations

import argparse
import sys

from repro.graph.io import read_dimacs, read_edge_list
from repro.oracle.adiso import ADISO
from repro.oracle.adiso_p import ADISOPartial
from repro.oracle.diso import DISO
from repro.oracle.diso_s import DISOSparse
from repro.baselines.astar_oracle import AStarOracle
from repro.baselines.dijkstra_oracle import DijkstraOracle
from repro.workload.datasets import DATASETS, load_dataset

_ORACLES = {
    "diso": DISO,
    "adiso": ADISO,
    "diso-s": DISOSparse,
    "adiso-p": ADISOPartial,
    "astar": AStarOracle,
    "dijkstra": DijkstraOracle,
}

_EXPERIMENTS = (
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure4",
    "figure5",
    "figure6",
    "accuracy",
    "theta",
    "alpha",
    "affected",
    "throughput",
    "maintenance",
    "replay",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dso",
        description="Distance sensitivity oracles (DISO / ADISO).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print dataset statistics")
    stats.add_argument("--scale", type=float, default=0.5)
    stats.add_argument("--seed", type=int, default=7)

    query = sub.add_parser("query", help="answer one query")
    query.add_argument("source", type=int)
    query.add_argument("target", type=int)
    query.add_argument(
        "--fail",
        action="append",
        default=[],
        metavar="TAIL,HEAD",
        help="failed edge, repeatable (e.g. --fail 3,4)",
    )
    query.add_argument(
        "--oracle", choices=sorted(_ORACLES), default="diso"
    )
    query.add_argument(
        "--dataset", choices=sorted(DATASETS), default="NY"
    )
    query.add_argument("--graph-file", help="edge list or DIMACS .gr file")
    query.add_argument(
        "--format", choices=("edgelist", "dimacs"), default="edgelist"
    )
    query.add_argument("--scale", type=float, default=0.5)
    query.add_argument("--tau", type=int, default=3)
    query.add_argument("--theta", type=float, default=1.0)
    query.add_argument("--seed", type=int, default=7)
    query.add_argument(
        "--index-file",
        help="load a prebuilt index (see the build subcommand) instead "
        "of preprocessing",
    )

    build = sub.add_parser(
        "build", help="preprocess an oracle index and save it to a file"
    )
    build.add_argument("index_file", help="output path for the JSON index")
    build.add_argument(
        "--oracle",
        choices=("diso", "adiso", "diso-b", "diso-s", "adiso-p"),
        default="diso",
    )
    build.add_argument(
        "--dataset", choices=sorted(DATASETS), default="NY"
    )
    build.add_argument("--graph-file", help="edge list or DIMACS .gr file")
    build.add_argument(
        "--format", choices=("edgelist", "dimacs"), default="edgelist"
    )
    build.add_argument("--scale", type=float, default=0.5)
    build.add_argument("--tau", type=int, default=3)
    build.add_argument("--theta", type=float, default=1.0)
    build.add_argument("--seed", type=int, default=7)

    experiment = sub.add_parser(
        "experiment", help="reproduce a table or figure"
    )
    experiment.add_argument("name", choices=_EXPERIMENTS)
    experiment.add_argument("--scale", type=float, default=0.5)
    experiment.add_argument("--queries", type=int, default=20)
    experiment.add_argument("--seed", type=int, default=7)

    snapshot = sub.add_parser(
        "snapshot",
        help="freeze an oracle and save a binary snapshot for serving",
    )
    snapshot.add_argument(
        "snapshot_file", help="output path (convention: .dsosnap)"
    )
    snapshot.add_argument(
        "--oracle", choices=("diso", "adiso"), default="diso"
    )
    snapshot.add_argument(
        "--dataset", choices=sorted(DATASETS), default="NY"
    )
    snapshot.add_argument("--graph-file", help="edge list or DIMACS .gr file")
    snapshot.add_argument(
        "--format", choices=("edgelist", "dimacs"), default="edgelist"
    )
    snapshot.add_argument("--scale", type=float, default=0.5)
    snapshot.add_argument("--tau", type=int, default=3)
    snapshot.add_argument("--theta", type=float, default=1.0)
    snapshot.add_argument("--seed", type=int, default=7)

    lint = sub.add_parser(
        "lint",
        help="run the dsolint static invariant checks (DESIGN.md §10)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="output_format",
    )
    lint.add_argument(
        "--output",
        metavar="PATH",
        help="also write the report (in the chosen format) to a file",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="list suppressed findings and their justifications",
    )
    lint.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="lint only files differing from REF (default HEAD) plus "
        "their reverse call-graph dependents",
    )
    lint.add_argument(
        "--cache",
        nargs="?",
        const=".dsolint-cache.json",
        default=None,
        metavar="PATH",
        help="summary cache file for incremental linting (default "
        ".dsolint-cache.json when the flag is given with no value)",
    )
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings recorded in this baseline debt file",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record the run's unsuppressed findings as a new baseline "
        "and exit 0",
    )

    shard = sub.add_parser(
        "shard",
        help="partition a graph and build a sharded snapshot directory",
    )
    shard.add_argument(
        "snapshot_dir", help="output directory (manifest + shard files)"
    )
    shard.add_argument(
        "--parts", type=int, default=2, help="shard count (default 2)"
    )
    shard.add_argument(
        "--method",
        choices=("metis", "spectral", "uniform"),
        default="metis",
        help="partitioner (default metis)",
    )
    shard.add_argument(
        "--dataset", choices=sorted(DATASETS), default="NY"
    )
    shard.add_argument("--graph-file", help="edge list or DIMACS .gr file")
    shard.add_argument(
        "--format", choices=("edgelist", "dimacs"), default="edgelist"
    )
    shard.add_argument("--scale", type=float, default=0.5)
    shard.add_argument("--tau", type=int, default=3)
    shard.add_argument("--theta", type=float, default=1.0)
    shard.add_argument("--seed", type=int, default=7)
    shard.add_argument(
        "--verify",
        type=int,
        default=0,
        metavar="N",
        help="after building, check N random stitched answers against "
        "an unsharded oracle over the same graph (default 0 = skip)",
    )

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the process-pool query service over a snapshot",
    )
    serve.add_argument("snapshot_file", help="a file written by `snapshot`")
    serve.add_argument(
        "--workers",
        default="1,2",
        help="comma-separated pool sizes to benchmark (default 1,2)",
    )
    serve.add_argument("--queries", type=int, default=200)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--chunk-size", type=int, default=None, help="queries per dispatch"
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="dispatcher result-cache capacity (0 disables, the default)",
    )
    serve.add_argument(
        "--hot-pairs",
        type=int,
        default=0,
        help="precompute this many hottest pairs after each run "
        "(requires --cache-size)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="shed queries beyond this per-run latency budget "
        "(default: no shedding)",
    )
    serve.add_argument(
        "--workload",
        choices=("uniform", "zipf"),
        default="uniform",
        help="query workload: uniform pairs or zipf-skewed repeated "
        "pairs (default uniform)",
    )

    return parser


def _load_graph(args):
    if args.graph_file:
        if args.format == "dimacs":
            return read_dimacs(args.graph_file)
        return read_edge_list(args.graph_file)
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _parse_failures(pairs: list[str]) -> set[tuple[int, int]]:
    failed: set[tuple[int, int]] = set()
    for pair in pairs:
        tail_text, sep, head_text = pair.partition(",")
        if not sep:
            raise SystemExit(
                f"error: --fail expects TAIL,HEAD (got {pair!r})"
            )
        try:
            failed.add((int(tail_text), int(head_text)))
        except ValueError:
            raise SystemExit(
                f"error: --fail endpoints must be integers (got {pair!r})"
            ) from None
    return failed


def _run_stats(args) -> int:
    from repro.experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2(scale=args.scale, seed=args.seed)))
    return 0


def _run_query(args) -> int:
    if args.index_file:
        from repro.oracle.serialize import load_index

        oracle = load_index(args.index_file)
    else:
        graph = _load_graph(args)
        oracle_cls = _ORACLES[args.oracle]
        if oracle_cls is DijkstraOracle:
            oracle = oracle_cls(graph)
        elif oracle_cls is AStarOracle:
            oracle = oracle_cls(graph, seed=args.seed)
        else:
            oracle = oracle_cls(graph, tau=args.tau, theta=args.theta)
    failed = _parse_failures(args.fail)
    result = oracle.query_detailed(args.source, args.target, failed)
    print(f"oracle        : {oracle.name}")
    print(f"distance      : {result.distance}")
    print(f"reachable     : {result.reachable}")
    print(f"affected nodes: {result.stats.affected_count}")
    print(f"query seconds : {result.stats.total_seconds:.6f}")
    return 0


def _run_build(args) -> int:
    from repro.oracle.diso_bi import DISOBidirectional
    from repro.oracle.serialize import save_index

    graph = _load_graph(args)
    classes = {
        "diso": DISO,
        "adiso": ADISO,
        "diso-b": DISOBidirectional,
        "diso-s": DISOSparse,
        "adiso-p": ADISOPartial,
    }
    oracle_cls = classes[args.oracle]
    oracle = oracle_cls(graph, tau=args.tau, theta=args.theta)
    save_index(oracle, args.index_file)
    print(f"oracle        : {oracle.name}")
    print(f"transit nodes : {len(oracle.transit)}")
    print(f"overlay edges : {oracle.distance_graph.num_edges}")
    print(f"preprocess s  : {oracle.preprocess_seconds:.3f}")
    print(f"index written : {args.index_file}")
    return 0


def _run_snapshot(args) -> int:
    from repro.oracle.snapshot import save_snapshot, snapshot_info

    graph = _load_graph(args)
    classes = {"diso": DISO, "adiso": ADISO}
    oracle = classes[args.oracle](graph, tau=args.tau, theta=args.theta)
    frozen = oracle.freeze()
    save_snapshot(frozen, args.snapshot_file)
    info = snapshot_info(args.snapshot_file)
    meta = info["meta"]
    print(f"oracle        : {meta['name']}")
    print(f"engine        : {info['engine']}")
    print(f"nodes / edges : {meta['num_nodes']} / {meta['num_edges']}")
    print(f"transit nodes : {meta['num_transit']}")
    print(f"preprocess s  : {meta['preprocess_seconds']:.3f}")
    print(f"freeze s      : {meta['freeze_seconds']:.3f}")
    print(f"file bytes    : {info['file_bytes']}")
    print(f"sections      : {len(info['sections'])}")
    print(f"snapshot      : {args.snapshot_file}")
    return 0


def _run_shard(args) -> int:
    from repro.sharding import (
        build_sharded,
        load_sharded_snapshot,
        save_sharded_snapshot,
        sharded_snapshot_info,
    )

    if args.parts < 1:
        raise SystemExit("error: --parts must be >= 1")
    graph = _load_graph(args)
    try:
        build = build_sharded(
            graph,
            args.parts,
            method=args.method,
            seed=args.seed,
            tau=args.tau,
            theta=args.theta,
        )
    except Exception as exc:
        raise SystemExit(f"error: {exc}") from exc
    target = save_sharded_snapshot(build, args.snapshot_dir)
    info = sharded_snapshot_info(target)
    meta = info["meta"]
    plan = build.plan
    print(f"graph         : {graph.number_of_nodes()} nodes / "
          f"{graph.number_of_edges()} edges")
    print(f"partitioner   : {plan.method} (seed {plan.seed})")
    print(f"shards        : {plan.parts}  sizes "
          f"{[len(nodes) for nodes in plan.shard_nodes]}")
    print(f"border nodes  : {plan.num_borders}")
    print(f"edge cut      : {plan.edge_cut}")
    print(f"build s       : {build.build_seconds:.3f}")
    print(f"manifest bytes: {info['manifest_bytes']}")
    for name, size in info["shard_file_bytes"].items():
        print(f"  {name}: {size} bytes")
    print(f"snapshot dir  : {target}")
    if args.verify:
        import math
        import random

        from repro.oracle.diso import DISO as _DISO

        reference = _DISO(graph, tau=args.tau, theta=args.theta).freeze()
        sharded = load_sharded_snapshot(target)
        rng = random.Random(args.seed)
        nodes = sorted(graph.nodes())
        edges = [(tail, head) for tail, head, _ in graph.edges()]
        mismatches = 0
        for _ in range(args.verify):
            source, target_node = rng.choice(nodes), rng.choice(nodes)
            failed = frozenset(
                rng.sample(edges, min(len(edges), rng.randrange(0, 3)))
            )
            want = reference.query(source, target_node, failed)
            got = sharded.query(source, target_node, failed)
            same = want == got or (math.isinf(want) and math.isinf(got))
            if not same and not math.isclose(
                want, got, rel_tol=1e-9, abs_tol=0.0
            ):
                mismatches += 1
        print(f"verify        : {args.verify} queries, "
              f"{mismatches} mismatches")
        if mismatches:
            return 1
    return 0


def _run_lint(args) -> int:
    from repro.analysis import (
        SummaryCache,
        apply_baseline,
        changed_files,
        lint_paths,
        load_baseline,
        to_json,
        to_sarif,
        to_text,
        write_baseline,
    )

    changed = None
    if args.changed is not None:
        try:
            changed = changed_files(args.changed)
        except RuntimeError as exc:
            raise SystemExit(f"repro-dso lint --changed: {exc}")
    store = SummaryCache(args.cache) if args.cache else None
    report = lint_paths(args.paths, cache=store, changed=changed)
    if args.write_baseline:
        count = write_baseline(args.write_baseline, report)
        print(
            f"dsolint: wrote baseline with {count} finding"
            f"{'s' if count != 1 else ''} to {args.write_baseline}"
        )
        return 0
    if args.baseline:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro-dso lint --baseline: {exc}")
        apply_baseline(report, entries)
    if args.output_format == "json":
        rendered = to_json(report)
    elif args.output_format == "sarif":
        rendered = to_sarif(report)
    else:
        rendered = to_text(report, show_suppressed=args.show_suppressed)
    print(rendered)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    return 0 if report.ok else 1


def _check_serve_parity(report, baseline: list, workers: int) -> None:
    """Exit if an answered query differs from the sequential baseline.

    Errored queries answer NaN by design, and shed queries are NaN on
    purpose; parity holds on every ``"ok"`` one.
    """
    diverged = [
        position
        for position, (status, got, want) in enumerate(
            zip(report.statuses, report.answers, baseline)
        )
        if status == "ok" and got != want
    ]
    if diverged:
        raise SystemExit(
            f"error: {workers}-worker answers diverge from the "
            f"sequential baseline at positions {diverged[:5]}"
        )


def _run_serve_bench(args) -> int:
    from pathlib import Path

    from repro.oracle.snapshot import load_snapshot
    from repro.serving import QueryService
    from repro.sharding.snapshot import MANIFEST_NAME
    from repro.workload.queries import generate_queries, generate_zipf_queries

    try:
        worker_counts = [
            int(text) for text in args.workers.split(",") if text.strip()
        ]
    except ValueError:
        raise SystemExit(
            f"error: --workers expects comma-separated ints "
            f"(got {args.workers!r})"
        ) from None
    if not worker_counts or min(worker_counts) < 1:
        raise SystemExit("error: --workers needs at least one value >= 1")

    snapshot_path = Path(args.snapshot_file)
    if snapshot_path.is_dir() or snapshot_path.name == MANIFEST_NAME:
        return _run_serve_bench_sharded(args, worker_counts)

    oracle = load_snapshot(args.snapshot_file)
    # The generators search the graph for on-path failures, so they
    # take a DiGraph; the loaded engine itself only holds the CSR.
    graph = oracle.frozen.to_digraph()
    if args.workload == "zipf":
        queries = generate_zipf_queries(graph, args.queries, seed=args.seed)
    else:
        queries = generate_queries(graph, args.queries, seed=args.seed)

    import time

    started = time.perf_counter()
    baseline = [
        oracle.query(q.source, q.target, q.failed) for q in queries
    ]
    base_wall = time.perf_counter() - started
    base_qps = len(queries) / base_wall if base_wall > 0 else float("inf")

    print(f"snapshot  : {args.snapshot_file} ({oracle.name})")
    print(
        f"queries   : {len(queries)}  "
        f"(seed {args.seed}, {args.workload} workload)"
    )
    if args.cache_size:
        hot = f", hot_pairs {args.hot_pairs}" if args.hot_pairs else ""
        print(f"cache     : {args.cache_size} entries{hot}")
    if args.deadline_ms is not None:
        print(f"deadline  : {args.deadline_ms} ms")
    print(f"{'workers':>8} {'plane':>6} {'qps':>10} {'p50 us':>9} "
          f"{'p99 us':>9} {'speedup':>8} {'hits':>6} {'hit%':>6} "
          f"{'shed%':>6} {'errors':>7} {'restarts':>9}")
    print(f"{'seq':>8} {'-':>6} {base_qps:>10.1f} {'-':>9} {'-':>9} "
          f"{1.0:>8.2f} {'-':>6} {'-':>6} {'-':>6} {'-':>7} {'-':>9}")
    for workers in worker_counts:
        with QueryService(
            args.snapshot_file,
            workers=workers,
            chunk_size=args.chunk_size,
            cache_size=args.cache_size,
            hot_pairs=args.hot_pairs,
            deadline_ms=args.deadline_ms,
        ) as service:
            report = service.run(queries)
        _check_serve_parity(report, baseline, workers)
        print(
            f"{workers:>8} {report.result_plane:>6} "
            f"{report.queries_per_second:>10.1f} "
            f"{1e6 * report.p50_seconds:>9.1f} "
            f"{1e6 * report.p99_seconds:>9.1f} "
            f"{report.queries_per_second / base_qps:>8.2f} "
            f"{report.cache_hits:>6} "
            f"{100.0 * report.cache_hit_ratio:>5.1f}% "
            f"{100.0 * report.shed_rate:>5.1f}% "
            f"{report.error_count:>7} {report.restarts:>9}"
        )
        for position in report.error_indices[:5]:
            print(f"  query {position} error: {report.errors[position]}")
    return 0


def _run_serve_bench_sharded(args, worker_counts: list[int]) -> int:
    """serve-bench over a sharded snapshot directory.

    Same contract as the unsharded bench (sequential baseline, strict
    divergence check) plus the stitched plane's columns: dispatcher
    stitch microseconds, cross-shard fraction, and closure fast-path
    hits.  Workload endpoints come from the manifest's assignment (no
    graph is loaded); every fourth query fails one cross-shard edge so
    the stitch and repair paths are actually exercised.
    """
    import random
    import time

    from repro.serving.sharded import ShardedQueryService
    from repro.sharding.snapshot import (
        load_shard_plan_overlay,
        load_sharded_snapshot,
    )
    from repro.workload.queries import generate_queries, generate_zipf_queries

    if args.hot_pairs:
        raise SystemExit(
            "error: --hot-pairs is not supported on the sharded plane"
        )
    overlay, meta, _ = load_shard_plan_overlay(args.snapshot_file)
    nodes = sorted(overlay.assignment)
    if args.workload == "zipf":
        base = generate_zipf_queries(
            None, args.queries, f_gen=0, p=0.0, seed=args.seed, nodes=nodes
        )
    else:
        base = generate_queries(
            None, args.queries, f_gen=0, p=0.0, seed=args.seed, nodes=nodes
        )
    cross_edges = sorted(overlay.cross_keys)
    rng = random.Random(args.seed)
    queries = [
        (
            query.source,
            query.target,
            (
                (cross_edges[rng.randrange(len(cross_edges))],)
                if cross_edges and position % 4 == 3
                else None
            ),
        )
        for position, query in enumerate(base)
    ]

    oracle = load_sharded_snapshot(args.snapshot_file)
    started = time.perf_counter()
    baseline = [
        oracle.query(source, target, frozenset(failed) if failed else None)
        for source, target, failed in queries
    ]
    base_wall = time.perf_counter() - started
    base_qps = len(queries) / base_wall if base_wall > 0 else float("inf")

    print(
        f"snapshot  : {args.snapshot_file} "
        f"({meta['parts']} shards, {meta['num_borders']} borders)"
    )
    print(
        f"queries   : {len(queries)}  "
        f"(seed {args.seed}, {args.workload} workload, "
        f"cross-edge failures on every 4th)"
    )
    if args.cache_size:
        print(f"cache     : {args.cache_size} entries")
    if args.deadline_ms is not None:
        print(f"deadline  : {args.deadline_ms} ms")
    print(f"{'workers':>8} {'qps':>10} {'p50 us':>9} "
          f"{'p99 us':>9} {'stitch us':>10} {'cross%':>7} "
          f"{'closure':>8} {'hits':>6} {'shed%':>6} {'errors':>7}")
    print(f"{'seq':>8} {base_qps:>10.1f} {'-':>9} {'-':>9} "
          f"{'-':>10} {'-':>7} {'-':>8} {'-':>6} {'-':>6} {'-':>7}")
    for workers in worker_counts:
        with ShardedQueryService(
            args.snapshot_file,
            workers_per_shard=workers,
            chunk_size=args.chunk_size,
            cache_size=args.cache_size,
            deadline_ms=args.deadline_ms,
        ) as service:
            report = service.run(queries)
        _check_serve_parity(report, baseline, workers)
        print(
            f"{workers:>8} "
            f"{report.queries_per_second:>10.1f} "
            f"{1e6 * report.p50_seconds:>9.1f} "
            f"{1e6 * report.p99_seconds:>9.1f} "
            f"{report.stitch_us:>10.1f} "
            f"{100.0 * report.cross_shard_ratio:>6.1f}% "
            f"{report.closure_hits:>8} "
            f"{report.cache_hits:>6} "
            f"{100.0 * report.shed_rate:>5.1f}% "
            f"{report.error_count:>7}"
        )
        for position in report.error_indices[:5]:
            print(f"  query {position} error: {report.errors[position]}")
    return 0


def _run_experiment(args) -> int:
    from repro import experiments as exp

    name = args.name
    if name == "table2":
        print(exp.format_table2(exp.run_table2(scale=args.scale, seed=args.seed)))
    elif name == "table3":
        print(
            exp.format_table3(
                exp.run_table3(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "table4":
        print(
            exp.format_table4(
                exp.run_table4(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "table5":
        print(
            exp.format_table5(
                exp.run_table5(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "table6":
        print(exp.format_table6(exp.run_table6(scale=args.scale, seed=args.seed)))
    elif name == "figure4":
        print(exp.format_figure4(exp.run_figure4(scale=args.scale, seed=args.seed)))
    elif name == "figure5":
        print(exp.format_figure5(exp.run_figure5(scale=args.scale, seed=args.seed)))
    elif name == "figure6":
        print(exp.format_figure6(exp.run_figure6(scale=args.scale, seed=args.seed)))
    elif name == "accuracy":
        print(
            exp.format_accuracy(
                exp.run_accuracy(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "theta":
        print(
            exp.format_theta_sweep(
                exp.run_theta_sweep(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "alpha":
        print(
            exp.format_alpha_sweep(
                exp.run_alpha_sweep(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "affected":
        print(
            exp.format_affected_nodes_sweep(
                exp.run_affected_nodes_sweep(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "throughput":
        print(
            exp.format_throughput_scaling(
                exp.run_throughput_scaling(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "maintenance":
        print(
            exp.format_maintenance_experiment(
                exp.run_maintenance_experiment(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "replay":
        print(
            exp.format_replay(
                exp.run_replay(
                    scale=args.scale, query_count=args.queries, seed=args.seed
                )
            )
        )
    elif name == "all":
        sections = exp.run_all(
            scale=args.scale,
            query_count=args.queries,
            seed=args.seed,
            progress=lambda n: print(f"running {n} ...", flush=True),
        )
        print(exp.format_all(sections))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "build":
        return _run_build(args)
    if args.command == "snapshot":
        return _run_snapshot(args)
    if args.command == "shard":
        return _run_shard(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "serve-bench":
        return _run_serve_bench(args)
    if args.command == "experiment":
        return _run_experiment(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
