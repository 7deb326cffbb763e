"""Parallel query processing on one shared oracle index.

The paper's motivating property (Section 1): because the query
algorithms never write to the index, "they can handle multiple queries
in parallel, each of which is processed with a separate thread on the
same index structure", linearly increasing throughput.

:class:`QueryEngine` packages that pattern as a thread pool over a
single in-memory oracle.  In CPython the GIL bounds the speed-up for
pure-Python workloads, but the *correctness* claim — concurrent failure
queries on one index, no locking, no cross-talk — holds and is what the
tests verify.  To sidestep the GIL, write a frozen oracle once as a
binary snapshot (:func:`repro.oracle.snapshot.save_snapshot`) and serve
it with a :class:`repro.serving.QueryService` process pool: each worker
maps the same read-only file and answers with a private interpreter.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.oracle.base import DistanceSensitivityOracle
from repro.workload.queries import Query


def latency_percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``; 0.0 when empty.

    >>> latency_percentile([3.0, 1.0, 2.0], 0.5)
    2.0
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ThroughputReport:
    """Aggregate outcome of a parallel batch run."""

    answers: list[float]
    wall_seconds: float
    threads: int
    latencies: list[float] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        """Observed throughput."""
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.answers) / self.wall_seconds

    @property
    def p50_seconds(self) -> float:
        """Median per-query latency."""
        return latency_percentile(self.latencies, 0.50)

    @property
    def p99_seconds(self) -> float:
        """Nearest-rank 99th percentile per-query latency."""
        return latency_percentile(self.latencies, 0.99)


class QueryEngine:
    """A thread pool answering distance sensitivity queries.

    Parameters
    ----------
    oracle:
        Any oracle whose query path does not mutate shared state —
        true for every oracle in this library except FDDO, which
        performs update-then-rollback per query.  Passing an FDDO
        raises immediately rather than racing silently.
    threads:
        Thread-pool size.

    Examples
    --------
    >>> from repro import DISO, road_network, generate_queries
    >>> g = road_network(10, 10, seed=1)
    >>> engine = QueryEngine(DISO(g, tau=3), threads=2)
    >>> batch = generate_queries(g, 4, seed=2)
    >>> report = engine.run(batch)
    >>> len(report.answers)
    4
    """

    def __init__(
        self, oracle: DistanceSensitivityOracle, threads: int = 4
    ) -> None:
        from repro.baselines.fddo import FDDOOracle

        if isinstance(oracle, FDDOOracle):
            raise ValueError(
                "FDDO mutates its index per query (update-then-rollback) "
                "and cannot serve concurrent queries without locking"
            )
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.oracle = oracle
        self.threads = threads

    def run(self, queries: Sequence[Query]) -> ThroughputReport:
        """Answer ``queries`` concurrently; results keep input order."""
        if self.threads == 1:
            # One worker means nothing to schedule: answer in the
            # calling thread.  Routing through a fresh executor would
            # answer every batch on a brand-new pool thread, and the
            # frozen engines key their reusable search arenas on the
            # thread — each run() would re-allocate the whole arena set
            # instead of reusing the caller's.
            return self.run_sequential(queries)
        oracle = self.oracle
        perf = time.perf_counter

        def answer(query: Query) -> tuple[float, float]:
            tick = perf()
            value = oracle.query(query.source, query.target, query.failed)
            return value, perf() - tick

        started = perf()
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            results = list(pool.map(answer, queries))
        wall = perf() - started
        return ThroughputReport(
            answers=[value for value, _ in results],
            wall_seconds=wall,
            threads=self.threads,
            latencies=[lat for _, lat in results],
        )

    def run_sequential(self, queries: Sequence[Query]) -> ThroughputReport:
        """Single-threaded reference run for comparing throughput."""
        oracle = self.oracle
        perf = time.perf_counter
        answers: list[float] = []
        latencies: list[float] = []
        started = perf()
        for q in queries:
            tick = perf()
            answers.append(oracle.query(q.source, q.target, q.failed))
            latencies.append(perf() - tick)
        wall = perf() - started
        return ThroughputReport(
            answers=answers,
            wall_seconds=wall,
            threads=1,
            latencies=latencies,
        )
