"""The benchmark's workloads and the run that drives one of them.

A run makes the graph and every input from the seed (untimed), sets the
index and service up ``setup_reps`` times (``setup_s``), then plays
``ROUNDS`` rounds.  Each round has

* an **open-loop window**: small requests, one ``run()`` each, sent at
  a fixed rate and timed from the moment each was due (``p50_ms``,
  ``p99_ms``, percentiles over every request of the run);
* a **closed-loop window**: large batches back to back (``qps``, over
  every window of the run);
* one index update (``update_ms``, median over the run's updates),
  which like a set-up ends when the updated service has answered its
  first request (one open-loop request), so the fresh workers'
  first-batch cost is paid there.  On ``social-zipf-updates`` the next
  open window meets a retired cache, which is the write's cost to
  reads.

Rounds spread every metric over the whole run.  The open loop's request
sequence is fixed by the seed and nothing before it depends on speed
(closed windows serve a fixed number of batches when a result cache is
on), so the counts taken over it, cache hits and shard legs, repeat
exactly.  Every answer is checked after the run (``verify.py``) against
reference oracles rebuilt then, so the service's memory during the run
holds no reference state.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import DISO, OracleMaintainer, scale_free_network
from repro.graph.generators import grid_network
from repro.oracle.snapshot import save_snapshot
from repro.serving import QueryService
from repro.serving.sharded import ShardedQueryService
from repro.sharding import build_sharded, make_shard_plan, save_sharded_snapshot

from perfbench import inputs
from perfbench.tracing import NullRecorder, SpanRecorder, instrumented
from perfbench.verify import Served, check_answers, spot_check

#: Constant graph seed: ``--seed`` picks traffic, never the index.
GRAPH_SEED = 1
#: DISO parameters used by every index (the repo's serving benches).
TAU, THETA = 4, 1.0
#: Shards of the sharded workload, and the seed of its metis cut.
SHARDS = 2
#: The open loop is invalid when the delay its generator caused (a
#: request sent after both its due time and the previous completion)
#: sums to more than this share of the measured latency.
SLIP_SHARE_LIMIT = 0.05
#: The last stretch before a due time is spun, not slept, so requests
#: leave on time rather than one scheduler tick late.
SPIN_S = 0.0005
#: Queries of the request that ends every set-up: workers build their
#: batch kernels lazily on their first batch, a cost every start pays.
#: An update ends with one open-loop request for the same reason.
WARMUP_QUERIES = 4
#: Each run alternates open and closed windows this many times, with an
#: index update after each round, so block-long noise on a shared host
#: moves a metric less than it would one contiguous phase.
ROUNDS = 10


@dataclass(frozen=True)
class Spec:
    """One workload: its index, its traffic and how the run spends time."""

    name: str
    graph: tuple
    traffic: str
    rate: float
    request_queries: int
    batch_queries: int
    closed_pool: int
    open_share: float
    workers: int = 2
    cache_size: int = 0
    hot_pairs: int = 0
    zipf_pool: int = 500
    edges_per_update: int = 4
    setup_reps: int = 5
    spot_checks: int = 24

    @property
    def sharded(self) -> bool:
        return self.graph[0] == "grid"

    def make_graph(self):
        kind, *size = self.graph
        if kind == "social":
            return scale_free_network(*size, seed=GRAPH_SEED)
        return grid_network(*size)

    def open_requests(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds * self.open_share))


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="social-zipf-updates", graph=("social", 3000),
            traffic="zipf", rate=12.0, request_queries=4,
            batch_queries=300, closed_pool=18000, open_share=0.8,
            cache_size=512, hot_pairs=8,
        ),
        Spec(
            name="grid-sharded-failures", graph=("grid", 20, 20),
            traffic="paper", rate=5.0, request_queries=1,
            batch_queries=8, closed_pool=7500, open_share=0.8,
            workers=1,
        ),
    )
}


@dataclass
class Inputs:
    warmups: list[list[tuple]]
    update_warmups: list[list[tuple]]
    open_requests: list[list[tuple]]
    closed_pool: list[tuple]
    updates: list[list[tuple[int, int, float]]]


def make_inputs(spec: Spec, graph, seed: int, seconds: float) -> Inputs:
    """Every input of one run, from ``seed`` alone."""
    model = inputs.FailureModel.from_graph(graph)
    requests = spec.open_requests(seconds)
    open_count = requests * spec.request_queries
    setup_count = spec.setup_reps * WARMUP_QUERIES
    warmup_count = setup_count + ROUNDS * spec.request_queries
    total = warmup_count + open_count + spec.closed_pool
    shard_of = (
        make_shard_plan(graph, SHARDS, method="metis", seed=GRAPH_SEED).assignment
        if spec.sharded else None
    )
    if spec.traffic == "zipf":
        stream = inputs.zipf_queries(
            model, total, random.Random(seed), pool_size=spec.zipf_pool
        )
    else:
        stream = inputs.paper_queries(graph, total, seed, shard_of=shard_of)
        if len(set(stream)) != len(stream):
            raise AssertionError(f"{spec.name}: a query triple repeats")
    # A sharded update re-weights shard-internal edges only, so the cut
    # and the cross-edge weights it records stay valid.
    candidates = [
        (tail, head) for tail, head in model.edges
        if shard_of is None or shard_of[tail] == shard_of[head]
    ]
    updates = inputs.weight_updates(
        candidates, graph, ROUNDS, spec.edges_per_update,
        random.Random(f"{seed}-updates"), integral=spec.sharded,
    )
    warmups = stream[:warmup_count]
    stream = stream[warmup_count:]
    return Inputs(
        warmups=inputs.chunk(warmups[:setup_count], WARMUP_QUERIES),
        update_warmups=inputs.chunk(warmups[setup_count:], spec.request_queries),
        open_requests=inputs.chunk(stream[:open_count], spec.request_queries),
        closed_pool=stream[open_count:],
        updates=updates,
    )


def nearest_rank(values: list[float], quantile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def pss_mib(pid: int) -> float:
    """Proportional set size of ``pid``: shared pages split among sharers."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class SingleIndex:
    """One frozen DISO snapshot behind a :class:`QueryService`.

    ``setup`` and ``update`` hold only the timed work; ``settle`` does
    the untimed bookkeeping after either.
    """

    def __init__(self, spec: Spec, graph, workdir: Path, recorder) -> None:
        self.spec = spec
        self.graph = graph
        self.workdir = workdir
        self.span = recorder.span
        self.service = None
        self.path: Path | None = None
        self.retired: list[Path] = []
        self.version = 0
        self.epoch = 0

    def _save(self, frozen) -> None:
        self.version += 1
        path = self.workdir / f"index-{self.version}.dsosnap"
        with self.span("save_snapshot", "oracle"):
            save_snapshot(frozen, path)
        if self.path is not None:
            self.retired.append(self.path)
        self.path = path

    def setup(self) -> None:
        with self.span("DISO", "oracle"):
            self.oracle = DISO(self.graph, tau=TAU, theta=THETA)
        with self.span("DISO.freeze", "oracle"):
            frozen = self.oracle.freeze()
        self._save(frozen)
        self.service = QueryService(
            self.path, workers=self.spec.workers,
            cache_size=self.spec.cache_size, hot_pairs=self.spec.hot_pairs,
        )
        with self.span("QueryService.start", "serving"):
            self.service.start()
        self.maintainer = OracleMaintainer(self.oracle)
        self.epoch = 0

    def update(self, changes) -> None:
        with self.span("OracleMaintainer.change_weight", "oracle"):
            for tail, head, weight in changes:
                self.maintainer.change_weight(tail, head, weight)
        with self.span("DISO.freeze", "oracle"):
            frozen = self.oracle.freeze()
        self._save(frozen)
        self.service.swap_snapshot(self.path)
        self.epoch += 1

    def settle(self) -> None:
        for path in self.retired:
            path.unlink()
        self.retired.clear()

    def index_bytes(self) -> int:
        return self.path.stat().st_size

    def cache_stats(self) -> dict:
        return self.service.cache_stats() or {}

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.path is not None:
            self.retired.append(self.path)
            self.path = None
        self.settle()


class ShardedIndex:
    """A K-way sharded snapshot behind a :class:`ShardedQueryService`.

    Its answers are checked bitwise against an unsharded frozen DISO
    on the same graph.  An update re-weights edges and
    rebuilds the sharded index, the update path the sharded plane has.
    """

    def __init__(self, spec: Spec, graph, workdir: Path, recorder) -> None:
        self.spec = spec
        self.graph = graph
        self.workdir = workdir
        self.span = recorder.span
        self.service = None
        self.path: Path | None = None
        self.retired: list[Path] = []
        self.version = 0
        self.epoch = 0

    def _build(self, plan=None) -> None:
        self.version += 1
        path = self.workdir / f"sharded-{self.version}"
        with self.span("build_sharded", "sharding"):
            build = build_sharded(
                self.graph, SHARDS, method="metis", seed=GRAPH_SEED,
                tau=TAU, theta=THETA, plan=plan,
            )
        self.plan = build.plan
        with self.span("save_sharded_snapshot", "sharding"):
            save_sharded_snapshot(build, path)
        with self.span("ShardedQueryService.start", "serving"):
            service = ShardedQueryService(
                path, workers_per_shard=self.spec.workers
            )
            service.start()
        if self.path is not None:
            self.retired.append(self.path)
        self.service, self.path = service, path

    def setup(self) -> None:
        self._build()

    def update(self, changes) -> None:
        for tail, head, weight in changes:
            self.graph.set_weight(tail, head, weight)
        old_service = self.service
        self._build(self.plan)
        with self.span("ShardedQueryService.stop", "serving"):
            old_service.stop()
        self.epoch += 1

    def settle(self) -> None:
        for path in self.retired:
            shutil.rmtree(path)
        self.retired.clear()

    def index_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in self.path.iterdir())

    def cache_stats(self) -> dict:
        return {}

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.path is not None:
            self.retired.append(self.path)
            self.path = None
        self.settle()


@dataclass
class Phase:
    name: str
    served: list[Served] = field(default_factory=list)
    #: Open loop: per request, seconds from due time to answers,
    #: seconds sent after its due time, and the part of that delay the
    #: generator itself caused (beyond both the due time and the
    #: previous request's completion).
    latencies: list[float] = field(default_factory=list)
    behind: list[float] = field(default_factory=list)
    slips: list[float] = field(default_factory=list)
    #: Closed loop: per window, queries answered, seconds taken, and
    #: whether the window ran out of input before its time was up.
    windows: list[tuple[int, float, bool]] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return sum(len(item.queries) for item in self.served)


def _answered(report) -> int:
    return len(report.answers) - report.error_count - report.shed_count


class BenchRun:
    """One run of one workload with one seed."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.recorder = SpanRecorder() if trace else NullRecorder()
        self.workdir = workdir
        self.phases = {
            name: Phase(name) for name in ("setup", "open", "closed", "update")
        }
        self.setup_times: list[float] = []
        self.update_times: list[float] = []
        self.memory_samples: list[float] = []
        self.request_id = 0

    def _serve(self, phase: Phase, queries) -> None:
        self.recorder.phase = phase.name
        self.recorder.request = self.request_id
        self.request_id += 1
        with self.recorder.span("request", "bench"):
            report = self.index.service.run(queries)
        phase.served.append(Served(phase.name, self.index.epoch, queries, report))
        self.latest_report = report

    def _set_up(self, warmup) -> None:
        """One timed set-up: index, snapshot, pool, first request."""
        self.index.close()
        started = time.perf_counter()
        with self.recorder.span("setup", "bench"):
            self.index.setup()
            self._serve(self.phases["setup"], warmup)
        self.setup_times.append(time.perf_counter() - started)
        self.index.settle()

    def _update(self, changes, warmup) -> None:
        """One timed update: re-weight, rebuild, swap, first request."""
        self.recorder.phase = "update"
        started = time.perf_counter()
        with self.recorder.span("update", "bench"):
            self.index.update(changes)
            self._serve(self.phases["update"], warmup)
        self.update_times.append(time.perf_counter() - started)
        self.index.settle()

    def _sample_memory(self) -> None:
        """Dispatcher plus the workers that served the latest request."""
        pids = {stats.pid for stats in self.latest_report.per_worker}
        self.memory_samples.append(
            pss_mib(os.getpid()) + sum(pss_mib(pid) for pid in pids)
        )

    def _open_window(self, requests) -> None:
        """Send ``requests`` at the spec's rate."""
        phase = self.phases["open"]
        gap = 1.0 / self.spec.rate
        perf = time.perf_counter
        began = previous_done = perf()
        for offset, request in enumerate(requests):
            due = began + offset * gap
            pause = due - perf() - SPIN_S
            if pause > 0:
                time.sleep(pause)
            while perf() < due:
                pass
            sent = perf()
            self._serve(phase, request)
            done = perf()
            phase.latencies.append(done - due)
            phase.behind.append(sent - due)
            phase.slips.append(max(0.0, sent - max(due, previous_done)))
            previous_done = done

    def _closed_window(self, batches, budget: float) -> None:
        """Back-to-back batches from this window's share, for ``budget``
        seconds.

        With a result cache the window serves its whole share instead,
        so the cache state every later request meets, and the counts
        taken over the open loop, depend on the seed alone.
        """
        phase = self.phases["closed"]
        answered = served = 0
        began = time.perf_counter()
        for batch in batches:
            self._serve(phase, batch)
            answered += _answered(phase.served[-1].report)
            served += 1
            if not self.spec.cache_size and time.perf_counter() - began >= budget:
                break
        elapsed = time.perf_counter() - began
        ran_out = served == len(batches) and elapsed < budget
        phase.windows.append((answered, elapsed, ran_out and not self.spec.cache_size))

    def execute(self) -> dict:
        spec = self.spec
        graph = spec.make_graph()
        pristine = graph.copy()
        data = self.inputs = make_inputs(spec, graph, self.seed, self.seconds)
        index_type = ShardedIndex if spec.sharded else SingleIndex
        self.index = index_type(spec, graph, self.workdir, self.recorder)
        context = (
            instrumented(self.recorder) if self.recorder.enabled else nullcontext()
        )
        per_round = math.ceil(len(data.open_requests) / ROUNDS)
        batches = inputs.chunk(data.closed_pool, spec.batch_queries)
        per_window = math.ceil(len(batches) / ROUNDS)
        closed_budget = self.seconds * (1.0 - spec.open_share) / ROUNDS
        # The benchmark's own objects (graph copies, inputs) move to the
        # permanent generation before workers fork, so no collector in
        # any process walks them.
        gc.collect()
        gc.freeze()
        run_started = time.perf_counter()
        try:
            with context:
                for warmup in data.warmups:
                    self._set_up(warmup)
                # So do the set-ups' leftovers, which would otherwise make
                # the dispatcher's full collections slow mid-request.
                gc.collect()
                gc.freeze()
                cache_before = self.index.cache_stats()
                for number in range(ROUNDS):
                    first = number * per_round
                    self._open_window(data.open_requests[first : first + per_round])
                    self._closed_window(
                        batches[number * per_window : (number + 1) * per_window],
                        closed_budget,
                    )
                    self._sample_memory()
                    self._update(data.updates[number], data.update_warmups[number])
                index_bytes = self.index.index_bytes()
                cache_counts = {
                    name: count - cache_before[name]
                    for name, count in self.index.cache_stats().items()
                }
            run_wall = time.perf_counter() - run_started
        finally:
            self.index.close()
            gc.unfreeze()
        served = [item for phase in self.phases.values() for item in phase.served]
        epochs = 1 + max(item.epoch for item in served)
        epoch_graphs = _epoch_graphs(pristine, data.updates, epochs)
        references = reference_oracles(spec, epoch_graphs, data.updates)
        tallies, wrong = check_answers(served, references)
        spot = spot_check(
            served, epoch_graphs, random.Random(f"{self.seed}-spot"),
            spec.spot_checks, exact=spec.sharded,
        )
        for phase_name, message in spot["mismatches"]:
            tallies[phase_name]["ok"] -= 1
            tallies[phase_name]["wrong"] += 1
            wrong.append(message)
        return {
            "tallies": tallies,
            "wrong_examples": wrong,
            "spot": spot,
            "index_bytes": index_bytes,
            "cache_counts": cache_counts,
            "run_wall": run_wall,
        }


def _epoch_graphs(pristine, updates, epochs: int) -> list:
    """The graph each served epoch was built from (rebuilt untimed)."""
    graphs = [pristine]
    for changes in updates[: epochs - 1]:
        graph = graphs[-1].copy()
        for tail, head, weight in changes:
            graph.set_weight(tail, head, weight)
        graphs.append(graph)
    return graphs


def reference_oracles(spec: Spec, epoch_graphs: list, updates) -> list:
    """The frozen oracle of every served epoch, rebuilt after the run.

    An unsharded index replays its set-up and updates in-process, the
    same calls on the same graph as the served index made; the sharded
    workload is compared with an unsharded DISO on each epoch's graph.
    """
    if spec.sharded:
        return [DISO(graph, tau=TAU, theta=THETA).freeze() for graph in epoch_graphs]
    oracle = DISO(epoch_graphs[0].copy(), tau=TAU, theta=THETA)
    maintainer = OracleMaintainer(oracle)
    references = [oracle.freeze()]
    for changes in updates[: len(epoch_graphs) - 1]:
        for tail, head, weight in changes:
            maintainer.change_weight(tail, head, weight)
        references.append(oracle.freeze())
    return references
