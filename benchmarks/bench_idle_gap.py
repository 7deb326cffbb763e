"""Probe: what an open loop's idle gap does to the request path's steps.

An open-loop client leaves the dispatcher and its workers idle for
most of each inter-arrival gap (~83 ms at 12 req/s), and a step that
costs a few microseconds back to back can cost ten times that as the
first thing after the gap.  This probe times each step three ways, in
one process: *hot* (right after other work), after an 80 ms
``time.sleep`` and after an 80 ms busy spin.  A step that slows after
the spin too is not paying for the sleep itself (a timer wake-up, a
descheduled core) but for what the gap evicted.

Steps:

* one frozen DISO query (tau 4, theta 1) on ``scale_free_network(3000)``,
  from a zipf stream over 500 pairs like the social serving workload's
  (distinct triples, two essential failures each) — the worker kernel;
* ``ResultRing.create`` and ``ResultRing.destroy`` of a 10 x 4 ring —
  what the dispatcher paid per miss request when it made a ring per
  run;
* a worker's switch to a new ring: close the old mapping, attach the
  new one and write one slot;
* a ready pipe harvest: ``recv_bytes`` and unpickle of a completion
  record that is already waiting.

Each row is the median over ``--reps`` repetitions, in microseconds.
The steps run in this one process, so the probe isolates the gap's
effect from any dispatch: it explains, not reproduces, the stage times
in DESIGN.md §12.

Usage (writes ``benchmarks/results/idle_gap.txt``)::

    PYTHONPATH=src:benchmarks python benchmarks/bench_idle_gap.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_idle_gap.py --smoke

``--smoke`` uses a 300-node graph and three repetitions: a CI-sized
check that every step runs and the table renders (nothing written).
"""

from __future__ import annotations

import argparse
import multiprocessing
import pickle
import statistics
import time

from repro.graph.generators import scale_free_network
from repro.oracle.diso import DISO
from repro.serving.ring import ResultRing
from repro.workload.queries import generate_zipf_queries

from bench_util import write_result

SEED = 7
GAP_SECONDS = 0.08
REPS = 40
#: The ring geometry the social workload's pool uses: 2 refresh slots
#: plus 8 run slots, 4 answers a slot.
RING_SLOTS = 10
RING_CAPACITY = 4
MODES = ("hot", "sleep", "spin")


def idle(mode: str, seconds: float) -> None:
    """Leave the process idle for ``seconds``: asleep or spinning."""
    if mode == "sleep":
        time.sleep(seconds)
    elif mode == "spin":
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass


class QueryStep:
    """One frozen DISO query, right after (or a gap after) a warm run
    of the same query."""

    name = "frozen DISO query"

    def __init__(self, nodes: int, reps: int) -> None:
        graph = scale_free_network(nodes, seed=SEED)
        self.oracle = DISO(graph, tau=4, theta=1.0).freeze()
        stream = generate_zipf_queries(
            graph, 8 * reps, pool_size=500, seed=SEED
        )
        distinct = {
            (query.source, query.target, query.failed): None
            for query in stream
        }
        self.queries = list(distinct)[:reps]
        self.number = 0

    def prepare(self) -> None:
        self.op()

    def op(self) -> None:
        self.oracle.query(*self.queries[self.number % len(self.queries)])

    def cleanup(self) -> None:
        self.number += 1


class CreateStep:
    """Create a ring, right after creating and destroying another."""

    name = "ring create"

    def prepare(self) -> None:
        ResultRing.create(RING_SLOTS, RING_CAPACITY).destroy()

    def op(self) -> None:
        self.ring = ResultRing.create(RING_SLOTS, RING_CAPACITY)

    def cleanup(self) -> None:
        self.ring.destroy()


class DestroyStep:
    """Destroy a ring, right after creating it."""

    name = "ring destroy"

    def prepare(self) -> None:
        self.ring = ResultRing.create(RING_SLOTS, RING_CAPACITY)

    def op(self) -> None:
        self.ring.destroy()

    def cleanup(self) -> None:
        pass


class AttachStep:
    """A worker moving to a new ring: close, attach, write one slot."""

    name = "worker ring switch"

    def prepare(self) -> None:
        self.old = ResultRing.create(RING_SLOTS, RING_CAPACITY)
        self.new = ResultRing.create(RING_SLOTS, RING_CAPACITY)
        self.mapped = ResultRing.attach(self.old.spec())

    def op(self) -> None:
        self.mapped.close()
        self.mapped = ResultRing.attach(self.new.spec())
        self.mapped.write(2, 1, 2, [1.5], [0.001], 0.001)

    def cleanup(self) -> None:
        self.mapped.close()
        self.old.destroy()
        self.new.destroy()


class HarvestStep:
    """Receive and unpickle a completion record already in the pipe."""

    name = "ready pipe harvest"

    def __init__(self) -> None:
        self.reader, self.writer = multiprocessing.Pipe(duplex=False)

    def prepare(self) -> None:
        self.writer.send(("result_shm", (7, 2), 0, 0.001, []))

    def op(self) -> None:
        pickle.loads(self.reader.recv_bytes())

    def cleanup(self) -> None:
        pass

    def close(self) -> None:
        self.reader.close()
        self.writer.close()


def measure(steps, reps: int, gap: float) -> list[dict]:
    """Median microseconds per step and mode, modes interleaved."""
    samples = {(step.name, mode): [] for step in steps for mode in MODES}
    perf = time.perf_counter
    for _ in range(reps):
        for step in steps:
            for mode in MODES:
                step.prepare()
                idle(mode, gap)
                started = perf()
                step.op()
                samples[(step.name, mode)].append(perf() - started)
                step.cleanup()
    return [
        {
            "step": step.name,
            **{
                mode: 1e6 * statistics.median(samples[(step.name, mode)])
                for mode in MODES
            },
        }
        for step in steps
    ]


def format_rows(rows: list[dict], gap: float, reps: int) -> str:
    lines = [
        f"Idle-gap probe: median us over {reps} reps, gap {gap * 1e3:.0f} ms",
        f"{'step':<22} {'hot':>9} {'after sleep':>12} {'after spin':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['step']:<22} {row['hot']:>9.1f} {row['sleep']:>12.1f} "
            f"{row['spin']:>11.1f}"
        )
    return "\n".join(lines)


def run(
    smoke: bool = False, reps: int | None = None
) -> tuple[int, list[dict]]:
    """Build the steps and measure them; returns (reps, rows)."""
    reps = reps or (3 if smoke else REPS)
    harvest = HarvestStep()
    steps = [
        QueryStep(300 if smoke else 3000, reps),
        CreateStep(),
        DestroyStep(),
        AttachStep(),
        harvest,
    ]
    try:
        return reps, measure(steps, reps, GAP_SECONDS)
    finally:
        harvest.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graph, three reps, nothing written")
    parser.add_argument("--reps", type=int, default=None)
    args = parser.parse_args()
    reps, rows = run(smoke=args.smoke, reps=args.reps)
    text = format_rows(rows, GAP_SECONDS, reps)
    print(text)
    if args.smoke:
        print("smoke run OK")
    else:
        print(f"wrote {write_result('idle_gap', text)}")


if __name__ == "__main__":
    main()
