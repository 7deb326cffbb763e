"""Worker-process bootstrap for the query service.

Each worker maps the snapshot file exactly once at startup (sharing the
read-only pages with every sibling), keeps its warm per-thread
:class:`~repro.graph.csr.SearchArena` set through the restored engine,
and then answers query batches received over its pipe until told to
stop.  Queries travel as plain ``(source, target, failed_edges)``
tuples and answers as float lists — the index itself never crosses the
pipe.

Message protocol v2 (tuples, first element is the kind; the full
specification lives in DESIGN.md §8, the shared-memory result plane in
§11):

``("batch", batch_id, queries[, ring_spec, quiet])``
    ``batch_id`` is an ``(epoch, seq)`` pair stamped by the dispatcher;
    the worker treats ``epoch`` as opaque and echoes the id back.
    Answer ``queries`` (a list of ``(s, t, failed)`` with ``failed`` a
    tuple of edge pairs or ``None``).  When ``ring_spec`` is absent
    (the pipe fallback), reply ``("result", batch_id, worker_id,
    answers, latencies, busy_seconds, errors)``.  When ``ring_spec`` is
    a :meth:`~repro.serving.ring.ResultRing.spec` triple, write
    ``answers`` and ``latencies`` into ring slot ``seq`` — stamped with
    ``(epoch, seq, count)`` so the dispatcher can fence stale writes —
    and reply only the completion record ``("result_shm", batch_id,
    worker_id, busy_seconds, errors)``.  A ``quiet`` batch (a hot-pair
    refresh chunk) gets no reply at all once its slot is stamped: the
    dispatcher harvests it by reading the stamp, so no completion
    record piles up in a pipe that nothing reads.  A quiet batch with a
    failed query is not written to the ring: its errors travel in the
    full ``("result", ...)`` reply.  If the ring cannot be attached or
    written (platform without ``/dev/shm``, ring already gone) the
    worker falls back to the full ``("result", ...)`` reply for that
    batch.  Either way a query that raises does **not** kill the
    worker: its answer slot carries the :data:`QUERY_ERROR` sentinel
    (NaN, which travels the float plane unchanged) and ``errors`` lists
    ``(position, "ExcType: message")`` for every failed position — the
    per-query error channel.
``("delta", path, edge_ids, ranks)``
    Become the engine of snapshot ``path`` in place: the dispatcher
    sends this instead of a restart when ``path`` differs from the
    served file only in edge weights and per-rank trees and overlay
    rows (:func:`repro.oracle.snapshot.snapshot_delta`).  The worker
    maps ``path``, copies only those slices, closes the mapping and
    replies ``("delta_ok", worker_id, apply_seconds)``; on any error it
    replies ``("error", worker_id, message)`` and the dispatcher
    replaces it with a worker that loads ``path`` whole.
``("ping",)``
    Reply ``("pong", worker_id)`` — liveness probe.  A worker blocked
    inside a query (hung or genuinely slow past the dispatcher's
    deadline) cannot answer it and is presumed dead.
``("crash",)``
    Exit immediately without replying (test hook for the dispatcher's
    worker-replacement path).
``("stop",)``
    Close the pipe and exit cleanly.

Unknown kinds get ``("error", worker_id, message)`` back, which the
dispatcher treats as a protocol failure and raises on.

``worker_main`` optionally carries a
:class:`~repro.serving.faults.FaultPlan` plus the slot's spawn
``generation`` so the fault-injection rig can misbehave
deterministically (see :mod:`repro.serving.faults`), and the pool's
ring spec, which the worker attaches before it reports ready.
"""

from __future__ import annotations

import functools
import gc
import os
import time

#: Answer slot sentinel for a query that raised inside the worker.
QUERY_ERROR = float("nan")


def answer_batch(
    oracle, queries, injector=None
) -> tuple[list[float], list[float], list[tuple[int, str]]]:
    """Answer ``queries`` on ``oracle``; return (answers, latencies, errors).

    A query that raises contributes :data:`QUERY_ERROR` to ``answers``
    (its latency still measured) and a ``(position, message)`` entry to
    the sparse ``errors`` list — the batch always completes and the
    worker survives.  ``injector`` is an optional
    :class:`~repro.serving.faults.FaultInjector` whose ``before_query``
    hook runs inside the per-query try block, so an injected raise is
    indistinguishable from a poison query.

    Oracles exposing ``answer_many`` (the frozen engines' batch path:
    the scalar search per query, with each distinct failure set
    translated once; same NaN + ``(position, "ExcType: message")``
    error channel) answer the whole batch in one call — the sharded
    plane's border legs, which share one failure set, ride this path.  The batch then has one wall-clock
    measurement, reported as a uniform per-query mean; fault injection
    forces the scalar loop so ``before_query`` keeps firing per query.
    """
    answer_many = getattr(oracle, "answer_many", None)
    if injector is None and answer_many is not None:
        started = time.perf_counter()
        answers, errors = answer_many(queries)
        mean = (
            (time.perf_counter() - started) / len(queries)
            if queries
            else 0.0
        )
        return list(answers), [mean] * len(queries), list(errors)
    answers: list[float] = []
    latencies: list[float] = []
    errors: list[tuple[int, str]] = []
    query = oracle.query
    perf = time.perf_counter
    for position, (source, target, failed) in enumerate(queries):
        started = perf()
        try:
            if injector is not None:
                injector.before_query()
            value = query(
                source, target, frozenset(failed) if failed else None
            )
        except Exception as exc:
            value = QUERY_ERROR
            errors.append((position, f"{type(exc).__name__}: {exc}"))
        answers.append(value)
        latencies.append(perf() - started)
    return answers, latencies, errors


def worker_main(
    snapshot_path: str,
    conn,
    worker_id: int,
    fault_plan=None,
    generation: int = 0,
    ring_spec=None,
) -> None:
    """Run one worker: map the snapshot, then serve batches until stop."""
    from repro.oracle.snapshot import apply_snapshot_delta, load_snapshot

    injector = None
    if fault_plan:
        from repro.serving.faults import FaultInjector

        injector = FaultInjector(fault_plan, worker_id, generation)

    # The load allocates a few hundred thousand long-lived objects and
    # frees almost none, so collections during it are pure overhead.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        oracle = load_snapshot(snapshot_path)
        # Build the lazy query views now, before the collector is
        # frozen below, so no request pays for them.
        oracle.index.build_views()
        load_seconds = time.perf_counter() - started
    except Exception as exc:  # surface load failures to the dispatcher
        try:
            conn.send(("error", worker_id, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    finally:
        if collecting:
            gc.enable()
    # The loaded index is immutable for this worker's whole life: move
    # it out of the collector's generations so no later collection
    # walks it again.
    gc.freeze()

    # Map the pool's ring before reporting ready, so no request pays
    # for the attach.
    ring = _current_ring(None, ring_spec)
    conn.send(
        (
            "ready",
            worker_id,
            {
                "pid": os.getpid(),
                "load_seconds": load_seconds,
                "oracle": oracle.name,
                "generation": generation,
            },
        )
    )
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                batch_id, queries = message[1], message[2]
                ring_spec, quiet = (
                    message[3:5] if len(message) > 3 else (None, False)
                )
                if injector is not None:
                    injector.on_batch(conn, batch_id)
                tick = time.perf_counter()
                answers, latencies, errors = answer_batch(
                    oracle, queries, injector
                )
                busy = time.perf_counter() - tick
                ring = _current_ring(ring, ring_spec)
                target = ring if ring_spec is not None else None
                if injector is None:
                    _deliver(
                        conn, target, batch_id, worker_id, answers,
                        latencies, busy, errors, quiet,
                    )
                else:
                    delivery = functools.partial(
                        _deliver, conn, target, batch_id, worker_id,
                        answers, latencies, busy, errors, quiet,
                    )
                    reply = injector.outgoing_reply(batch_id, delivery)
                    if reply is delivery:
                        delivery()
                    elif reply is not None:
                        conn.send(reply)
            elif kind == "delta":
                _, path, edge_ids, ranks = message
                if injector is not None:
                    injector.on_delta()
                tick = time.perf_counter()
                try:
                    apply_snapshot_delta(oracle, path, edge_ids, ranks)
                except Exception as exc:
                    conn.send(
                        ("error", worker_id, f"{type(exc).__name__}: {exc}")
                    )
                else:
                    conn.send(
                        ("delta_ok", worker_id, time.perf_counter() - tick)
                    )
            elif kind == "ping":
                conn.send(("pong", worker_id))
            elif kind == "crash":
                os._exit(13)
            elif kind == "stop":
                break
            else:
                conn.send(("error", worker_id, f"unknown message {kind!r}"))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # dsolint: disable=DSO403 -- dispatcher pipe is gone; no channel left to report on
        pass
    finally:
        if ring is not None:
            ring.close()
        conn.close()


def _deliver(
    conn, ring, batch_id, worker_id, answers, latencies, busy, errors,
    quiet,
) -> None:
    """Hand one batch's results back: ring slot first, pipe fallback.

    With a ``ring``, the answers go to slot ``seq`` and the pipe gets
    the small completion record, or nothing for a ``quiet`` batch.  A
    quiet batch with errors, a batch without a ring, and a failed ring
    write all send the whole ``("result", ...)`` message instead.
    """
    if quiet and errors:
        ring = None
    if ring is not None:
        epoch, seq = batch_id
        try:
            ring.write(seq, epoch, seq, answers, latencies, busy)
        except Exception:  # dsolint: disable=DSO402 -- ring write failure falls through to the full pipe reply below; nothing is swallowed
            ring = None
    if ring is None:
        conn.send(
            ("result", batch_id, worker_id, answers, latencies, busy, errors)
        )
    elif not quiet:
        conn.send(("result_shm", batch_id, worker_id, busy, errors))


def _current_ring(ring, ring_spec):
    """Keep the worker mapped to the pool's ring (one live at a time).

    The dispatcher replaces its ring when it grows and after an aborted
    run: when a batch references a new ring name the previous mapping
    is dropped first.  An attach failure (the ring was already
    unlinked, or the platform has no usable shared memory) returns
    ``None`` and the caller replies over the pipe instead — the
    dispatcher accepts either reply kind.
    """
    if ring_spec is None:
        return ring
    if ring is not None and ring.name == ring_spec[0]:
        return ring
    from repro.serving.ring import ResultRing

    if ring is not None:
        ring.close()
    try:
        return ResultRing.attach(ring_spec)
    except Exception:  # dsolint: disable=DSO402 -- attach failure routes the batch to the pipe fallback, which the dispatcher reports normally
        return None
