"""Deterministic fault injection for the serving plane.

The dispatcher's whole job is surviving worker misbehaviour, so its
correctness tooling must be able to *produce* worker misbehaviour on
demand: a :class:`FaultPlan` describes, ahead of time, exactly which
worker does what and when, and travels to the worker process at spawn
(it is a plain picklable dataclass, so it crosses both ``fork`` and
``spawn`` boundaries).  Inside the worker a :class:`FaultInjector`
counts queries and batches and fires each spec once — every scaling PR
(sharding, async dispatch, autoscaling) regression-tests against the
same rig instead of hand-rolled sleeps and monkeypatches.

Fault kinds
-----------
Query-indexed (fire just before answering the worker's Nth query):

``"crash"``
    ``os._exit`` mid-batch — the worker dies without an EOF-preceding
    message, exercising replacement + chunk re-dispatch.
``"hang"``
    Sleep ``seconds`` — exercises the dispatcher's batch deadline and
    ping/replace path (a sleeping worker cannot answer a ping).
``"raise"``
    Raise :class:`InjectedFault` — a stand-in for a poison query,
    exercising the per-query error channel without crafting bad input.

Batch-indexed (fire on the worker's Nth completed batch):

``"drop_result"``
    Compute the batch but deliver nothing: no ring write, no reply.
    The worker stays responsive, so a deadline ping gets a pong and the
    dispatcher re-sends the outstanding chunks instead of replacing
    the worker.
``"defer_result"``
    Withhold the whole delivery (ring write and reply) and perform it
    when a batch from a *different epoch* arrives — a deterministic
    stale-epoch delivery and late ring write, exercising the
    dispatcher's epoch fence.
``"error_reply"``
    Reply ``("error", ...)`` instead of a result — the dispatcher's
    protocol-failure raise path.

Delta-indexed (fire on the worker's Nth ``"delta"`` message):

``"delta_crash"``
    ``os._exit`` before applying the delta — the dispatcher must
    replace the worker onto the new snapshot.

Targeting: a spec matches one ``worker`` slot (``None`` = any) and one
spawn ``generation`` (0 = the original process; a replacement in the
same slot is generation 1, so a crash spec does not re-fire in the
replacement and tests terminate deterministically; ``None`` = every
generation).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

#: Fault kinds indexed by the worker's running query count.
QUERY_KINDS = frozenset({"crash", "hang", "raise"})
#: Fault kinds indexed by the worker's running batch count.
BATCH_KINDS = frozenset({"drop_result", "defer_result", "error_reply"})
#: Fault kinds indexed by the worker's running delta count.
DELTA_KINDS = frozenset({"delta_crash"})
KINDS = QUERY_KINDS | BATCH_KINDS | DELTA_KINDS


class InjectedFault(RuntimeError):
    """Raised inside a worker by a ``"raise"`` fault spec."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *which worker* does *what*, *when*.

    Parameters
    ----------
    kind:
        One of :data:`KINDS`.
    at:
        1-based index: the worker's Nth query (query kinds), Nth
        batch (batch kinds) or Nth delta (delta kinds).  Counts are per
        worker process.
    worker:
        Worker slot this spec targets; ``None`` matches every slot.
    generation:
        Spawn generation this spec targets (0 = original process,
        incremented per replacement in the slot); ``None`` matches all.
    seconds:
        Sleep duration for ``"hang"``.
    """

    kind: str
    at: int = 1
    worker: int | None = None
    generation: int | None = 0
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(KINDS)}"
            )
        if self.at < 1:
            raise ValueError("at is 1-based and must be >= 1")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of :class:`FaultSpec` entries.

    >>> plan = FaultPlan.single("raise", at=3, worker=0)
    >>> len(plan.specs)
    1
    """

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Accept any iterable but store a hashable tuple.
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def single(cls, kind: str, **kwargs) -> "FaultPlan":
        """A plan with exactly one spec (the common test shape)."""
        return cls((FaultSpec(kind, **kwargs),))

    @classmethod
    def from_seed(
        cls,
        seed: int,
        kinds: tuple[str, ...] = ("crash", "raise", "drop_result"),
        workers: int = 2,
        span: int = 8,
    ) -> "FaultPlan":
        """Derive one spec per kind deterministically from ``seed``.

        Each spec targets a seeded worker slot in ``range(workers)``
        and a seeded 1-based index in ``range(1, span + 1)``.  The same
        seed always yields the same plan, so a failing fuzz case can be
        replayed exactly.
        """
        rng = random.Random(seed)
        specs = tuple(
            FaultSpec(
                kind=kind,
                at=rng.randint(1, max(1, span)),
                worker=rng.randrange(max(1, workers)),
            )
            for kind in kinds
        )
        return cls(specs)


class FaultInjector:
    """Per-worker runtime for a :class:`FaultPlan`.

    Lives inside the worker process; counts queries and batches, fires
    each matching spec exactly once, and stashes deferred replies until
    a batch from another epoch flushes them.
    """

    def __init__(self, plan: FaultPlan, worker_id: int,
                 generation: int = 0) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.queries_seen = 0
        self.batches_seen = 0
        self.deltas_seen = 0
        self.specs = [
            spec
            for spec in plan.specs
            if (spec.worker is None or spec.worker == worker_id)
            and (spec.generation is None or spec.generation == generation)
        ]
        self._fired: set[int] = set()
        #: Stashed ``(epoch, reply)`` pairs from ``defer_result`` specs.
        self._deferred: list[tuple[int, tuple]] = []

    def _arm(self, kinds: frozenset, count: int) -> FaultSpec | None:
        """Return the first unfired matching spec for ``count``, if any."""
        for position, spec in enumerate(self.specs):
            if (
                spec.kind in kinds
                and spec.at == count
                and position not in self._fired
            ):
                self._fired.add(position)
                return spec
        return None

    # ------------------------------------------------------------------
    # Worker hooks
    # ------------------------------------------------------------------
    def before_query(self) -> None:
        """Called before each query; may crash, sleep, or raise."""
        self.queries_seen += 1
        spec = self._arm(QUERY_KINDS, self.queries_seen)
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(17)
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return
        raise InjectedFault(
            f"injected failure at query {spec.at} "
            f"(worker {self.worker_id}, generation {self.generation})"
        )

    def on_delta(self) -> None:
        """Called on each delta message, before it is applied."""
        self.deltas_seen += 1
        if self._arm(DELTA_KINDS, self.deltas_seen) is not None:
            os._exit(19)

    def on_batch(self, conn, batch_id: tuple[int, int]) -> None:
        """Called on batch receipt: flush replies deferred from other epochs."""
        self.batches_seen += 1
        epoch = batch_id[0]
        still_deferred = []
        for stashed_epoch, reply in self._deferred:
            if stashed_epoch == epoch:
                still_deferred.append((stashed_epoch, reply))
            elif callable(reply):
                reply()
            else:
                conn.send(reply)
        self._deferred = still_deferred

    def outgoing_reply(self, batch_id: tuple[int, int], reply):
        """Filter a result reply; return what to deliver or ``None``.

        ``reply`` is the message to send, or a callable that delivers
        it (the worker's ring write plus its reply); a deferred one is
        called when :meth:`on_batch` flushes it.  An ``error_reply``
        spec returns the error message to send instead.
        """
        spec = self._arm(BATCH_KINDS, self.batches_seen)
        if spec is None:
            return reply
        if spec.kind == "drop_result":
            return None
        if spec.kind == "defer_result":
            self._deferred.append((batch_id[0], reply))
            return None
        return (
            "error",
            self.worker_id,
            f"injected error reply at batch {spec.at}",
        )
