"""Shared-memory result plane: a preallocated float64 slot ring.

Protocol v2 shipped every answer back over the worker pipe as a pickled
``("result", ...)`` tuple — at 4 workers the dispatcher spent more time
unpickling float lists than the workers spent answering them (the 0.86x
row in ``BENCH_throughput.json``).  Answers are pure floats (the
per-query error sentinel :data:`repro.serving.worker.QUERY_ERROR` is
NaN, so even failures fit a float plane), which makes them a perfect
fit for a preallocated ``multiprocessing.shared_memory`` segment:
workers write answers and latencies in place at their chunk's slot and
the pipe carries only a tiny completion record, or nothing at all for a
hot-pair refresh chunk, whose stamp the dispatcher reads directly.

Ring layout (DESIGN.md §11.1)
-----------------------------
One ring serves a pool for as long as it runs: the dispatcher creates
it in ``start()`` and every run reuses it.  Slot ``s`` belongs to the
chunk with sequence number ``s`` of whichever run (or hot-pair
refresh) is in flight, and chunk ``s`` always goes to worker slot
``s mod workers``, so two processes can only race on a slot when
re-dispatch hands the *same chunk* to a replacement, in which case
both write identical bytes (answers are deterministic).  The first
``workers`` slots are reserved for the hot-pair refresh, runs use the
rest.  Each slot is ``4 + 2 * capacity`` float64 lanes::

    [epoch, seq, count, busy_seconds,
     answers[0..capacity), latencies[0..capacity)]

Writers fill the payload lanes first and stamp ``(epoch, seq, count)``
last; readers validate the stamp, copy the payload, and validate the
stamp again, so a half-written or stale slot reads as "no result yet"
(``None``) instead of corrupt data.  Every run and refresh has its own
epoch, so a slot still stamped by an earlier one never validates.  A
fresh segment is zero-filled, and epochs start at 1, so an untouched
slot cannot validate either.

Geometry only grows: when a run needs more slots or a larger capacity
than the ring has, the dispatcher replaces it with one that
:meth:`ResultRing.covers` both the old geometry and the new need.

Lifecycle
---------
The dispatcher creates the ring (``create``) and passes its ``spec()``
to each worker at spawn and inside each batch message; a worker
attaches once and re-attaches only when the name changes.  The
dispatcher closes **and unlinks** the ring on ``stop()``, and replaces
it when it grows and after an aborted run, so a straggler's late write
lands in the retired mapping.  Workers only ever ``close``; a worker
that dies without closing (an injected crash) merely drops its
mapping: the kernel frees the pages once the name is unlinked and the
last mapping is gone.  Attached segments are deregistered from
``multiprocessing.resource_tracker`` so a worker exit does not destroy
a segment the dispatcher still owns (Python < 3.13 has no
``track=False``).

Workers copy answers in through ``array("d", ...)`` and the dispatcher
copies them out through typed memoryviews: no NumPy call sits on
either side of the plane.
"""

from __future__ import annotations

import itertools
import os
import secrets
from array import array
from multiprocessing import shared_memory

#: float64 lanes per slot before the answers lane starts.
HEADER_FLOATS = 4
#: ``/dev/shm`` name prefix — the leak-scan tests key on it.
NAME_PREFIX = "dso-ring-"

_ring_counter = itertools.count()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without registering it for cleanup.

    An attaching process must not register the segment: under fork the
    tracker is shared with the creator (a later unregister would strip
    the creator's own registration), and under spawn the worker's own
    tracker would unlink the segment when the worker exits — either way
    the creator must stay the sole owner of the name.  Python < 3.13
    has no ``track=False``, so registration is suppressed for the
    duration of the attach (workers attach from a single thread).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ResultRing:
    """A fixed-geometry slot ring over one shared-memory segment.

    Parameters
    ----------
    shm:
        The mapped segment.
    slots:
        Number of slots (refresh slots plus the largest run's chunks).
    capacity:
        Maximum queries per slot (the largest chunk size seen).
    owner:
        ``True`` in the creating (dispatcher) process — ``destroy()``
        unlinks; attached rings only ever close.
    """

    __slots__ = ("_shm", "slots", "capacity", "_owner", "_view", "_closed")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        capacity: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.slots = slots
        self.capacity = capacity
        self._owner = owner
        self._view = memoryview(shm.buf).cast("d")
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, slots: int, capacity: int) -> "ResultRing":
        """Allocate a zero-filled ring sized ``slots`` x ``capacity``."""
        if slots < 1 or capacity < 1:
            raise ValueError("slots and capacity must be >= 1")
        name = (
            f"{NAME_PREFIX}{os.getpid()}-{next(_ring_counter)}-"
            f"{secrets.token_hex(2)}"
        )
        size = 8 * slots * (HEADER_FLOATS + 2 * capacity)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        # Pre-fault every page in the creating process: tmpfs hands the
        # segment out as holes, the dispatcher reads each slot exactly
        # once, and a first-touch fault inside the result-harvest path
        # costs more than the read itself.  This memset also *enforces*
        # the zero-fill the stamp protocol relies on rather than
        # assuming it.
        shm.buf[:] = bytes(size)
        return cls(shm, slots, capacity, owner=True)

    @classmethod
    def attach(cls, spec: tuple[str, int, int]) -> "ResultRing":
        """Map an existing ring from its ``spec()`` triple."""
        name, slots, capacity = spec
        shm = _attach_untracked(name)
        return cls(shm, slots, capacity, owner=False)

    def covers(self, slots: int, capacity: int) -> bool:
        """Whether this ring has at least ``slots`` x ``capacity``."""
        return slots <= self.slots and capacity <= self.capacity

    def spec(self) -> tuple[str, int, int]:
        """The picklable ``(name, slots, capacity)`` attach handle."""
        return (self._shm.name, self.slots, self.capacity)

    @property
    def name(self) -> str:
        return self._shm.name

    def _base(self, slot: int) -> int:
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range for {self.slots}")
        return slot * (HEADER_FLOATS + 2 * self.capacity)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def write(
        self,
        slot: int,
        epoch: int,
        seq: int,
        answers,
        latencies,
        busy_seconds: float,
    ) -> None:
        """Fill ``slot``'s payload lanes, then stamp it valid.

        The stamp goes last so a concurrent reader either sees the
        complete payload under a matching stamp or rejects the slot.
        """
        count = len(answers)
        if count > self.capacity:
            raise ValueError(
                f"chunk of {count} exceeds slot capacity {self.capacity}"
            )
        base = self._base(slot)
        view = self._view
        payload = base + HEADER_FLOATS
        if count:
            view[payload : payload + count] = array("d", answers)
            view[
                payload + self.capacity : payload + self.capacity + count
            ] = array("d", latencies)
        view[base + 3] = busy_seconds
        view[base + 2] = float(count)
        view[base + 1] = float(seq)
        view[base] = float(epoch)

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def read(
        self, slot: int, epoch: int, seq: int, count: int
    ) -> tuple[list[float], list[float], float] | None:
        """Copy ``slot``'s payload if its stamp matches, else ``None``.

        The stamp is checked before and after the copy: a mismatch on
        either side (an unwritten, stale-epoch, or mid-write slot)
        returns ``None`` and the caller treats the result as not yet
        delivered — the deadline/resend machinery takes it from there.
        """
        base = self._base(slot)
        view = self._view
        stamp = [float(epoch), float(seq), float(count)]
        if view[base : base + 3].tolist() != stamp:
            return None
        # Copy the payload through ``array`` over the raw byte buffer:
        # one C memcpy plus C-speed boxing.  Element-wise access on the
        # cast memoryview goes through per-element struct unpacking,
        # which in situ costs more than the pipe plane's unpickle ever
        # did.
        raw = self._shm.buf
        first = 8 * (base + HEADER_FLOATS)
        second = first + 8 * self.capacity
        answer_lane = array("d")
        answer_lane.frombytes(raw[first : first + 8 * count])
        latency_lane = array("d")
        latency_lane.frombytes(raw[second : second + 8 * count])
        answers = answer_lane.tolist()
        latencies = latency_lane.tolist()
        busy = view[base + 3]
        if view[base : base + 3].tolist() != stamp:
            return None
        return answers, latencies, busy

    def read_into(
        self,
        slot: int,
        epoch: int,
        seq: int,
        count: int,
        answers_out: memoryview,
        latencies_out: memoryview,
        start: int,
    ) -> float | None:
        """Copy ``slot``'s payload straight into caller buffers.

        Same stamp protocol as :meth:`read`, but the payload lands in
        ``answers_out[start : start + count]`` (and likewise for
        latencies) as two typed-memoryview copies — no Python floats
        are materialized.  This is the dispatcher's hot path: it keeps
        per-batch result harvesting at memcpy cost and defers boxing to
        one bulk pass at end of run, which a pickled result plane
        cannot do (every pipe payload must be unpickled on arrival).

        Returns the worker's busy-seconds on success, ``None`` when the
        stamp does not match (caller treats the result as lost; a
        partial copy from a failed attempt is overwritten when the
        re-sent chunk is harvested — slots are chunk-deterministic).
        """
        base = self._base(slot)
        view = self._view
        stamp = [float(epoch), float(seq), float(count)]
        if view[base : base + 3].tolist() != stamp:
            return None
        payload = base + HEADER_FLOATS
        answers_out[start : start + count] = view[payload : payload + count]
        latencies_out[start : start + count] = view[
            payload + self.capacity : payload + self.capacity + count
        ]
        busy = view[base + 3]
        if view[base : base + 3].tolist() != stamp:
            return None
        return busy

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._view.release()
        self._shm.close()

    def destroy(self) -> None:
        """Close and, when owner, unlink the segment (idempotent)."""
        self.close()
        if self._owner:
            self._owner = False
            try:
                self._shm.unlink()
            except FileNotFoundError:  # dsolint: disable=DSO403 -- double-destroy race: the name is already gone, which is the goal state
                pass
