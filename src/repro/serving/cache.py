"""Dispatcher-level result cache with epoch-scoped invalidation.

At the traffic scale the serving plane targets, real query
distributions are heavily skewed: the same hot ``(s, t)`` pairs are
re-asked over and over, usually under a recurring handful of failure
sets (the paper's Example 1 is exactly this — one commuter, many
closure variants).  :mod:`repro.oracle.caching` exploits that skew
*inside* one oracle; this module exploits it *before any worker is
touched*: the dispatcher remembers finished answers keyed on
``(s, t, canonicalized F)`` and serves repeats as a dictionary lookup.

Correctness rests on two properties (argument in DESIGN.md §12):

* **Keys are canonical.**  :func:`canonical_query_key` routes the
  failure set through
  :func:`repro.oracle.base.canonical_failure_key`, so two equal
  failure sets produce the same key no matter how they were built or
  in which order a ``set`` iterates — a cache hit is definitionally
  the *same query*, and the oracles are deterministic, so the cached
  answer is bitwise-identical to what a worker would recompute.
* **Entries are epoch-scoped.**  Every entry records the *snapshot
  epoch* it was computed under.  A lookup under any other epoch
  removes the entry and reports a miss, so retiring a snapshot
  (hot-swap, rebuild) invalidates the whole cache for free — no
  enumeration, no distributed coordination, just a stamped integer
  comparison.  This mirrors the run-epoch fence of DESIGN.md §8: the
  dispatcher only ever inserts answers that passed that fence, so a
  stale-epoch delivery from an aborted run can never *enter* the
  cache, and the snapshot stamp guarantees it can never *leave* it
  after a retirement either.

Entries holding the NaN :data:`~repro.serving.worker.QUERY_ERROR`
sentinel are never admitted: an errored answer describes a transient
worker condition (or a poison query, which must keep paying its own
cost), not a reusable fact about the graph.

:class:`HotPairTracker` is the workload-skew observer feeding hot-pair
precomputation: decayed counters over canonical keys, cheap enough to
update on every query.  A cache built with a tracker drives it: every
insert and removal tells the tracker, which keeps a sorted leaderboard
of the tracked keys the cache does not hold, so ``top(k)`` — what
:meth:`repro.serving.QueryService.refresh_hot_pairs` deals after each
run — is a slice, not a walk over the table and the cache.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort
from collections import OrderedDict

from repro.oracle.base import canonical_failure_key

#: Canonical cache key: ``(source, target, sorted failure tuple)``.
QueryKey = tuple[int, int, tuple]


def canonical_query_key(source: int, target: int, failed) -> QueryKey:
    """The cache key of one wire query.

    ``failed`` may be ``None``, a tuple, a set, or a frozenset — every
    representation of the same failure set maps to the same key.

    >>> canonical_query_key(3, 9, ((5, 6), (1, 2)))
    (3, 9, ((1, 2), (5, 6)))
    >>> canonical_query_key(3, 9, None)
    (3, 9, ())
    """
    return (source, target, canonical_failure_key(failed))


class ResultCache:
    """LRU result cache whose entries die with their snapshot epoch.

    Parameters
    ----------
    capacity:
        Maximum number of cached answers (>= 1).  Eviction is LRU.
    tracker:
        Optional :class:`HotPairTracker` whose ``top(k)`` must skip the
        keys this cache holds.  The cache reports every insert and
        removal to it; one tracker serves one cache.

    Notes
    -----
    Thread-safe: the serving dispatcher is single-threaded today, but
    callers may share one cache across threads, so every mutation and
    every stats snapshot takes the lock (the same discipline as
    :class:`repro.oracle.caching.CachingDISO`'s endpoint cache).  A
    bound tracker takes the same lock, so its leaderboard and the
    cache's entries change together.
    """

    def __init__(
        self, capacity: int, tracker: "HotPairTracker | None" = None
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        #: key -> (answer, snapshot_epoch, precomputed)
        self._entries: OrderedDict[
            QueryKey, tuple[float, int, bool]
        ] = OrderedDict()
        self._lock = threading.Lock()
        self._tracker = tracker
        if tracker is not None:
            tracker._bind(self._entries, self._lock)
        self._hits = 0
        self._misses = 0
        self._precomputed_hits = 0
        self._inserts = 0
        self._evictions = 0
        self._stale_drops = 0

    def get(self, key: QueryKey, epoch: int) -> tuple[float, bool] | None:
        """Return ``(answer, was_precomputed)`` if cached under ``epoch``.

        An entry stamped with any other snapshot epoch is removed on
        sight and reported as a miss — the epoch-scoped invalidation
        contract.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            answer, entry_epoch, precomputed = entry
            if entry_epoch != epoch:
                del self._entries[key]
                if self._tracker is not None:
                    self._tracker._uncached(key)
                self._stale_drops += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            if precomputed:
                self._precomputed_hits += 1
            return answer, precomputed

    def put(
        self,
        key: QueryKey,
        answer: float,
        epoch: int,
        precomputed: bool = False,
    ) -> bool:
        """Admit one answer computed under snapshot ``epoch``.

        Returns ``False`` (and stores nothing) for the NaN
        ``QUERY_ERROR`` sentinel: error outcomes are never reusable.
        """
        if math.isnan(answer):
            return False
        with self._lock:
            tracker = self._tracker
            if tracker is not None and key not in self._entries:
                tracker._cached(key)
            self._entries[key] = (answer, epoch, precomputed)
            self._entries.move_to_end(key)
            self._inserts += 1
            while len(self._entries) > self._capacity:
                evicted, _ = self._entries.popitem(last=False)
                if tracker is not None:
                    tracker._uncached(evicted)
                self._evictions += 1
        return True

    def retire_older_than(self, epoch: int) -> int:
        """Drop every entry stamped with a snapshot epoch < ``epoch``.

        Lookup already refuses mismatched epochs lazily; this eager
        sweep just returns the memory.  Returns the number dropped.
        """
        with self._lock:
            stale = [
                key
                for key, (_, entry_epoch, _) in self._entries.items()
                if entry_epoch < epoch
            ]
            for key in stale:
                del self._entries[key]
            if stale and self._tracker is not None:
                self._tracker._rebuild()
            self._stale_drops += len(stale)
            return len(stale)

    def entry_epochs(self) -> set[int]:
        """The set of snapshot epochs present in the cache (tests)."""
        with self._lock:
            return {epoch for _, epoch, _ in self._entries.values()}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if self._tracker is not None:
                self._tracker._rebuild()

    def stats(self) -> dict:
        """One consistent snapshot of every counter plus the size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "precomputed_hits": self._precomputed_hits,
                "inserts": self._inserts,
                "evictions": self._evictions,
                "stale_drops": self._stale_drops,
                "entries": len(self._entries),
                "capacity": self._capacity,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class HotPairTracker:
    """Decayed frequency counters over canonical query keys.

    Observes every key the dispatcher sees and keeps an approximate
    leaderboard: each observation adds 1 to the key's score, and every
    ``decay_every`` observations all scores are multiplied by
    ``decay`` — so a pair that stops being asked ages out instead of
    squatting on the leaderboard forever (the behaviour a plain
    count-min sketch with no aging would get wrong under drift).  The
    table is bounded: when it outgrows ``capacity`` the lowest-scored
    keys are pruned.

    The leaderboard holds ``(-score, key)`` for every tracked key the
    bound :class:`ResultCache` does not hold (every tracked key when
    none is bound), kept sorted as it changes: an observation of an
    uncached key moves one entry, a cache insert removes one, a cache
    removal puts one back, and aging or an epoch retirement rebuilds it
    in one sort.  Observing a cached key touches only its score.

    Deterministic: ranking ties break on the key itself, so the same
    observation sequence always yields the same ``top(k)``.
    """

    def __init__(
        self,
        capacity: int = 4096,
        decay: float = 0.5,
        decay_every: int = 1024,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracker capacity must be >= 1")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if decay_every < 1:
            raise ValueError("decay_every must be >= 1")
        self._capacity = capacity
        self._decay = decay
        self._decay_every = decay_every
        self._scores: dict[QueryKey, float] = {}
        self._observed = 0
        #: The bound cache's entries; membership means "cached".
        self._resident: dict = {}
        #: Guards scores and leaderboard; a bound cache's lock, which is
        #: held whenever the cache calls back in.
        self._lock = threading.Lock()
        #: ``(-score, key)`` of every tracked uncached key, ascending.
        self._board: list[tuple[float, QueryKey]] = []

    def observe(self, key: QueryKey) -> None:
        """Record one sighting of ``key``."""
        with self._lock:
            old = self._scores.get(key)
            score = (0.0 if old is None else old) + 1.0
            self._scores[key] = score
            if key not in self._resident:
                if old is not None:
                    del self._board[bisect_left(self._board, (-old, key))]
                insort(self._board, (-score, key))
            self._observed += 1
            if self._observed % self._decay_every == 0:
                self._age()

    def _age(self) -> None:
        """Decay all scores; prune the coldest keys past capacity."""
        decayed = {
            key: score * self._decay
            for key, score in self._scores.items()
            if score * self._decay >= 0.125
        }
        if len(decayed) > self._capacity:
            ranked = sorted(
                decayed.items(), key=lambda item: (-item[1], item[0])
            )
            decayed = dict(ranked[: self._capacity])
        self._scores = decayed
        self._rebuild()

    # -- residency, reported by the bound ResultCache under its lock ----
    def _bind(self, entries: dict, lock: threading.Lock) -> None:
        with lock:
            self._resident = entries
            self._lock = lock
            self._rebuild()

    def _cached(self, key: QueryKey) -> None:
        """``key`` entered the cache: take it off the leaderboard."""
        score = self._scores.get(key)
        if score is not None:
            del self._board[bisect_left(self._board, (-score, key))]

    def _uncached(self, key: QueryKey) -> None:
        """``key`` left the cache: put it back on the leaderboard."""
        score = self._scores.get(key)
        if score is not None:
            insort(self._board, (-score, key))

    def _rebuild(self) -> None:
        """Re-derive the leaderboard from the scores in one sort."""
        resident = self._resident
        # Keys are unique, so ``(-score, key)`` is a total order: the
        # dict's iteration order cannot reach the result.
        self._board = sorted(
            (-score, key)
            for key, score in self._scores.items()
            if key not in resident
        )

    def top(self, k: int) -> list[QueryKey]:
        """The ``k`` hottest keys the bound cache lacks, hottest first."""
        with self._lock:
            return [key for _, key in self._board[: max(k, 0)]]

    def __len__(self) -> int:
        return len(self._scores)
