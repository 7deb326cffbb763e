"""The dispatcher cache must never change an answer — only skip work.

Three components share this suite because they gate the same dispatch
path (DESIGN.md §12): the epoch-scoped :class:`ResultCache`, the
:class:`HotPairTracker` skew observer, and :class:`DeadlineAdmission`
load shedding.  The load-bearing properties:

* **Bitwise parity** — a cached serving run returns ``==``-equal
  answers to an uncached run, across every oracle family
  (DISO/ADISO/DISO-S/ADISO-P) and including failure-set queries.
* **Epoch invalidation is falsifiable** — after ``swap_snapshot`` to a
  same-shaped graph with *different weights*, the cached answers must
  match the NEW oracle.  Remove the epoch check and this test fails.
* **Sheds are honest** — a shed query is NaN + status ``"shed"``, not
  an error and never a stale answer.
* **The leaderboard chooses what a scan chooses** — the tracker's
  incremental leaderboard of uncached keys returns exactly what a
  filter and heap-select over the whole table returns
  (:class:`ReferenceTracker`), after any sequence of observations and
  cache inserts, evictions, stale drops, retirements and clears.
"""

from __future__ import annotations

import gc
import heapq
import logging
import math
import random
import struct
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.oracle.adiso import ADISO
from repro.oracle.adiso_p import ADISOPartial
from repro.oracle.base import canonical_failure_key
from repro.oracle.diso import DISO
from repro.oracle.diso_s import DISOSparse
from repro.graph.generators import grid_network
from repro.oracle.snapshot import save_snapshot
from repro.serving import (
    DeadlineAdmission,
    FaultPlan,
    HotPairTracker,
    QueryService,
    ResultCache,
    ShardedQueryService,
    canonical_query_key,
)
from repro.sharding import build_sharded, save_sharded_snapshot
from repro.workload.queries import generate_queries, generate_zipf_queries
from util import random_failures_from, random_graph

from test_serving import make_service

LOGGER = "repro.serving.service"


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
class TestCanonicalKeys:
    def test_failure_key_is_order_independent(self):
        assert canonical_failure_key({(3, 4), (1, 2)}) == ((1, 2), (3, 4))
        assert canonical_failure_key([(3, 4), (1, 2)]) == ((1, 2), (3, 4))
        assert canonical_failure_key(None) == ()
        assert canonical_failure_key(set()) == ()

    def test_query_key_identical_for_equivalent_spellings(self):
        spellings = [
            canonical_query_key(1, 9, {(5, 6), (2, 3)}),
            canonical_query_key(1, 9, frozenset({(2, 3), (5, 6)})),
            canonical_query_key(1, 9, [(5, 6), (2, 3)]),
            canonical_query_key(1, 9, ((2, 3), (5, 6))),
        ]
        assert len(set(spellings)) == 1

    def test_query_key_distinguishes_direction_and_failures(self):
        assert canonical_query_key(1, 9, None) != canonical_query_key(
            9, 1, None
        )
        assert canonical_query_key(1, 9, {(2, 3)}) != canonical_query_key(
            1, 9, None
        )


# ----------------------------------------------------------------------
# ResultCache unit behaviour
# ----------------------------------------------------------------------
class TestResultCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = ResultCache(8)
        key = canonical_query_key(1, 2, None)
        assert cache.get(key, epoch=1) is None
        assert cache.put(key, 3.5, epoch=1)
        answer, precomputed = cache.get(key, epoch=1)
        assert answer == 3.5 and precomputed is False
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["inserts"] == 1

    def test_nan_is_never_admitted(self):
        cache = ResultCache(8)
        key = canonical_query_key(1, 2, None)
        assert not cache.put(key, float("nan"), epoch=1)
        assert len(cache) == 0
        assert cache.get(key, epoch=1) is None

    def test_infinity_is_cacheable(self):
        # Disconnection is a real, stable answer — unlike NaN errors.
        cache = ResultCache(8)
        key = canonical_query_key(1, 2, ((3, 4),))
        assert cache.put(key, float("inf"), epoch=1)
        assert cache.get(key, epoch=1)[0] == float("inf")

    def test_stale_epoch_entry_is_refused_and_evicted(self):
        cache = ResultCache(8)
        key = canonical_query_key(1, 2, None)
        cache.put(key, 3.5, epoch=1)
        assert cache.get(key, epoch=2) is None
        assert len(cache) == 0
        assert cache.stats()["stale_drops"] == 1
        # And it is gone even when asked at the old epoch again.
        assert cache.get(key, epoch=1) is None

    def test_retire_older_than_sweeps_eagerly(self):
        cache = ResultCache(8)
        for node in range(4):
            cache.put(canonical_query_key(node, 9, None), 1.0, epoch=1)
        cache.put(canonical_query_key(7, 9, None), 2.0, epoch=2)
        cache.retire_older_than(2)
        assert len(cache) == 1
        assert cache.entry_epochs() == {2}

    def test_lru_eviction_keeps_recent(self):
        cache = ResultCache(2)
        a = canonical_query_key(1, 9, None)
        b = canonical_query_key(2, 9, None)
        c = canonical_query_key(3, 9, None)
        cache.put(a, 1.0, epoch=1)
        cache.put(b, 2.0, epoch=1)
        cache.get(a, epoch=1)  # refresh a; b is now least-recent
        cache.put(c, 3.0, epoch=1)
        assert cache.get(b, epoch=1) is None
        assert cache.get(a, epoch=1)[0] == 1.0
        assert cache.get(c, epoch=1)[0] == 3.0
        assert cache.stats()["evictions"] == 1

    def test_precomputed_flag_roundtrips(self):
        cache = ResultCache(4)
        key = canonical_query_key(5, 6, None)
        cache.put(key, 1.5, epoch=1, precomputed=True)
        answer, precomputed = cache.get(key, epoch=1)
        assert precomputed is True
        assert cache.stats()["precomputed_hits"] == 1


# ----------------------------------------------------------------------
# HotPairTracker
# ----------------------------------------------------------------------
#: Every key the property tests draw: small, so ties and repeats abound.
FAILURE_SPELLINGS = [None, ((1, 2),), ((0, 1), (2, 3))]
KEY_SPACE = [
    canonical_query_key(source, target, failed)
    for source in range(4)
    for target in range(4)
    for failed in FAILURE_SPELLINGS
]


class TestHotPairTracker:
    def test_top_ranks_by_frequency(self):
        tracker = HotPairTracker()
        hot = canonical_query_key(1, 2, None)
        warm = canonical_query_key(3, 4, None)
        cold = canonical_query_key(5, 6, None)
        for _ in range(10):
            tracker.observe(hot)
        for _ in range(3):
            tracker.observe(warm)
        tracker.observe(cold)
        assert tracker.top(2) == [hot, warm]

    def test_top_is_deterministic_under_ties(self):
        tracker = HotPairTracker()
        keys = [canonical_query_key(node, 9, None) for node in (3, 1, 2)]
        for key in keys:
            tracker.observe(key)
        # Equal scores break ties on the key itself: sorted order.
        assert tracker.top(3) == sorted(keys)

    def test_exclude_filters_already_cached(self):
        tracker = HotPairTracker()
        cache = ResultCache(8, tracker)
        a = canonical_query_key(1, 2, None)
        b = canonical_query_key(3, 4, None)
        for _ in range(5):
            tracker.observe(a)
        tracker.observe(b)
        cache.put(a, 1.0, epoch=1)
        assert tracker.top(2) == [b]
        # Leaving the cache puts the key back at its rank.
        assert cache.get(a, epoch=2) is None
        assert tracker.top(2) == [a, b]

    def test_decay_forgets_old_traffic(self):
        tracker = HotPairTracker(decay=0.5, decay_every=8)
        stale = canonical_query_key(1, 2, None)
        fresh = canonical_query_key(3, 4, None)
        for _ in range(4):
            tracker.observe(stale)
        # 100 observations of fresh trigger many decay rounds; stale's
        # score halves each round and is eventually pruned entirely.
        for _ in range(100):
            tracker.observe(fresh)
        assert tracker.top(2) == [fresh]

    def test_capacity_bound_holds(self):
        tracker = HotPairTracker(capacity=16, decay_every=8)
        for node in range(1000):
            tracker.observe(canonical_query_key(node, 0, None))
        assert len(tracker) <= 16

    @settings(max_examples=200, deadline=None)
    @given(
        # A small key space makes equal scores (ties) the common case.
        observed=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.sampled_from(FAILURE_SPELLINGS),
            ),
            max_size=60,
        ),
        excluded=st.sets(st.integers(0, 15), max_size=16),
        k=st.integers(0, 12),
    )
    def test_top_matches_full_sort_reference(self, observed, excluded, k):
        # No aging inside the sequence: scores are plain counts.
        plain = HotPairTracker(decay_every=10_000)
        tracker = HotPairTracker(decay_every=10_000)
        cache = ResultCache(64, tracker)
        counts: dict = {}

        def observe_all(triples) -> None:
            for source, target, failed in triples:
                key = canonical_query_key(source, target, failed)
                plain.observe(key)
                tracker.observe(key)
                counts[key] = counts.get(key, 0) + 1

        # Cache the excluded keys midway, so that both tracked and
        # untracked keys enter the cache, and both cached and uncached
        # keys are observed after.
        half = len(observed) // 2
        observe_all(observed[:half])
        for key in KEY_SPACE:
            if 4 * key[0] + key[1] in excluded:
                cache.put(key, 1.0, epoch=1)
        observe_all(observed[half:])
        skip = {key for key in counts if 4 * key[0] + key[1] in excluded}
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        survivors = [key for key, _ in ranked if key not in skip]
        assert tracker.top(k) == survivors[:k]
        assert plain.top(k) == [key for key, _ in ranked][:k]
        cache.clear()
        assert tracker.top(k) == [key for key, _ in ranked][:k]


# ----------------------------------------------------------------------
# Leaderboard vs. the scan it replaced
# ----------------------------------------------------------------------
class ReferenceTracker:
    """The scan-based tracker: filter the table, heap-select the top.

    Scores evolve exactly as :class:`HotPairTracker`'s; ``top`` walks
    every tracked key and asks ``exclude`` about each — the selection
    the incremental leaderboard must reproduce.
    """

    def __init__(self, capacity=4096, decay=0.5, decay_every=1024):
        self._capacity = capacity
        self._decay = decay
        self._decay_every = decay_every
        self._scores: dict = {}
        self._observed = 0

    def observe(self, key) -> None:
        self._scores[key] = self._scores.get(key, 0.0) + 1.0
        self._observed += 1
        if self._observed % self._decay_every == 0:
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

    def top(self, k, exclude=None) -> list:
        if k < 1:
            return []
        candidates = [
            (-score, key)
            for key, score in self._scores.items()
            if exclude is None or not exclude(key)
        ]
        return [key for _, key in heapq.nsmallest(k, candidates)]


# Few keys, so that one key is observed, cached and dropped in turn.
_KEYS = st.sampled_from(KEY_SPACE[:6])
_OBSERVE = st.tuples(st.just("observe"), _KEYS)
_PUT = st.tuples(
    st.just("put"), _KEYS,
    st.sampled_from([1.0, 2.5, float("inf"), float("nan")]),
)
_GET = st.tuples(st.just("get"), _KEYS)
# Retirement, clears and aging rebuild the whole leaderboard, hiding a
# lost single update; keep them rarer than the single updates.
_OPERATIONS = st.one_of(
    _OBSERVE, _OBSERVE, _OBSERVE, _PUT, _PUT, _GET, _GET,
    st.tuples(st.just("epoch")),
    st.tuples(st.just("retire")),
    st.tuples(st.just("clear")),
)


class TestLeaderboardDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        operations=st.lists(_OPERATIONS, min_size=40, max_size=200),
        cache_capacity=st.integers(1, 4),
        tracker_capacity=st.integers(1, 8),
        decay_every=st.integers(1, 40),
        k=st.integers(0, 8),
    )
    def test_top_matches_the_scan_after_every_step(
        self, operations, cache_capacity, tracker_capacity, decay_every, k
    ):
        tracker = HotPairTracker(
            capacity=tracker_capacity, decay_every=decay_every
        )
        cache = ResultCache(cache_capacity, tracker)
        reference = ReferenceTracker(
            capacity=tracker_capacity, decay_every=decay_every
        )
        plain = ResultCache(cache_capacity)
        epoch = 1
        for operation in operations:
            kind = operation[0]
            if kind == "observe":
                tracker.observe(operation[1])
                reference.observe(operation[1])
            elif kind == "put":
                assert cache.put(operation[1], operation[2], epoch) == (
                    plain.put(operation[1], operation[2], epoch)
                )
            elif kind == "get":
                # Under a moved epoch this is a stale drop.
                assert cache.get(operation[1], epoch) == plain.get(
                    operation[1], epoch
                )
            elif kind == "epoch":
                epoch += 1
            elif kind == "retire":
                assert cache.retire_older_than(epoch) == (
                    plain.retire_older_than(epoch)
                )
            else:
                cache.clear()
                plain.clear()
            cached = frozenset(plain._entries)
            assert tracker.top(k) == reference.top(k, cached.__contains__)
            assert tracker.top(len(KEY_SPACE)) == reference.top(
                len(KEY_SPACE), cached.__contains__
            )
        # Binding a tracker changes nothing the cache itself does.
        assert cache.stats() == plain.stats()
        assert list(cache._entries.items()) == list(plain._entries.items())

    def test_threads_keep_the_leaderboard_consistent(self):
        tracker = HotPairTracker(decay_every=50)
        cache = ResultCache(4, tracker)
        failures: list = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while time.perf_counter() < deadline:
                    key = rng.choice(KEY_SPACE[:6])
                    roll = rng.random()
                    if roll < 0.5:
                        tracker.observe(key)
                    elif roll < 0.8:
                        cache.put(key, 1.0, epoch=1 + (roll > 0.75))
                    else:
                        cache.get(key, epoch=1)  # epoch-2 entries drop
            except Exception as exc:  # surfaced by the assert below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        deadline = time.perf_counter() + 1.5
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        expected = sorted(
            (-score, key)
            for key, score in tracker._scores.items()
            if key not in cache._entries
        )
        assert tracker.top(len(KEY_SPACE)) == [key for _, key in expected]


# ----------------------------------------------------------------------
# DeadlineAdmission
# ----------------------------------------------------------------------
class TestDeadlineAdmission:
    def test_admits_everything_under_generous_deadline(self):
        admission = DeadlineAdmission(deadline_ms=1000.0, workers=2)
        assert admission.admit(100) == 100
        assert admission.stats()["shed"] == 0

    def test_sheds_beyond_capacity(self):
        admission = DeadlineAdmission(
            deadline_ms=1.0, workers=1, initial_query_us=1000.0
        )
        # Budget 1 ms at 1 ms/query -> capacity 1.
        assert admission.admit(10) == 1
        assert admission.stats()["shed"] == 9

    def test_observe_adapts_the_estimate(self):
        admission = DeadlineAdmission(
            deadline_ms=10.0, workers=1, initial_query_us=1.0
        )
        before = admission.capacity()
        # Evidence: queries actually take 10 ms each, 10000x slower.
        for _ in range(50):
            admission.observe(queries=10, busy_seconds=0.1)
        assert admission.estimated_query_us > 1000.0
        assert admission.capacity() < before

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DeadlineAdmission(deadline_ms=0.0, workers=1)
        with pytest.raises(ValueError):
            DeadlineAdmission(deadline_ms=5.0, workers=0)


# ----------------------------------------------------------------------
# Serving-plane integration: parity, epochs, sheds, precompute
# ----------------------------------------------------------------------
FAMILIES = [
    pytest.param(lambda g: DISO(g, tau=3), id="DISO"),
    pytest.param(lambda g: ADISO(g, tau=3), id="ADISO"),
    pytest.param(lambda g: DISOSparse(g, tau=3), id="DISO-S"),
    pytest.param(lambda g: ADISOPartial(g, tau=3), id="ADISO-P"),
]


@pytest.mark.parametrize("build", FAMILIES)
def test_cached_serving_parity_all_families(build, tmp_path):
    """Cold run, warm run, uncached run: three-way bitwise parity."""
    graph = random_graph(21, n=36, extra=80)
    frozen = build(graph).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    batch = generate_queries(graph, 18, f_gen=3, p=0.01, seed=5)
    # Double the batch so the cold cached run already dedups repeats.
    batch = batch + batch[:9]
    expected = [frozen.query(q.source, q.target, q.failed) for q in batch]
    with make_service(path, workers=2) as plain:
        uncached = plain.run(batch).answers
    with make_service(path, workers=2, cache_size=256) as service:
        cold = service.run(batch)
        warm = service.run(batch)
    assert uncached == expected
    assert cold.answers == expected
    assert warm.answers == expected
    assert cold.cache_hits >= 9  # within-batch duplicates
    assert warm.cache_hits == len(batch)
    assert warm.errors == [None] * len(batch)


def test_swap_snapshot_retires_cached_answers(tmp_path):
    """The falsifiability test: remove epoch invalidation and this
    fails, because the old snapshot's cached answers differ from the
    new snapshot's correct ones."""
    graph_a = random_graph(31, n=30, extra=60)
    # Same node ids and edges, different weights: every key collides,
    # every answer differs.  (Built fresh: ``add_edge`` on an existing
    # edge keeps the minimum weight, so raising weights in a copy is a
    # no-op.)
    from repro.graph.digraph import DiGraph

    graph_b = DiGraph()
    for tail, head, weight in graph_a.edges():
        graph_b.add_edge(tail, head, weight * 3.0 + 1.0)
    frozen_a = DISO(graph_a, tau=3).freeze()
    frozen_b = DISO(graph_b, tau=3).freeze()
    path_a = save_snapshot(frozen_a, tmp_path / "a.dsosnap")
    path_b = save_snapshot(frozen_b, tmp_path / "b.dsosnap")
    batch = generate_queries(graph_a, 12, f_gen=2, p=0.01, seed=9)
    expected_a = [frozen_a.query(q.source, q.target, q.failed) for q in batch]
    expected_b = [frozen_b.query(q.source, q.target, q.failed) for q in batch]
    assert expected_a != expected_b  # the swap must be observable
    with make_service(path_a, workers=2, cache_size=256) as service:
        first = service.run(batch)
        assert first.answers == expected_a
        warm = service.run(batch)
        assert warm.cache_hits == len(batch)
        old_epoch = service.snapshot_epoch
        new_epoch = service.swap_snapshot(path_b)
        assert new_epoch == old_epoch + 1
        after = service.run(batch)
        # Every answer reflects the NEW snapshot; nothing stale leaked.
        assert after.answers == expected_b
        assert after.cache_hits == 0
        # And entries re-cached after the swap carry the new epoch only.
        assert service._front.cache.entry_epochs() <= {new_epoch}


def test_retire_epoch_alone_invalidates_without_restart(tmp_path):
    graph = random_graph(33, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    batch = generate_queries(graph, 10, f_gen=2, p=0.01, seed=3)
    with make_service(path, workers=1, cache_size=64) as service:
        service.run(batch)
        assert len(service._front.cache) > 0
        service.retire_snapshot_epoch()
        assert len(service._front.cache) == 0
        rerun = service.run(batch)
        assert rerun.cache_hits == 0
        assert rerun.errors == [None] * len(batch)


def test_error_answers_are_never_cached(tmp_path):
    graph = random_graph(35, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    poison = (10**9, 0, None)  # node id not in the graph
    with make_service(path, workers=1, cache_size=64) as service:
        first = service.run([poison])
        assert first.error_count == 1
        assert len(service._front.cache) == 0
        # The repeat is a fresh miss that fails again — not a NaN hit.
        second = service.run([poison])
        assert second.error_count == 1
        assert second.cache_hits == 0


def test_deadline_shedding_reports_shed_not_error(tmp_path):
    graph = random_graph(37, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    batch = generate_queries(graph, 16, f_gen=2, p=0.01, seed=7)
    with make_service(
        path, workers=1, deadline_ms=1e-6
    ) as service:  # impossible budget: everything sheds
        report = service.run(batch)
    assert report.shed_count == len(batch)
    assert report.shed_rate == pytest.approx(1.0)
    assert all(math.isnan(answer) for answer in report.answers)
    assert report.error_count == 0
    assert set(report.statuses) == {"shed"}


def test_shed_then_cache_still_consistent(tmp_path):
    """Shed queries must not poison the cache; a later unconstrained
    run answers them correctly."""
    graph = random_graph(39, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    batch = generate_queries(graph, 10, f_gen=2, p=0.01, seed=2)
    expected = [frozen.query(q.source, q.target, q.failed) for q in batch]
    with make_service(
        path, workers=1, cache_size=64,
        deadline_ms=1e-6,
    ) as service:
        shed_run = service.run(batch)
        assert shed_run.shed_count == len(batch)
        assert len(service._front.cache) == 0
        # Lift the deadline: the same service answers everything.
        service._front.admission = None
        full = service.run(batch)
    assert full.answers == expected
    assert full.shed_count == 0


def test_hot_pair_precompute_serves_next_run(tmp_path):
    graph = random_graph(41, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    nodes = sorted(graph.nodes())
    hot_query = (nodes[0], nodes[5], None)
    batch = [hot_query] * 6 + [(nodes[1], nodes[7], None)]
    with make_service(
        path, workers=1, cache_size=64, hot_pairs=4
    ) as service:
        first = service.run(batch)
        # Within-batch dedup: 5 duplicate hot queries hit immediately.
        assert first.cache_hits >= 5
        # Every key in the batch is cached, so the refresh dealt after
        # the run finds nothing uncached to warm.  Warm run: all hits.
        warm = service.run(batch)
        assert warm.cache_hits == len(batch)
        stats = service.cache_stats()
        assert stats is not None and stats["hits"] > 0


def test_refresh_hot_pairs_precomputes_unseen_answers(tmp_path):
    """Drive the tracker directly so refresh targets *uncached* keys,
    then verify hits on them are flagged precomputed."""
    graph = random_graph(43, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    nodes = sorted(graph.nodes())
    failed = frozenset(random_failures_from(graph, 1, 2))
    target_query = (nodes[2], nodes[9], tuple(sorted(failed)))
    expected = frozen.query(nodes[2], nodes[9], failed)
    with make_service(
        path, workers=1, cache_size=64, hot_pairs=2
    ) as service:
        service.start()
        key = canonical_query_key(*target_query)
        for _ in range(8):
            service._front.hot.observe(key)
        stored = service.refresh_hot_pairs()
        assert stored == 1
        assert service.precomputed_total == 1
        report = service.run([target_query])
        assert report.answers == [expected]
        assert report.cache_hits == 1
        assert report.precomputed_hits == 1


def test_refresh_hot_pairs_with_shm_plane(tmp_path):
    """``refresh_hot_pairs`` rides the pool's ring: its chunks stamp the
    refresh slots and send no reply, so the harvest leaves nothing in
    the worker's pipe, and runs before and after keep the same ring."""
    graph = random_graph(44, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    nodes = sorted(graph.nodes())
    target_query = (nodes[3], nodes[11], None)
    expected = frozen.query(nodes[3], nodes[11])
    with make_service(
        path, workers=1, cache_size=64, hot_pairs=2
    ) as service:
        service.start()
        warmup = service.run([(nodes[0], nodes[1], None)])
        assert warmup.result_plane == "shm"
        ring = service._ring
        assert ring is not None  # one ring for the pool's lifetime
        key = canonical_query_key(*target_query)
        for _ in range(8):
            service._front.hot.observe(key)
        stored = service.refresh_hot_pairs()
        assert stored == 1
        assert service.precomputed_total == 1
        # Harvested from its stamp: no completion record is left over.
        assert not service._pool[0].conn.poll(0)
        assert service._ring is ring
        # Pair the precomputed key with a cold query: the cold one
        # dispatches over the shm ring, the hot one is served from the
        # cache and attributed as a precomputed hit.
        cold_query = (nodes[5], nodes[20], None)
        report = service.run([target_query, cold_query])
        assert report.result_plane == "shm"
        assert report.answers[0] == expected
        assert report.answers[1] == frozen.query(nodes[5], nodes[20])
        assert report.cache_hits == 1
        assert report.precomputed_hits == 1
        assert service._ring is ring


def test_stats_accessors_none_when_disabled(tmp_path):
    graph = random_graph(45, n=20, extra=30)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    with make_service(path, workers=1) as service:
        service.run(generate_queries(graph, 4, f_gen=1, p=0.0, seed=1))
        assert service.cache_stats() is None
        assert service.admission_stats() is None


# ----------------------------------------------------------------------
# Off-path refresh: dealt as run() returns, harvested at the next call
# ----------------------------------------------------------------------
def _pending_refresh_setup(tmp_path, seed):
    """A graph, its frozen DISO on disk, a distinct batch, and a hot
    query absent from the batch (so a run's refresh must deal it)."""
    graph = random_graph(seed, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    nodes = sorted(graph.nodes())
    batch = [(nodes[0], nodes[i], None) for i in range(1, 5)]
    hot_query = (nodes[2], nodes[9], None)
    return graph, frozen, path, batch, hot_query


def _make_hot(service, query, times: int = 8) -> None:
    key = canonical_query_key(*query)
    for _ in range(times):
        service._front.hot.observe(key)


def test_pending_refresh_never_outlives_its_snapshot_epoch(tmp_path):
    """A refresh dealt under one snapshot and still pending at a swap
    must never serve (or even leave cached) an answer of the retired
    snapshot: harvested answers carry the epoch they were computed
    under, never the one current at harvest."""
    from repro.graph.digraph import DiGraph

    graph_a, frozen_a, path_a, batch, hot_query = _pending_refresh_setup(
        tmp_path, 51
    )
    graph_b = DiGraph()
    for tail, head, weight in graph_a.edges():
        graph_b.add_edge(tail, head, weight * 3.0 + 1.0)
    frozen_b = DISO(graph_b, tau=3).freeze()
    path_b = save_snapshot(frozen_b, tmp_path / "b.dsosnap")
    queries = batch + [hot_query]
    expected_b = [frozen_b.query(s, t, f) for s, t, f in queries]
    assert expected_b != [frozen_a.query(s, t, f) for s, t, f in queries]
    with make_service(
        path_a, workers=2, cache_size=64, hot_pairs=2
    ) as service:
        _make_hot(service, hot_query)
        service.run(batch)
        assert service._refresh is not None  # dealt, not yet harvested
        retired = service.snapshot_epoch
        new_epoch = service.swap_snapshot(path_b)
        assert retired not in service._front.cache.entry_epochs()
        # The swap harvested the refresh before retiring its epoch.
        assert service.precomputed_total == 1
        report = service.run(queries)
        assert report.answers == expected_b
        assert report.precomputed_hits == 0
        assert retired not in service._front.cache.entry_epochs()
        assert service._front.cache.entry_epochs() <= {new_epoch}


def test_refresh_hang_stays_off_the_request_path(tmp_path):
    """A refresh query that hangs its worker cannot delay the run that
    dealt it; the next run replaces the worker, harvests the answer,
    and serves it as a precomputed hit."""
    _, frozen, path, batch, hot_query = _pending_refresh_setup(tmp_path, 53)
    # The worker's first len(batch) queries are the batch; the next is
    # the refresh's hot query.
    plan = FaultPlan.single("hang", at=len(batch) + 1, worker=0)
    batch_timeout = 1.0
    with make_service(
        path, workers=1, cache_size=64, hot_pairs=1, fault_plan=plan,
        batch_timeout=batch_timeout, ping_timeout=0.5,
    ) as service:
        _make_hot(service, hot_query)
        tick = time.perf_counter()
        first = service.run(batch)
        # Waiting on the refresh would cost at least the batch timeout
        # before the hung worker is even pinged.
        assert time.perf_counter() - tick < batch_timeout
        assert first.errors == [None] * len(batch)
        report = service.run([hot_query])
        assert report.answers == [frozen.query(*hot_query)]
        assert report.precomputed_hits == 1
        assert service.total_restarts == 1


def test_worker_crash_during_pending_refresh(tmp_path):
    _, frozen, path, batch, hot_query = _pending_refresh_setup(tmp_path, 55)
    plan = FaultPlan.single("crash", at=len(batch) + 1, worker=0)
    with make_service(
        path, workers=1, cache_size=64, hot_pairs=1, fault_plan=plan,
    ) as service:
        _make_hot(service, hot_query)
        service.run(batch)
        restarts = service.total_restarts
        queries = [hot_query] + batch
        report = service.run(queries)
        assert report.answers == [frozen.query(*q) for q in queries]
        assert report.precomputed_hits == 1
        assert service.total_restarts == restarts + 1
        assert not any(
            math.isnan(answer)
            for answer, _, _ in service._front.cache._entries.values()
        )


def test_stop_drops_a_pending_refresh(tmp_path, caplog):
    _, _, path, batch, hot_query = _pending_refresh_setup(tmp_path, 57)
    caplog.set_level(logging.INFO, logger=LOGGER)
    with make_service(
        path, workers=1, cache_size=64, hot_pairs=1
    ) as service:
        _make_hot(service, hot_query)
        service.run(batch)
        assert service._refresh is not None
        service.stop()
        assert service.precomputed_total == 0
        assert service.total_restarts == 0
        assert service.cache_stats()["inserts"] == len(batch)
    dropped = [
        record.getMessage() for record in caplog.records
        if "unharvested" in record.getMessage()
    ]
    # One record, from the stop() that dropped it; the context exit's
    # second stop() had nothing left to drop.
    assert dropped == [
        "stop dropped an unharvested hot-pair refresh of 1 keys"
    ]


def test_a_shedding_run_logs_one_record(tmp_path, caplog):
    graph = random_graph(59, n=30, extra=60)
    frozen = DISO(graph, tau=3).freeze()
    path = save_snapshot(frozen, tmp_path / "o.dsosnap")
    batch = generate_queries(graph, 16, f_gen=2, p=0.01, seed=7)
    with make_service(path, workers=1, deadline_ms=1e-6) as service:
        caplog.set_level(logging.INFO, logger=LOGGER)
        report = service.run(batch)
        records = [
            record for record in caplog.records if record.name == LOGGER
        ]
    assert report.shed_count == len(batch)
    # One record for the run, none per query.
    assert [record.getMessage() for record in records] == [
        f"shed {len(batch)} queries, admitted 0 (deadline 1e-06 ms)"
    ]
    assert records[0].levelno == logging.INFO


def test_refresh_deals_the_reference_selection(tmp_path):
    """Every refresh deals what the scan over the tracker and the cache
    would, through LRU evictions and a snapshot swap, so the cache
    counters and the precompute count match the scan's exactly."""
    from repro.graph.digraph import DiGraph

    graph_a = random_graph(61, n=30, extra=60)
    graph_b = DiGraph()
    for tail, head, weight in graph_a.edges():
        graph_b.add_edge(tail, head, weight * 3.0 + 1.0)
    path_a = save_snapshot(DISO(graph_a, tau=3).freeze(), tmp_path / "a")
    path_b = save_snapshot(DISO(graph_b, tau=3).freeze(), tmp_path / "b")
    queries = [
        (query.source, query.target, query.failed)
        for query in generate_zipf_queries(
            graph_a, 160, pool_size=24, variants_per_pair=2, f_gen=1,
            p=0.02, seed=4,
        )
    ]
    batches = [queries[start:start + 4] for start in range(0, 160, 4)]

    def serve(use_reference: bool):
        dealt = []
        with make_service(
            path_a, workers=1, cache_size=8, hot_pairs=3
        ) as service:
            reference = ReferenceTracker()
            tracker = service._front.hot
            observe, top = tracker.observe, tracker.top

            def observe_both(key):
                observe(key)
                reference.observe(key)

            def spy(k):
                cached = frozenset(service._front.cache._entries)
                expected = reference.top(k, cached.__contains__)
                chosen = expected if use_reference else top(k)
                dealt.append((chosen, expected))
                return chosen

            tracker.observe, tracker.top = observe_both, spy
            for number, batch in enumerate(batches):
                if number == len(batches) // 2:
                    service.swap_snapshot(path_b)
                assert service.run(batch).error_count == 0
            return dealt, service.cache_stats(), service.precomputed_total

    dealt, stats, precomputed = serve(use_reference=False)
    assert len(dealt) == len(batches)
    assert all(chosen == expected for chosen, expected in dealt)
    assert sum(len(chosen) for chosen, _ in dealt) > len(batches)
    assert stats["evictions"] > 0 and stats["stale_drops"] > 0
    assert precomputed > 0
    _, reference_stats, reference_precomputed = serve(use_reference=True)
    assert stats == reference_stats
    assert precomputed == reference_precomputed


# ----------------------------------------------------------------------
# One front end for both services
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid_snapshots(tmp_path_factory):
    """A unit grid served whole and cut in two shards.

    Unit weights make float addition exact, so the stitched answers are
    bitwise those of the whole-graph oracle.
    """
    graph = grid_network(5, 5)
    root = tmp_path_factory.mktemp("front")
    whole = save_snapshot(DISO(graph, tau=3).freeze(), root / "whole.dsosnap")
    sharded = save_sharded_snapshot(
        build_sharded(graph, 2, seed=1), root / "sharded"
    )
    return whole, sharded


def _open(sharded: bool, grid_snapshots, **knobs):
    whole, shards = grid_snapshots
    if sharded:
        return ShardedQueryService(shards, **knobs)
    return make_service(whole, **knobs)


BOTH = pytest.mark.parametrize(
    "sharded", [False, True], ids=["QueryService", "ShardedQueryService"]
)


@BOTH
def test_knob_validation(sharded, grid_snapshots):
    workers = "workers_per_shard" if sharded else "workers"
    bad = [
        {workers: 0},
        {"cache_size": -1},
        {"deadline_ms": -2.0},
        {"deadline_ms": 0.0},
    ]
    for knobs in bad:
        with pytest.raises(ValueError):
            _open(sharded, grid_snapshots, **knobs)
    if not sharded:
        with pytest.raises(ValueError):
            _open(sharded, grid_snapshots, hot_pairs=-1, cache_size=4)
        with pytest.raises(ValueError, match="hot_pairs"):
            _open(sharded, grid_snapshots, hot_pairs=4)  # no cache


@pytest.mark.parametrize(
    "knobs", [{"deadline_ms": -2.0}, {"start_method": "bogus"}],
    ids=["deadline", "start-method"],
)
def test_rejected_sharded_service_leaves_no_file_open(knobs, grid_snapshots):
    """A constructor that raises must not keep the manifest mapped: the
    unclosed file would surface as a ResourceWarning, which fails here."""

    def construct() -> None:
        with pytest.raises(ValueError):
            ShardedQueryService(grid_snapshots[1], **knobs)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        construct()  # the traceback and the half-built service die here
        gc.collect()
    leaks = [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning)
    ]
    assert leaks == []


def test_both_services_answer_one_batch_alike(grid_snapshots, caplog):
    """Cache hits, dedup, sheds and errors come out the same whether the
    batch is served whole or stitched from shards."""
    poison = (999, 0, None)
    earlier = [(0, 24, None), (24, 3, ((12, 13),))]
    # Capacity at the starting estimate of 100 us a query: 4 leaders
    # (0.25 ms a worker over 2 workers).  Leaders (1, 20), (5, 19),
    # the poison and (2, 22) are admitted; (7, 17) is the fifth and is
    # shed together with its duplicate.
    batch = [
        earlier[0],
        (1, 20, None), (1, 20, None),
        (5, 19, ((6, 7), (10, 11))),
        poison,
        (2, 22, None),
        (7, 17, None), (7, 17, None),
        earlier[1],
    ]
    caplog.set_level(logging.INFO)
    outcomes = []
    for sharded in (False, True):
        knobs = {"cache_size": 64, "deadline_ms": 0.25}
        if sharded:
            knobs["workers_per_shard"] = 1
        else:
            knobs["workers"] = 2
        with _open(sharded, grid_snapshots, **knobs) as service:
            assert service.workers == 2
            # The earlier run fills the cache; admission sits it out so
            # its busy time does not move the estimate.
            admission = service._front.admission
            service._front.admission = None
            assert service.run(earlier).error_count == 0
            service._front.admission = admission
            caplog.clear()
            report = service.run(batch)
            sheds = [
                record for record in caplog.records
                if record.getMessage().startswith("shed ")
            ]
            outcomes.append((report, service.cache_stats(), sheds))
    (whole, whole_stats, whole_sheds), (split, split_stats, split_sheds) = (
        outcomes
    )

    def bits(answers):
        return [struct.pack("<d", answer) for answer in answers]

    assert bits(split.answers) == bits(whole.answers)
    assert split.errors == whole.errors
    assert split.statuses == whole.statuses == [
        "ok", "ok", "ok", "ok", "error", "ok", "shed", "shed", "ok",
    ]
    assert split.shed_indices == whole.shed_indices == [6, 7]
    assert split.cache_hits == whole.cache_hits == 3
    assert split.precomputed_hits == whole.precomputed_hits == 0
    assert split_stats == whole_stats
    for sheds, name in (
        (whole_sheds, "repro.serving.service"),
        (split_sheds, "repro.serving.sharded"),
    ):
        assert [(r.name, r.levelno, r.getMessage()) for r in sheds] == [
            (name, logging.INFO, "shed 2 queries, admitted 4 (deadline 0.25 ms)")
        ]
