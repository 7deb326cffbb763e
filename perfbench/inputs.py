"""Seeded input generation for the serving benchmark.

Everything a run feeds the serving stack is made here, from the
``--seed`` argument alone, before any timing starts: query traffic,
open-loop request lists and index-update scripts.  The graphs are fixed
per workload (their generator seeds are constants), so a seed selects
traffic, never a different index.

The paper's Section 7.1 query model fails ``f_gen`` *essential* edges
(each a random edge of the current shortest path ``P(s, t, F)``, which
is then recomputed) plus a *random* background where every edge fails
with probability ``p``.  ``repro.workload.generate_queries`` implements
that model with the library's pure-Python Dijkstra, which costs about
25 times the query it generates.  :class:`FailureModel` implements the
same model on SciPy's compiled Dijkstra so that the thousands of
distinct queries a run needs can be made in a few seconds.  It shares
no code with the program under test, so a change to the oracle or the
path search cannot change the inputs.
"""

from __future__ import annotations

import bisect
import math
import random
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Section 7.1 defaults: essential failures per query, background rate.
F_GEN = 5
P_RANDOM = 0.0005
#: Candidate queries per generation task.  The candidate stream is the
#: tasks' output in task order, so it does not depend on how many
#: processes made it.
CHUNK = 400
#: Processes generating Section 7.1 queries (the host has two cores).
JOBS = 2


class FailureModel:
    """The Section 7.1 failure model over one graph.

    Edges are held in a CSR matrix; failing an edge sets its weight to
    infinity for the duration of one query's essential-failure walk,
    which makes it unusable to the search exactly as deleting it would.
    """

    def __init__(self, nodes, weighted_edges) -> None:
        self.nodes = sorted(nodes)
        index = {node: position for position, node in enumerate(self.nodes)}
        edges = sorted(
            (index[tail], index[head], weight)
            for tail, head, weight in weighted_edges
        )
        self.edges = [(self.nodes[tail], self.nodes[head]) for tail, head, _ in edges]
        self._slot = {edge: slot for slot, edge in enumerate(self.edges)}
        self._index = index
        size = len(self.nodes)
        counts = np.bincount([tail for tail, _, _ in edges], minlength=size)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        self._weights = np.array([weight for _, _, weight in edges], dtype=float)
        self._matrix = csr_matrix(
            (
                self._weights.copy(),
                np.array([head for _, head, _ in edges], dtype=np.int32),
                indptr.astype(np.int32),
            ),
            shape=(size, size),
        )

    @classmethod
    def from_graph(cls, graph) -> "FailureModel":
        return cls(graph.nodes(), graph.edges())

    def _path(self, source: int, target: int) -> list[tuple[int, int]]:
        """Edges of one shortest ``source -> target`` path, or ``[]``."""
        source_id = self._index[source]
        target_id = self._index[target]
        distances, parents = dijkstra(
            self._matrix, directed=True, indices=source_id,
            return_predecessors=True,
        )
        if not math.isfinite(distances[target_id]):
            return []
        path = []
        node = target_id
        while node != source_id:
            parent = int(parents[node])
            path.append((self.nodes[parent], self.nodes[node]))
            node = parent
        path.reverse()
        return path

    def distance(self, source: int, target: int, failed) -> float:
        """``d(source, target)`` on G minus ``failed`` (the exact answer)."""
        data = self._matrix.data
        slots = [self._slot[edge] for edge in failed or () if edge in self._slot]
        data[slots] = math.inf
        try:
            distances = dijkstra(
                self._matrix, directed=True, indices=self._index[source]
            )
        finally:
            data[slots] = self._weights[slots]
        return float(distances[self._index[target]])

    def essential(
        self, source: int, target: int, count: int, rng: random.Random
    ) -> list[tuple[int, int]]:
        """Fail up to ``count`` edges, each on the then-current path."""
        data = self._matrix.data
        failed: list[tuple[int, int]] = []
        try:
            for _ in range(count):
                path = self._path(source, target)
                if not path:
                    break
                edge = path[rng.randrange(len(path))]
                failed.append(edge)
                data[self._slot[edge]] = math.inf
        finally:
            for edge in failed:
                slot = self._slot[edge]
                data[slot] = self._weights[slot]
        return failed

    def background(
        self, probability: float, rng: random.Random
    ) -> list[tuple[int, int]]:
        """Each edge fails independently with ``probability``."""
        count = _binomial(len(self.edges), probability, rng)
        return rng.sample(self.edges, count) if count else []

    def failure_set(
        self, source: int, target: int, rng: random.Random,
        f_gen: int = F_GEN, p: float = P_RANDOM,
    ) -> frozenset:
        essential = self.essential(source, target, f_gen, rng)
        return frozenset(essential) | frozenset(self.background(p, rng))

    def pair(self, rng: random.Random) -> tuple[int, int]:
        """A uniform ordered pair of distinct nodes."""
        while True:
            source = self.nodes[rng.randrange(len(self.nodes))]
            target = self.nodes[rng.randrange(len(self.nodes))]
            if source != target:
                return source, target


def _binomial(n: int, p: float, rng: random.Random) -> int:
    """Binomial(n, p) by geometric gap skipping, O(n p) draws."""
    if p <= 0.0 or n <= 0:
        return 0
    log_q = math.log1p(-p)
    count = 0
    position = -1
    while True:
        position += int(math.log(1.0 - rng.random()) / log_q) + 1
        if position >= n:
            return count
        count += 1


def wire(source: int, target: int, failed: frozenset) -> tuple:
    """The ``(s, t, F)`` triple the serving API accepts, F sorted."""
    return (source, target, tuple(sorted(failed)) if failed else None)


def _paper_chunk(nodes, weighted_edges, seed: int, index: int) -> list[tuple]:
    """Task ``index`` of the candidate stream: ``CHUNK`` model queries."""
    model = FailureModel(nodes, weighted_edges)
    rng = random.Random(f"{seed}-paper-{index}")
    queries = []
    for _ in range(CHUNK):
        source, target = model.pair(rng)
        queries.append(wire(source, target, model.failure_set(source, target, rng)))
    return queries


def paper_queries(
    graph, count: int, seed: int, shard_of: dict | None = None,
) -> list[tuple]:
    """``count`` distinct Section 7.1 queries from seeded candidate tasks.

    A candidate repeating an earlier triple is skipped.  With
    ``shard_of`` (node -> shard), a candidate is also skipped when any
    of its per-shard failure subsets occurred before, so a sharded
    service never meets a repaired border matrix it already computed.
    """
    nodes = list(graph.nodes())
    weighted_edges = list(graph.edges())
    seen: set = set()
    seen_shard_sets: set = set()
    queries: list[tuple] = []
    index = 0
    with ProcessPoolExecutor(JOBS, mp_context=get_context("spawn")) as pool:
        while len(queries) < count:
            tasks = max(JOBS, math.ceil(1.1 * (count - len(queries)) / CHUNK))
            futures = [
                pool.submit(_paper_chunk, nodes, weighted_edges, seed, index + task)
                for task in range(tasks)
            ]
            index += tasks
            for future in futures:
                for query in future.result():
                    if len(queries) == count or query in seen:
                        continue
                    if shard_of is not None:
                        subsets = per_shard_failures(query[2], shard_of)
                        if subsets & seen_shard_sets:
                            continue
                        seen_shard_sets |= subsets
                    seen.add(query)
                    queries.append(query)
    return queries


def per_shard_failures(failed, shard_of: dict) -> set[tuple]:
    """``{(shard, sorted F_k)}`` for the non-empty shard-internal parts."""
    owned: dict[int, list] = {}
    for tail, head in failed or ():
        if shard_of[tail] == shard_of[head]:
            owned.setdefault(shard_of[tail], []).append((tail, head))
    return {(shard, tuple(sorted(edges))) for shard, edges in owned.items()}


def zipf_queries(
    model: FailureModel, count: int, rng: random.Random,
    pool_size: int, skew: float = 1.1, variants: int = 3, f_gen: int = 2,
) -> list[tuple]:
    """Zipf-skewed traffic over a bounded pool of recurring triples.

    The model of ``repro.workload.generate_zipf_queries``: ``pool_size``
    distinct pairs ranked by zipf weight ``1 / rank^skew``, each with
    ``variants`` failure sets (the first empty, the rest from the
    Section 7.1 model with ``f_gen`` essential failures), and every
    occurrence of a pair drawing one of its variants uniformly — so
    whole triples recur and a result cache can answer them.
    """
    pairs = {}
    while len(pairs) < pool_size:
        pairs[model.pair(rng)] = None
    pool = [
        [wire(source, target, frozenset())]
        + [
            wire(source, target, model.failure_set(source, target, rng, f_gen=f_gen))
            for _ in range(variants - 1)
        ]
        for source, target in pairs
    ]
    weights = [1.0 / float(rank + 1) ** skew for rank in range(pool_size)]
    total = sum(weights)
    cumulative = list(np.cumsum(weights) / total)
    cumulative[-1] = 1.0
    traffic = []
    for _ in range(count):
        choices = pool[bisect.bisect_left(cumulative, rng.random())]
        traffic.append(choices[rng.randrange(len(choices))])
    return traffic


def weight_updates(
    candidates: list, graph, count: int, edges_per_update: int,
    rng: random.Random, integral: bool = False,
) -> list[list[tuple[int, int, float]]]:
    """``count`` index updates, each re-weighting a few distinct edges
    drawn from ``candidates``.

    Weights are scaled by a factor in [0.5, 2]; ``integral`` keeps
    unit-weight graphs integral (weights 1 to 3), so float sums there
    stay exact.
    """
    updates = []
    for _ in range(count):
        update = []
        for tail, head in rng.sample(candidates, edges_per_update):
            if integral:
                weight = float(rng.randint(1, 3))
            else:
                weight = graph.weight(tail, head) * rng.uniform(0.5, 2.0)
            update.append((tail, head, weight))
        updates.append(update)
    return updates


def chunk(items: list, size: int) -> list[list]:
    return [items[start : start + size] for start in range(0, len(items), size)]
