"""Landmark selection strategies (Section 5.4 and competitors).

Four selectors are provided, matching the paper's Figure 5 comparison:

* :func:`random_landmarks` — ``RAND``, uniform sampling [33];
* :func:`sls_landmarks` — ``SLS``, the paper's sampling-based greedy
  maximum-coverage method (Section 5.4);
* :func:`max_cover_landmarks` — ``max-cover`` of Goldberg & Werneck
  [33]: greedy coverage over sampled pairs followed by local-search
  swaps;
* :func:`best_cover_landmarks` — ``best-cover`` of Tretyakov et al.
  [11]: greedily pick the nodes lying on the most sampled shortest
  paths.

All selectors are deterministic given a seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.graph.digraph import DiGraph
from repro.pathing.dijkstra import dijkstra, reverse_dijkstra, shortest_path
from repro.pathing.spt import INFINITY


def build_landmarks(
    graph: DiGraph,
    count: int,
    seed: int = 0,
    alpha: float = 0.1,
    landmarks: Sequence[int] | None = None,
) -> list[int]:
    """Resolve the landmark node list an ADISO-family build will use.

    One entry point shared by the ADISO-family constructors, so every
    build resolves the exact same list from the exact same parameters
    and saves the same snapshot bytes.  An explicit ``landmarks`` sequence wins;
    otherwise SLS selection (the paper's default) runs with ``seed`` and
    ``alpha``.
    """
    if landmarks is not None:
        return list(landmarks)
    return sls_landmarks(graph, count, seed=seed, alpha=alpha)


def random_landmarks(graph: DiGraph, count: int, seed: int = 0) -> list[int]:
    """Sample ``count`` distinct landmarks uniformly at random (RAND)."""
    nodes = sorted(graph.nodes())
    if count >= len(nodes):
        return nodes
    rng = random.Random(seed)
    return rng.sample(nodes, count)


def _coverage_sets(
    graph: DiGraph,
    candidates: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    alpha: float,
) -> tuple[list[set[int]], dict[int, float]]:
    """Compute, per candidate, the set of pair indices it alpha-covers.

    A candidate ``w`` covers pair ``(u, v)`` when
    ``d(u, v) - l_w(u, v) <= alpha * d(u, v)`` (Section 5.4), where
    ``l_w`` is the per-landmark triangle bound.  Also returns the true
    pair distances for reuse.
    """
    out_dist: dict[int, dict[int, float]] = {}
    in_dist: dict[int, dict[int, float]] = {}
    for w in candidates:
        out_dist[w], _ = dijkstra(graph, w)
        in_dist[w] = reverse_dijkstra(graph, w)

    pair_distance: dict[int, float] = {}
    for idx, (u, v) in enumerate(pairs):
        # u is always a candidate in SLS, but compute robustly.
        if u in out_dist:
            pair_distance[idx] = out_dist[u].get(v, INFINITY)
        else:
            d, _ = dijkstra(graph, u, target=v)
            pair_distance[idx] = d.get(v, INFINITY)

    covers: list[set[int]] = []
    for w in candidates:
        covered: set[int] = set()
        w_out = out_dist[w]
        w_in = in_dist[w]
        for idx, (u, v) in enumerate(pairs):
            true = pair_distance[idx]
            if true == INFINITY or true == 0.0:
                continue
            bound = 0.0
            du = w_out.get(u)
            dv = w_out.get(v)
            if du is not None and dv is not None and dv - du > bound:
                bound = dv - du
            iu = w_in.get(u)
            iv = w_in.get(v)
            if iu is not None and iv is not None and iu - iv > bound:
                bound = iu - iv
            if true - bound <= alpha * true:
                covered.add(idx)
        covers.append(covered)
    return covers, pair_distance


def _greedy_max_coverage(
    covers: Sequence[set[int]],
    count: int,
) -> list[int]:
    """Greedy maximum coverage: indices of the chosen candidates."""
    chosen: list[int] = []
    covered: set[int] = set()
    remaining = set(range(len(covers)))
    while len(chosen) < count and remaining:
        best_idx = -1
        best_gain = -1
        for idx in sorted(remaining):
            gain = len(covers[idx] - covered)
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
        chosen.append(best_idx)
        covered |= covers[best_idx]
        remaining.discard(best_idx)
    return chosen


def sls_landmarks(
    graph: DiGraph,
    count: int,
    seed: int = 0,
    alpha: float = 0.1,
    sample_nodes: int | None = None,
    sample_pairs: int = 500,
) -> list[int]:
    """SLS: the paper's sampling-based landmark selection (Section 5.4).

    1. Sample ``N1`` nodes uniformly at random (default ``10 * count``,
       the paper's setting).
    2. Compute their outbound/inbound distances.
    3. Sample ``N2`` node pairs among them (default 500, the paper's
       setting).
    4. Greedily pick ``count`` landmarks maximising the number of
       alpha-covered pairs.

    Parameters
    ----------
    alpha:
        Coverage slack: the paper uses 0.1 for road networks and 0.25
        for social networks.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    n1 = sample_nodes if sample_nodes is not None else 10 * count
    n1 = min(n1, len(nodes))
    candidates = rng.sample(nodes, n1)
    pairs: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < sample_pairs and attempts < sample_pairs * 20:
        attempts += 1
        u = candidates[rng.randrange(len(candidates))]
        v = candidates[rng.randrange(len(candidates))]
        if u != v:
            pairs.append((u, v))
    covers, _ = _coverage_sets(graph, candidates, pairs, alpha)
    chosen = _greedy_max_coverage(covers, count)
    return [candidates[idx] for idx in chosen]


def max_cover_landmarks(
    graph: DiGraph,
    count: int,
    seed: int = 0,
    alpha: float = 0.1,
    candidate_factor: int = 4,
    sample_pairs: int = 500,
    swap_rounds: int = 2,
) -> list[int]:
    """max-cover of Goldberg & Werneck [33]: greedy plus local search.

    A candidate pool of ``candidate_factor * count`` random nodes is
    scored by alpha-coverage of sampled pairs; the greedy solution is
    then improved by swap local search (replace a chosen landmark with an
    unchosen candidate whenever total coverage increases), for at most
    ``swap_rounds`` passes.  This reproduces the structure of max-cover:
    the same coverage objective as SLS but a costlier search — which is
    why Figure 5 shows it with much larger preprocessing time.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    pool_size = min(candidate_factor * count, len(nodes))
    candidates = rng.sample(nodes, pool_size)
    pairs: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < sample_pairs and attempts < sample_pairs * 20:
        attempts += 1
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        if u != v:
            pairs.append((u, v))
    covers, _ = _coverage_sets(graph, candidates, pairs, alpha)
    chosen = _greedy_max_coverage(covers, count)
    chosen_set = set(chosen)

    def total_coverage(selection: set[int]) -> int:
        covered: set[int] = set()
        for idx in selection:
            covered |= covers[idx]
        return len(covered)

    current_score = total_coverage(chosen_set)
    for _ in range(swap_rounds):
        improved = False
        for inside in sorted(chosen_set):
            for outside in range(len(candidates)):
                if outside in chosen_set:
                    continue
                trial = (chosen_set - {inside}) | {outside}
                score = total_coverage(trial)
                if score > current_score:
                    chosen_set = trial
                    current_score = score
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return [candidates[idx] for idx in sorted(chosen_set)]


def best_cover_landmarks(
    graph: DiGraph,
    count: int,
    seed: int = 0,
    sample_pairs: int = 500,
) -> list[int]:
    """best-cover of Tretyakov et al. [11].

    Samples node pairs, computes their shortest paths, and greedily picks
    the node lying on the largest number of not-yet-covered paths.  This
    optimises for landmarks *on* shortest paths (where the LCA estimate
    of FDDO is exact) rather than for tight triangle bounds.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    paths: list[set[int]] = []
    attempts = 0
    while len(paths) < sample_pairs and attempts < sample_pairs * 20:
        attempts += 1
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        if u == v:
            continue
        path = shortest_path(graph, u, v)
        if path is None:
            continue
        members = {u}
        for _, head in path:
            members.add(head)
        paths.append(members)

    landmarks: list[int] = []
    uncovered = set(range(len(paths)))
    # Count per node how many uncovered paths it lies on.
    while len(landmarks) < count and uncovered:
        counts: dict[int, int] = {}
        for idx in uncovered:
            for node in paths[idx]:
                counts[node] = counts.get(node, 0) + 1
        if not counts:
            break
        best_node = max(sorted(counts), key=counts.__getitem__)
        landmarks.append(best_node)
        uncovered = {  # dsolint: disable=DSO101 -- set-to-set filter; only membership is read
            idx for idx in uncovered if best_node not in paths[idx]
        }
    # Pad with random nodes when paths ran out before ``count``.
    if len(landmarks) < count:
        pool = [n for n in nodes if n not in set(landmarks)]
        extra = rng.sample(pool, min(count - len(landmarks), len(pool)))
        landmarks.extend(extra)
    return landmarks
