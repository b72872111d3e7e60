"""FlowCutter's Pareto front of (cut capacity, balance) (Hamann & Strasser).

*Graph Bisection with Pareto-Optimization* observes that one incremental
max-flow computation certifies a whole **front** of cuts trading cut
capacity against balance: start from the terminals, saturate the flow,
read off the two canonical minimum cuts (the source-reachable side and the
complement of the sink-reachable side), then *pierce* — move one vertex
just beyond the lighter side's cut into that side's terminal set — and
resume augmenting.  Each piercing step can only increase the flow, so the
cuts have nondecreasing capacity along the balance axis, and the first
front point is a minimum s-t cut.

:func:`pareto_front` is the one implementation of that loop; the FlowCutter
baseline partitioner (:mod:`repro.baselines.flowcutter`) runs it on whole
graphs with vertex sizes as weights and random piercing.

The augmentation is BFS-based (Edmonds-Karp style) and incremental: the
flow is kept and extended across piercing steps instead of recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .network import FlowNetwork

__all__ = ["ParetoPoint", "pareto_front"]


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """One front point: a cut's capacity, its source side and its balance."""

    value: float  # total capacity crossing the cut
    side: np.ndarray  # bool mask over vertices; True = source side
    source_size: float  # summed vertex weight of the source side
    total_size: float  # summed vertex weight of the network

    @property
    def small_side(self) -> float:
        """Weight of the lighter side (the balance numerator)."""
        return min(self.source_size, self.total_size - self.source_size)

    @property
    def balance(self) -> float:
        """``small_side / total_size`` in ``[0, 0.5]``; higher is more balanced."""
        return self.small_side / self.total_size


def pareto_front(
    net: FlowNetwork,
    source: int,
    sink: int,
    weights: np.ndarray,
    balance_goal: float,
    rng: np.random.Generator,
) -> List[ParetoPoint]:
    """The nondominated (capacity, balance) front of ``source``-``sink`` cuts.

    Balance is measured in ``weights`` (one per vertex).  Enumeration stops
    at the first point whose lighter side carries ``balance_goal`` of the
    total weight, or when the lighter side has nothing left to pierce.  The
    piercing vertex is a neighbor of the lighter side that preferably opens
    no augmenting path; ``rng`` draws it with probability proportional to
    its arcs into that side.

    Returns the front sorted by balance, with capacity strictly increasing;
    the cheapest point is a minimum s-t cut.
    """
    n = net.n
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    arc_from = _reversed_pairs(net.arc_to)  # the tail of arc a is the head of a ^ 1
    flow = np.zeros(net.n_arcs, dtype=np.float64)
    in_s = np.zeros(n, dtype=bool)
    in_t = np.zeros(n, dtype=bool)
    in_s[source] = True
    in_t[sink] = True

    points: List[ParetoPoint] = []
    value = 0.0
    # every piercing step moves >= 1 vertex into a terminal set
    for _ in range(n):
        value += _augment(net, flow, in_s, in_t)
        residual = net.arc_cap - flow > 0
        source_reach = _bfs(net, residual, in_s)[0]
        sink_reach = _bfs(net, _reversed_pairs(residual), in_t)[0]
        # max-flow certificate: the two canonical min cuts for (S, T)
        for side in (source_reach, ~sink_reach):
            points.append(ParetoPoint(value, side, float(weights[side].sum()), total))
            if points[-1].balance >= balance_goal:
                return _prune_dominated(points)
        # pierce the lighter side, avoiding the other side's reachable set
        if weights[source_reach].sum() <= weights[sink_reach].sum():
            pierce = _pick_pierce(net, arc_from, source_reach, in_t, sink_reach, rng)
            if pierce < 0:
                break
            in_s = source_reach.copy()
            in_s[pierce] = True
        else:
            pierce = _pick_pierce(net, arc_from, sink_reach, in_s, source_reach, rng)
            if pierce < 0:
                break
            in_t = sink_reach.copy()
            in_t[pierce] = True
    return _prune_dominated(points)


def _augment(
    net: FlowNetwork, flow: np.ndarray, in_s: np.ndarray, in_t: np.ndarray
) -> float:
    """Saturate the flow between the S and T vertex sets (BFS augmenting).

    Incremental: existing flow is kept and extended.  Returns the capacity
    added.
    """
    added = 0.0
    while True:
        _, parent_arc, v = _bfs(net, net.arc_cap - flow > 0, in_s, stop=in_t)
        if v < 0:
            return added
        path = []
        while not in_s[v]:
            a = int(parent_arc[v])
            path.append(a)
            v = int(net.arc_to[a ^ 1])
        arcs = np.asarray(path)
        bottleneck = float((net.arc_cap[arcs] - flow[arcs]).min())
        flow[arcs] += bottleneck
        flow[arcs ^ 1] -= bottleneck
        added += bottleneck


def _bfs(
    net: FlowNetwork,
    open_arcs: np.ndarray,
    start: np.ndarray,
    stop: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """BFS from the ``start`` set along the arcs marked in ``open_arcs``.

    Returns ``(seen, parent_arc, hit)``: the vertices reached, the arc each
    was reached by, and the first vertex of ``stop`` reached (the search
    ends there), or ``-1``.  Deterministic — the queue is seeded with
    ``start`` in ascending vertex order and arcs are scanned in adjacency
    order.  With the residual arcs as ``open_arcs`` the reached set is the
    source side's reach; with each arc marked by its reverse's residual
    (``open[a ^ 1]``) it is the set of vertices that can reach ``start``,
    the sink side's reach.
    """
    adj_start, adj_arcs, arc_to = net.adj_start, net.adj_arcs, net.arc_to
    seen = start.copy()
    parent_arc = np.full(net.n, -1, dtype=np.int64)
    queue: List[int] = [int(v) for v in np.flatnonzero(start)]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for a in adj_arcs[adj_start[u] : adj_start[u + 1]]:
            if not open_arcs[a]:
                continue
            w = int(arc_to[a])
            if seen[w]:
                continue
            seen[w] = True
            parent_arc[w] = a
            if stop is not None and stop[w]:
                return seen, parent_arc, w
            queue.append(w)
    return seen, parent_arc, -1


def _reversed_pairs(arc_values: np.ndarray) -> np.ndarray:
    """``out[a] = arc_values[a ^ 1]``: each arc's value moved to its reverse."""
    return arc_values.reshape(-1, 2)[:, ::-1].ravel()


def _pick_pierce(
    net: FlowNetwork,
    arc_from: np.ndarray,
    side: np.ndarray,
    forbidden: np.ndarray,
    avoid: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Choose the piercing vertex: the head of an arc leaving ``side``.

    Preference order (FlowCutter's "avoid augmenting paths" heuristic):
    heads outside ``avoid`` (the other side's reachable set) first, then
    any head; within a class ``rng`` draws one leaving arc uniformly.
    ``forbidden`` (the other terminal set) is never pierced.  Returns ``-1``
    when no candidate exists.
    """
    head = net.arc_to
    candidates = head[side[arc_from] & ~side[head] & ~forbidden[head]]
    if len(candidates) == 0:
        return -1
    preferred = candidates[~avoid[candidates]]
    pool = preferred if len(preferred) else candidates
    return int(pool[rng.integers(len(pool))])


def _prune_dominated(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """Keep the nondominated front, one point per lighter-side weight.

    A point dominates another when its capacity is no larger and its
    balance no smaller.  The survivors, sorted by balance, have strictly
    increasing capacity.
    """
    best_by_size: dict[float, ParetoPoint] = {}
    for p in points:
        cur = best_by_size.get(p.small_side)
        if cur is None or p.value < cur.value:
            best_by_size[p.small_side] = p
    # a point survives only if strictly cheaper than every more balanced
    # point, so capacity strictly increases along the balance axis
    kept: List[ParetoPoint] = []
    for size in sorted(best_by_size, reverse=True):  # most balanced first
        p = best_by_size[size]
        if not kept or p.value < kept[-1].value:
            kept.append(p)
    return list(reversed(kept))
