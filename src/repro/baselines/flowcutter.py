"""FlowCutter bisection and recursive k-way partitioning (Hamann & Strasser).

FlowCutter is, besides Inertial Flow, the main open alternative to PUNCH
for road-network partitioning (see the reproduction notes in DESIGN.md).
Its core idea — one incremental s-t max flow, *pierced* on its lighter
side whenever the current min cut is too unbalanced — is the Pareto front
of :func:`repro.flow.pareto.pareto_front`.  This module adds what the
baseline needs on top: the terminal choice, the pick of one front point
(the cheapest cut meeting the balance goal), and the recursion into ``k``
cells.  Balance is measured in vertex size, and piercing is random.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..flow.network import FlowNetwork
from ..flow.pareto import pareto_front
from ..graph.graph import Graph
from ..graph.subgraph import induced_subgraph

__all__ = ["flowcutter_bisect", "flowcutter_partition"]


def flowcutter_bisect(
    g: Graph,
    s: Optional[int] = None,
    t: Optional[int] = None,
    balance_goal: float = 0.33,
    rng: np.random.Generator | None = None,
) -> Tuple[np.ndarray, float]:
    """Bisect ``g``; returns ``(side_mask, cut_weight)``.

    Returns the cheapest front cut whose smaller side carries at least
    ``balance_goal`` of the total vertex size, or the most balanced cut
    found when none does.
    """
    rng = np.random.default_rng() if rng is None else rng
    n = g.n
    if n < 2:
        return np.zeros(n, dtype=bool), 0.0
    if s is None or t is None:
        # distant random pair: use coordinates when present, else BFS depth
        if g.coords is not None:
            proj = g.coords @ rng.standard_normal(2)
            s = int(np.argmin(proj))
            t = int(np.argmax(proj))
        else:
            s = int(rng.integers(n))
            from ..graph.traversal import bfs_order

            t = int(bfs_order(g, s)[-1])
    if s == t:
        t = (s + 1) % n

    net = FlowNetwork(n, g.edge_u, g.edge_v, g.ewgt)
    front = pareto_front(net, s, t, g.vsize, balance_goal, rng)
    # sorted by balance with capacity increasing: the first point meeting
    # the goal is the cheapest one, the last point the most balanced
    best = next((p for p in front if p.balance >= balance_goal), front[-1])
    return best.side, best.value


def flowcutter_partition(
    g: Graph,
    k: int,
    balance_goal: float = 0.33,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Recursive FlowCutter bisection into ``k`` cells; returns labels."""
    rng = np.random.default_rng() if rng is None else rng
    labels = np.zeros(g.n, dtype=np.int64)
    next_label = [1]

    def recurse(vertices: np.ndarray, kk: int) -> None:
        if kk <= 1 or len(vertices) <= 1:
            return
        sub, sub_to_g, _ = induced_subgraph(g, vertices)
        mask, _ = flowcutter_bisect(sub, balance_goal=balance_goal, rng=rng)
        if not mask.any() or mask.all():
            return
        left = sub_to_g[mask]
        right = sub_to_g[~mask]
        new_label = next_label[0]
        next_label[0] += 1
        labels[right] = new_label
        recurse(left, kk // 2)
        recurse(right, kk - kk // 2)

    recurse(np.arange(g.n, dtype=np.int64), k)
    return labels
