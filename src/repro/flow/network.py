"""Flow-network representation for s-t min-cut subproblems.

Natural-cut detection solves many small min-cut instances (paper Fig. 1):
the BFS tree with its core contracted to ``s`` and its ring contracted to
``t``, edge weights as capacities.  This module provides the arc-array
representation shared by all solvers.

Arcs are stored in pairs: arc ``2e`` is ``u -> v`` and arc ``2e + 1`` is
``v -> u`` for the ``e``-th undirected edge, so ``rev(a) == a ^ 1``.  Both
directions carry the full undirected capacity, which makes the directed
max-flow value equal the undirected min-cut weight.

:func:`source_maximal_side` is the one cut-side extractor every solver ends
with: whichever maximum flow (or, for push-relabel, maximum preflow) a
solver found, it returns the source side of the source-maximal minimum cut,
which is unique, so all solvers agree bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlowNetwork", "source_maximal_side"]

#: relative residual capacity below which an arc counts as saturated
_RESIDUE = 1e-12


class FlowNetwork:
    """Directed residual network built from undirected capacitated edges."""

    __slots__ = ("n", "n_arcs", "arc_to", "arc_cap", "adj_start", "adj_arcs")

    def __init__(self, n: int, edge_u, edge_v, cap) -> None:
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        cap = np.asarray(cap, dtype=np.float64)
        m = len(edge_u)
        self.n = int(n)
        self.n_arcs = 2 * m
        self.arc_to = np.empty(2 * m, dtype=np.int64)
        self.arc_to[0::2] = edge_v
        self.arc_to[1::2] = edge_u
        self.arc_cap = np.empty(2 * m, dtype=np.float64)
        self.arc_cap[0::2] = cap
        self.arc_cap[1::2] = cap

        tails = np.empty(2 * m, dtype=np.int64)
        tails[0::2] = edge_u
        tails[1::2] = edge_v
        order = np.argsort(tails, kind="stable")
        self.adj_arcs = order.astype(np.int64)
        counts = np.bincount(tails, minlength=n)
        self.adj_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.adj_start[1:])

    def arcs_of(self, v: int) -> np.ndarray:
        """Arc ids leaving vertex ``v``."""
        return self.adj_arcs[self.adj_start[v] : self.adj_start[v + 1]]

    @staticmethod
    def rev(a: int) -> int:
        """The paired reverse arc (``a ^ 1``)."""
        return a ^ 1

    def edge_of_arc(self, a: int) -> int:
        """The undirected edge index an arc belongs to."""
        return a >> 1


def source_maximal_side(net: FlowNetwork, flow: np.ndarray, s: int, t: int) -> np.ndarray:
    """Source side of the source-maximal minimum s-t cut under a maximum (pre)flow.

    The backward residual search from ``t``: a vertex is on the sink side
    iff it can reach ``t`` along arcs with residual capacity.  That set is
    the same for every maximum flow and every maximum preflow, so the mask
    does not depend on which solver produced ``flow``.  A residual below
    ``1e-12`` of the arc's capacity counts as none: it is the float rounding
    a saturating push can leave on non-integral capacities (on integral ones
    every residual is 0 or at least 1).
    """
    order = net.adj_arcs
    # row w at position k holds arc w -> u; u reaches w iff the reverse arc
    # u -> w (a ^ 1) has residual capacity
    cap = net.arc_cap
    opens = ((cap - flow) > _RESIDUE * cap)[order ^ 1].tolist()
    heads = net.arc_to[order].tolist()
    start = net.adj_start.tolist()
    reaches_t = [False] * net.n
    reaches_t[t] = True
    stack = [t]
    while stack:
        w = stack.pop()
        for k in range(start[w], start[w + 1]):
            if opens[k] and not reaches_t[heads[k]]:
                reaches_t[heads[k]] = True
                stack.append(heads[k])
    side = ~np.asarray(reaches_t, dtype=bool)
    side[s] = True
    return side
