"""Multi-level CRP: queries over a nested partition hierarchy.

Production CRP uses several nested partition levels (e.g. cells of 2^8
inside 2^12 inside 2^16 ...): a query climbs to the coarsest level whose
cell contains neither endpoint, so far-away regions are traversed with a
handful of giant overlay arcs while the endpoint neighborhoods are searched
at street level.

Level numbering here: level 0 is the input graph; level ``i >= 1`` is the
:class:`~repro.crp.overlay.Overlay` of ``nested.levels[i - 1]``.  When the
search scans vertex ``v`` it relaxes the arcs of the *query level*

    l(v) = max { i : the level-(i-1) cell of v contains neither s nor t }

(0 if even v's finest cell contains s or t).  Nesting makes this sound: a
graph edge entering a foreign cell at level i-1 is a cut edge of every
finer level too, so any vertex ever reached at query level i is a boundary
vertex of partition i-1 and owns overlay-i arcs.  Exactness is verified in
``tests/test_crp_multilevel.py`` against plain Dijkstra.

This module is the reference for the multi-level variant (used by
``examples/metric_customization.py``); the serving engine
(:mod:`repro.serve`) runs the two-level overlay only.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Tuple

import numpy as np

from ..core.nested import NestedPartition
from .overlay import Overlay, build_overlay

__all__ = [
    "MultiLevelOverlay",
    "build_multilevel_overlay",
    "ml_query",
]


@dataclass
class MultiLevelOverlay:
    """Overlays for every level of a nested partition."""

    nested: NestedPartition
    overlays: List[Overlay]  # overlays[i] belongs to nested.levels[i]

    @property
    def graph(self):
        """The underlying input graph."""
        return self.nested.graph

    def total_clique_edges(self) -> int:
        """Clique edges summed over all levels (preprocessing space)."""
        return sum(o.clique_edges for o in self.overlays)


def build_multilevel_overlay(nested: NestedPartition) -> MultiLevelOverlay:
    """Build one overlay per nesting level (finest first; vectorized)."""
    return MultiLevelOverlay(
        nested=nested, overlays=[build_overlay(p) for p in nested.levels]
    )


def ml_query(mlo: MultiLevelOverlay, s: int, t: int) -> Tuple[float, int]:
    """Exact multi-level CRP query; returns ``(distance, settled_count)``."""
    g = mlo.graph
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"query endpoints ({s}, {t}) out of range for n={g.n}")
    levels = mlo.nested.levels
    L = len(levels)
    # per level: does each cell contain s or t?
    s_cell = [int(p.labels[s]) for p in levels]
    t_cell = [int(p.labels[t]) for p in levels]

    label_arrays = [p.labels for p in levels]

    def query_level(v: int) -> int:
        lvl = 0
        for i in range(L, 0, -1):  # coarsest first
            c = int(label_arrays[i - 1][v])
            if c != s_cell[i - 1] and c != t_cell[i - 1]:
                return i
        return 0

    xadj, adjncy = g.xadj, g.adjncy
    wgt = g.half_edge_weights()
    dist = {s: 0.0}
    settled = set()
    heap: list = [(0.0, s)]
    while heap:
        d, v = heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == t:
            return d, len(settled)
        lvl = query_level(v)
        if lvl == 0:
            lo, hi = xadj[v], xadj[v + 1]
            for u, w in zip(adjncy[lo:hi], wgt[lo:hi]):
                u = int(u)
                nd = d + float(w)
                if nd < dist.get(u, np.inf):
                    dist[u] = nd
                    heappush(heap, (nd, u))
        else:
            for u, w in mlo.overlays[lvl - 1].adj.get(v, ()):
                nd = d + w
                if nd < dist.get(u, np.inf):
                    dist[u] = nd
                    heappush(heap, (nd, u))
    return float("inf"), len(settled)
