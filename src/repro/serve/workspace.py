"""Reusable per-worker search state for overlay queries.

A scalar :func:`~repro.crp.query.crp_query` allocates a fresh distance
dict, settled set, and heap per call.  At serving rates those allocations
dominate: a :class:`SearchWorkspace` preallocates flat distance/settled
tables once per engine and invalidates them with a version stamp — O(1)
per query instead of O(touched) re-initialization — and reuses one heap
buffer across every query.

Plain Python lists, not NumPy arrays: the query kernels index one element
at a time, where list access returns native ints/floats without the
NumPy-scalar boxing overhead (same reasoning as the cell-local clique
kernel in :mod:`repro.crp.overlay`).
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["SearchWorkspace"]


class SearchWorkspace:
    """Preallocated distance/settled tables plus a reusable heap buffer.

    ``dist[v]`` is only meaningful while ``dist_stamp[v] == clock``;
    bumping the clock invalidates every entry at once.  One workspace
    serves one search at a time (not thread-safe by design — the engine
    that owns it serves one caller at a time).
    """

    __slots__ = ("n", "clock", "dist", "dist_stamp", "done_stamp", "heap", "reuses")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("workspace size must be non-negative")
        self.n = int(n)
        self.clock = 0
        self.dist: List[float] = [0.0] * self.n
        self.dist_stamp: List[int] = [0] * self.n
        self.done_stamp: List[int] = [0] * self.n
        self.heap: List[Tuple[float, int]] = []
        self.reuses = 0  # queries served beyond the first

    def begin_query(self) -> int:
        """Invalidate all state and return the fresh stamp for this query."""
        self.clock += 1
        if self.clock > 1:
            self.reuses += 1
        self.heap.clear()
        return self.clock

    def resize(self, n: int) -> None:
        """Grow the tables to serve a graph of ``n`` vertices (never shrinks;
        called when a structural update adds vertices)."""
        if n > self.n:
            grow = n - self.n
            self.dist.extend([0.0] * grow)
            self.dist_stamp.extend([0] * grow)
            self.done_stamp.extend([0] * grow)
            self.n = n
