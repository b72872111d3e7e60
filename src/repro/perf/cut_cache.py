"""Memoization of contracted min-cut subproblems.

Natural-cut detection and local-search refinement repeatedly solve small
s-t min-cut instances, and many of them coincide: BFS regions grown from
nearby centers often contract to the *same* flow network (identical core /
ring structure), and multistart assembly re-derives identical subproblems
across restarts.  :class:`CutCache` keys on
:meth:`~repro.filtering.cut_problem.CutProblem.fingerprint` — a canonical
digest of the merged network — and stores the ``(value, source_side)`` pair,
which is everything a solve produces that downstream code consumes (the cut
*edges* are recovered per problem from the side mask, since candidate edge
ids differ between problems that share a network).

Equal fingerprints imply identical networks (``np.unique`` canonicalizes the
merged edge list), so a hit returns bit-identical results to a fresh solve:
caching can never change a partition, only skip redundant flow computations.
The cache is bounded (FIFO eviction) and keeps hit/miss counters that
filtering surfaces through ``FilterResult``/``PunchResult.run_report()``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

__all__ = ["CutCache"]


class CutCache:
    """Bounded fingerprint -> ``(cut_value, source_side)`` store."""

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_store")

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: OrderedDict[bytes, Tuple[float, np.ndarray]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: bytes) -> Optional[Tuple[float, np.ndarray]]:
        """Look up a solved network; counts a hit or a miss."""
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: bytes, value: float, source_side: np.ndarray) -> None:
        """Store a solve result, evicting the oldest entry when full."""
        if key in self._store:
            return
        if len(self._store) >= self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1
        # copy + freeze: the mask is shared between cache and callers
        side = source_side.copy()
        side.setflags(write=False)
        self._store[key] = (value, side)

    def counters(self) -> Tuple[int, int]:
        """Current ``(hits, misses)``; the incremental updater diffs two
        calls of this to report each update's share of its long-lived
        cache."""
        return self.hits, self.misses

    def shrink(self, max_entries: int) -> int:
        """Cap the cache at ``max_entries``, evicting oldest entries first.

        The memory-pressure hook (supervised runs and
        :class:`~repro.runtime.chaos.ChaosPlan` injection): lowering the cap
        evicts immediately and future :meth:`put` calls respect the new
        bound.  Safe by construction — hits are bit-identical to fresh
        solves, so shrinking can change only speed, never partitions.
        Returns the number of entries evicted.
        """
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        evicted = 0
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def stats(self) -> dict:
        """Counters for run reports: hits, misses, entries, hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._store),
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def clear(self) -> None:
        """Drop all entries and reset counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
