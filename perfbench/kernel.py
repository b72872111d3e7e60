"""The reference kernel and the bracketed clock that divides timings by it.

The benchmark's host is a shared machine whose speed drifts by up to 2x in
episodes lasting from under a second to longer than a whole run.  Raw wall
times therefore drift too, but the ratio of an operation's wall time to the
time of a fixed unit of similar work, measured right before and right after
it, stays put.  :func:`reference_kernel` is that unit: interpreter-bound
dict / heap / ``sorted`` work plus small NumPy gathers, ``cumsum`` and
``unique`` calls, the same mix the partitioner spends its time on.  It
imports nothing from ``repro``, so no change to the program can move it.

:class:`Clock` reports a normalized time as
``op_wall / kernel_wall * kernel_nominal``: the value reads as the
operation's duration on a machine where the kernel takes
``kernel_nominal`` seconds.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

_SIDE = 18  # grid side of the kernel's private graph
_SOURCES = (0, 37, 77, 120, 161, 205, 250, 290, 323)
_state: dict = {}


def _kernel_inputs() -> dict:
    """Fixed inputs, built once per process (a pure function of constants)."""
    if _state:
        return _state
    n = _SIDE * _SIDE
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    x = 12345
    for r in range(_SIDE):
        for c in range(_SIDE):
            v = r * _SIDE + c
            for u in ((v + 1) if c + 1 < _SIDE else -1, (v + _SIDE) if r + 1 < _SIDE else -1):
                if u < 0:
                    continue
                x = (1103515245 * x + 12345) % 2147483648
                w = 1 + x % 9
                adj[v].append((u, w))
                adj[u].append((v, w))
    keys = np.arange(4096, dtype=np.int64)
    perm = (keys * 2654435761) % 4096
    _state.update(adj=adj, n=n, vals=(perm % 97).astype(np.int64), idx=perm)
    return _state


def reference_kernel() -> int:
    """One fixed unit of work (about 10 ms); returns a checksum."""
    st = _kernel_inputs()
    adj, n = st["adj"], st["n"]
    check = 0
    for src in _SOURCES:
        dist = {src: 0}
        done = set()
        heap = [(0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for u, w in adj[v]:
                nd = d + w
                if nd < dist.get(u, 1 << 60):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        order = sorted(dist.items(), key=lambda kv: (kv[1], kv[0]))
        check += order[-1][1] + len(order)
    vals, idx = st["vals"], st["idx"]
    for k in range(1, 65):
        sub = vals[idx[: 64 * k]]
        check += int(np.cumsum(sub)[-1]) + len(np.unique(sub))
    return check + n


def time_kernel() -> float:
    """Wall seconds of one :func:`reference_kernel` call."""
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class Clock:
    """Times work between two reference-kernel samples.

    ``timed(fn)`` returns ``(result, raw_seconds, normalized_seconds)``.  The
    kernel sample taken after one piece of work doubles as the sample before
    the next when nothing ran in between, which halves the kernel's cost;
    any gap longer than ``max_gap`` seconds gets a fresh sample.  The
    normalized time divides by the mean of the two samples around the work.
    """

    max_gap = 0.02

    def __init__(self, nominal_s: float) -> None:
        self.nominal = nominal_s
        self.samples: List[float] = []
        self._last = 0.0
        self._last_end = -1e9

    def _sample(self) -> float:
        k = time_kernel()
        self.samples.append(k)
        self._last = k
        self._last_end = perf_counter()
        return k

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        if perf_counter() - self._last_end > self.max_gap:
            self._sample()
        k0 = self._last
        t0 = perf_counter()
        out = fn()
        raw = perf_counter() - t0
        k1 = self._sample()
        return out, raw, raw / (0.5 * (k0 + k1)) * self.nominal

    def kernel_stats(self) -> dict:
        """Raw kernel median and minimum in ms (diagnostics)."""
        s = self.samples or [0.0]
        return {
            "kernel_raw_median_ms": statistics.median(s) * 1e3,
            "kernel_raw_min_ms": min(s) * 1e3,
            "kernel_samples": len(self.samples),
        }
