"""Low-overhead phase-timer registry (spans + counters).

Every phase of a PUNCH run (tiny cuts, natural-cut collection/solving,
greedy, local search, rebalancing, ...) wraps its work in
``profiler.span("name")``.  The active profiler is process-global and
*disabled by default*: a disabled span is a single attribute check plus a
no-op context manager, so instrumented code pays effectively nothing until
``--profile`` (or a benchmark) turns it on.

Spans nest freely and aggregate by name: each records cumulative wall and
CPU (process) time plus a call count.  ``counters`` accumulate arbitrary
integer events (cache hits, subproblems solved, ...).  ``export()`` returns
a plain dict ready for JSON (this is what ``BENCH_hotpaths.json`` and the
``--profile`` breakdown are built from).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = [
    "PhaseProfiler",
    "get_profiler",
    "set_profiler",
    "profile_span",
    "profile_count",
    "span_delta",
    "counter_delta",
]


def span_delta(before: Dict[str, tuple], after: Dict[str, tuple]) -> Dict[str, tuple]:
    """Per-span increments between two :meth:`PhaseProfiler.snapshot` calls.

    Pool workers use this to report only the spans of the current task,
    even though the worker-global profiler accumulates across tasks.
    """
    out: Dict[str, tuple] = {}
    for name, (wall, cpu, calls) in after.items():
        w0, c0, k0 = before.get(name, (0.0, 0.0, 0))
        if calls > k0:
            out[name] = (wall - w0, cpu - c0, calls - k0)
    return out


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Per-counter increments between two copies of ``PhaseProfiler.counters``."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


class PhaseProfiler:
    """Aggregating span/counter registry; see the module docstring."""

    __slots__ = ("enabled", "spans", "counters")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        # name -> [wall_seconds, cpu_seconds, calls]
        self.spans: Dict[str, list] = {}
        self.counters: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a phase; aggregates wall/CPU time and call count by name."""
        if not self.enabled:
            yield
            return
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            rec = self.spans.get(name)
            if rec is None:
                self.spans[name] = [wall, cpu, 1]
            else:
                rec[0] += wall
                rec[1] += cpu
                rec[2] += 1

    def count(self, name: str, inc: int = 1) -> None:
        """Bump an event counter (no-op while disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + inc

    def reset(self) -> None:
        """Drop all recorded spans and counters."""
        self.spans.clear()
        self.counters.clear()

    def snapshot(self) -> Dict[str, tuple]:
        """Immutable copy of the span table, for :func:`span_delta`."""
        return {name: (rec[0], rec[1], rec[2]) for name, rec in self.spans.items()}

    def merge(self, spans: Dict[str, tuple], counters: Dict[str, int]) -> None:
        """Fold span and counter deltas from another profiler (e.g. a pool worker) in.

        ``spans`` maps name -> ``(wall_s, cpu_s, calls)`` increments, the
        shape produced by :func:`span_delta`; ``counters`` maps name ->
        increment, the shape produced by :func:`counter_delta`.  Merging is
        additive, so the parent's report covers work done in worker
        processes too.
        """
        for name, inc in counters.items():
            self.counters[name] = self.counters.get(name, 0) + inc
        for name, (wall, cpu, calls) in spans.items():
            rec = self.spans.get(name)
            if rec is None:
                self.spans[name] = [wall, cpu, calls]
            else:
                rec[0] += wall
                rec[1] += cpu
                rec[2] += calls

    def export(self) -> dict:
        """JSON-ready snapshot: per-span wall/CPU/calls plus counters."""
        return {
            "spans": {
                name: {"wall_s": rec[0], "cpu_s": rec[1], "calls": rec[2]}
                for name, rec in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def report(self) -> str:
        """Human-readable phase breakdown (the ``--profile`` output)."""
        if not self.spans and not self.counters:
            return "profile: no spans recorded"
        lines = ["phase breakdown (wall s / cpu s / calls):"]
        width = max((len(n) for n in self.spans), default=0)
        for name, (wall, cpu, calls) in sorted(
            self.spans.items(), key=lambda kv: -kv[1][0]
        ):
            lines.append(f"  {name:<{width}}  {wall:9.3f}  {cpu:9.3f}  {calls:7d}")
        if self.counters:
            lines.append("counters:")
            cw = max(len(n) for n in self.counters)
            for name, v in sorted(self.counters.items()):
                lines.append(f"  {name:<{cw}}  {v}")
        return "\n".join(lines)


#: the process-global profiler; disabled (and therefore near-free) by default
_ACTIVE = PhaseProfiler(enabled=False)


def get_profiler() -> PhaseProfiler:
    """The process-global profiler instrumented code reports into."""
    return _ACTIVE


def set_profiler(profiler: PhaseProfiler) -> PhaseProfiler:
    """Swap the process-global profiler; returns the previous one."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = profiler
    return prev


def profile_span(name: str):
    """``get_profiler().span(name)`` — the form instrumented code uses."""
    return _ACTIVE.span(name)


def profile_count(name: str, inc: int = 1) -> None:
    """``get_profiler().count(name, inc)`` without the attribute dance."""
    _ACTIVE.count(name, inc)
