"""Picklable task bodies dispatched onto the worker pool.

Every function here is module-level (process pools pickle by qualified
name), and a task carries its inputs by value: natural-cut batches carry
their :class:`~repro.filtering.cut_problem.CutProblem` instances, and the
assembly tasks get the (already contracted) fragment graph through
``functools.partial`` — exactly what an inline run passes.

Each task returns its payload plus ``stats``, the worker-local telemetry
deltas (:class:`PhaseProfiler` span and counter deltas, local-search
counters) that the driver merges back into the parent run report via
:meth:`~.pool.ParallelRuntime.note_batch`.  Profiler deltas are only
reported from real pool workers (``in_worker()``); inline the work already
runs in the driver process, where the global profiler records it
directly, and reporting deltas would double-count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..perf.timers import counter_delta, get_profiler, profile_span, span_delta
from ..runtime.faults import FaultPlan
from .pool import in_worker

__all__ = [
    "solve_cut_batch",
    "run_start_task",
    "combine_iteration_task",
]


class _TaskStats:
    """Collects one task's telemetry deltas into a plain picklable dict."""

    def __init__(self) -> None:
        self._prof = get_profiler()
        self._track = in_worker() and self._prof.enabled
        if self._track:
            self._spans = self._prof.snapshot()
            self._counters = dict(self._prof.counters)
        self.out: dict = {}

    def finish(self) -> dict:
        if self._track:
            spans = span_delta(self._spans, self._prof.snapshot())
            if spans:
                self.out["spans"] = spans
            counters = counter_delta(self._counters, self._prof.counters)
            if counters:
                self.out["counters"] = counters
        return self.out


def solve_cut_batch(
    problems: Sequence,
    *,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[List[tuple], dict]:
    """Solve one LPT batch of natural-cut subproblems.

    Mirrors the paper's parallel stage: the driver picked the centers and
    built the subproblems sequentially, and answered the cached ones; the
    worker only runs the min-cut solve chain.  Returns one
    ``(cut_value, source_side_mask, fallbacks_used)`` per problem, in batch
    order — the driver marks the cut edges and fills its cut cache.
    """
    from ..filtering.natural_cuts import _solve_one

    tstats = _TaskStats()
    solved = []
    for problem in problems:
        with profile_span("natural_cuts.solve.worker"):
            solved.append(_solve_one(problem, fault_plan))
    return solved, tstats.finish()


def run_start_task(
    seed: int,
    *,
    g: Graph,
    U: int,
    cfg,
) -> Tuple[np.ndarray, float, dict]:
    """One independent start (greedy + local search) of either driver.

    ``seed`` is derived by the parent from its own RNG, so the set of
    starts is fixed before any dispatch and the outcome is independent of
    the executor.  Multistart runs it at ``U``, the balanced driver at
    ``U*`` with its unbalanced ``phi``.  Returns ``(labels, cost, stats)``.
    """
    from ..assembly.multistart import LS_COUNTERS, MultistartStats, _one_start

    tstats = _TaskStats()
    mstats = MultistartStats()
    sol = _one_start(g, U, cfg, np.random.default_rng(seed), mstats)
    for key in LS_COUNTERS:
        tstats.out[key] = getattr(mstats, key)
    return np.asarray(sol.labels), float(sol.cost), tstats.finish()


def combine_iteration_task(
    item: tuple,
    *,
    g: Graph,
    U: int,
    cfg,
) -> Tuple[tuple, tuple, tuple, dict]:
    """One full combination iteration: fresh start + two combine legs.

    ``item`` is ``(seed, labels1, cost1, labels2, cost2)`` where the parent
    sampled the two elite parents.  Computes ``P`` (greedy + local search),
    ``P' = combine(P1, P2)``, ``P'' = combine(P, P')`` exactly as the
    sequential loop does, and returns the three ``(labels, cost)`` pairs
    for the parent to re-insert into the elite pool in iteration order.
    """
    from ..assembly.combine import combine_chain
    from ..assembly.multistart import LS_COUNTERS, MultistartStats, _one_start
    from ..assembly.pool import Solution

    seed, labels1, cost1, labels2, cost2 = item
    tstats = _TaskStats()
    rng = np.random.default_rng(seed)
    mstats = MultistartStats()
    p = _one_start(g, U, cfg, rng, mstats)
    s1 = Solution.from_labels(g, labels1, cost1)
    s2 = Solution.from_labels(g, labels2, cost2)
    with profile_span("assembly.combine"):
        p_prime, p_second = combine_chain(g, p, s1, s2, U, cfg, rng)
    for key in LS_COUNTERS:
        tstats.out[key] = getattr(mstats, key)
    return (
        (np.asarray(p.labels), float(p.cost)),
        (np.asarray(p_prime.labels), float(p_prime.cost)),
        (np.asarray(p_second.labels), float(p_second.cost)),
        tstats.finish(),
    )
