"""Picklable task bodies dispatched onto the worker pool.

Every function here is module-level (process pools pickle by qualified
name) and receives the graph as a :class:`~.shared_graph.SharedGraphHandle`
via ``functools.partial`` (or as the graph itself when a run without a
runtime dispatches inline) — a task payload is only small primitives:
center ids, derived seeds, or label arrays of the (already contracted)
fragment graph.  The CSR arrays never travel; workers resolve the handle
through :func:`~.pool.resolve_graph`, which attaches the shared-memory
export once per worker.

Each task returns ``(payload, stats)`` where ``stats`` carries the
worker-local telemetry deltas — per-worker :class:`CutCache` hit/miss
counts and :class:`PhaseProfiler` span deltas — that the driver merges
back into the parent run report via
:meth:`~.pool.ParallelRuntime.note_batch`.  Span deltas are only reported
from real pool workers (``in_worker()``); on threads and inline the work
already runs in the driver process, where the global profiler records it
directly, and reporting deltas would double-count.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..graph.traversal import BFSWorkspace, grow_bfs_region
from ..perf.timers import get_profiler, profile_span, span_delta
from ..runtime.faults import FaultPlan
from .pool import in_worker, resolve_graph, worker_cut_cache
from .shared_graph import SharedGraphHandle

__all__ = [
    "solve_center_batch",
    "run_start_task",
    "combine_iteration_task",
]


class _TaskStats:
    """Collects one task's telemetry deltas into a plain picklable dict."""

    def __init__(self) -> None:
        self._prof = get_profiler()
        self._track_spans = in_worker() and self._prof.enabled
        self._before = self._prof.snapshot() if self._track_spans else None
        self.out: dict = {}

    def finish(self) -> dict:
        if self._track_spans:
            spans = span_delta(self._before, self._prof.snapshot())
            if spans:
                self.out["spans"] = spans
        return self.out


def solve_center_batch(
    centers: Sequence[int],
    *,
    handle: SharedGraphHandle,
    U: int,
    alpha: float,
    f: float,
    cache_entries: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    engine: str = "push_relabel",
) -> Tuple[List[Optional[tuple]], dict]:
    """Solve the cut subproblems of one batch of BFS centers.

    Mirrors the paper's parallel stage: the driver picked the centers
    sequentially; the worker re-grows each BFS region (deterministic given
    the center — it does not depend on the driver's covered mask), builds
    the contracted flow network, and solves it with the named
    :class:`~repro.cutengine.base.CutEngine`, consulting this worker's
    :class:`CutCache` first (keyed per-engine, so long-lived worker caches
    can never serve one engine's cut to another).  Returns one entry per
    center: ``(center, cut_value, cut_edge_ids, fallbacks_used)`` with
    *global* edge ids, or ``None`` when the region yields no cut problem.
    The driver only ORs the edge ids into the marked set — a union, so the
    detected cuts are independent of batching and completion order.
    """
    from ..cutengine import get_engine
    from ..filtering.cut_problem import build_cut_problem
    from ..filtering.natural_cuts import _solve_one

    g = resolve_graph(handle)
    eng = get_engine(engine)
    tstats = _TaskStats()
    max_size = max(2, int(math.ceil(alpha * U)))
    core_size = max(1, int(math.ceil(alpha * U / f)))
    ws = BFSWorkspace(g.n)
    cache = worker_cut_cache(cache_entries) if in_worker() else None
    hits0, misses0 = (cache.counters() if cache is not None else (0, 0))

    results: List[Optional[tuple]] = []
    for center in centers:
        center = int(center)
        region = grow_bfs_region(g, ws, center, max_size, core_size)
        if region.exhausted:
            results.append(None)
            continue
        prob = build_cut_problem(g, region, center=center)
        if prob is None:
            results.append(None)
            continue
        entry = cache.get(eng.cache_key(prob)) if cache is not None else None
        if entry is not None:
            value, side, fallbacks = entry[0], entry[1], 0
        else:
            with profile_span("natural_cuts.solve.worker"):
                value, side, fallbacks = _solve_one(prob, fault_plan, engine)
            if cache is not None:
                cache.put(eng.cache_key(prob), value, side)
        edge_ids = np.asarray(prob.cut_edges_of_side(side), dtype=np.int64)
        results.append((center, float(value), edge_ids, int(fallbacks)))

    if cache is not None:
        hits1, misses1 = cache.counters()
        tstats.out["cache_hits"] = hits1 - hits0
        tstats.out["cache_misses"] = misses1 - misses0
    return results, tstats.finish()


def run_start_task(
    seed: int,
    *,
    handle: SharedGraphHandle | Graph,
    U: int,
    cfg,
) -> Tuple[np.ndarray, float, dict]:
    """One independent start (greedy + local search) of either driver.

    ``seed`` is derived by the parent from its own RNG, so the set of
    starts is fixed before any dispatch and the outcome is independent of
    the executor.  Multistart runs it at ``U``, the balanced driver at
    ``U*`` with its unbalanced ``phi``.  Returns ``(labels, cost, stats)``.
    """
    from ..assembly.multistart import MultistartStats, _one_start

    g = resolve_graph(handle)
    tstats = _TaskStats()
    mstats = MultistartStats()
    sol = _one_start(g, U, cfg, np.random.default_rng(seed), mstats)
    tstats.out["ls_improvements"] = mstats.ls_improvements
    tstats.out["ls_steps"] = mstats.ls_steps
    return np.asarray(sol.labels), float(sol.cost), tstats.finish()


def combine_iteration_task(
    item: tuple,
    *,
    handle: SharedGraphHandle | Graph,
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
    from ..assembly.multistart import MultistartStats, _one_start
    from ..assembly.pool import Solution

    seed, labels1, cost1, labels2, cost2 = item
    g = resolve_graph(handle)
    tstats = _TaskStats()
    rng = np.random.default_rng(seed)
    mstats = MultistartStats()
    p = _one_start(g, U, cfg, rng, mstats)
    s1 = Solution.from_labels(g, labels1, cost1)
    s2 = Solution.from_labels(g, labels2, cost2)
    with profile_span("assembly.combine"):
        p_prime, p_second = combine_chain(g, p, s1, s2, U, cfg, rng)
    tstats.out["ls_improvements"] = mstats.ls_improvements
    tstats.out["ls_steps"] = mstats.ls_steps
    return (
        (np.asarray(p.labels), float(p.cost)),
        (np.asarray(p_prime.labels), float(p_prime.cost)),
        (np.asarray(p_second.labels), float(p_second.cost)),
        tstats.finish(),
    )
