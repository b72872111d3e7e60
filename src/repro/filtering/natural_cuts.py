"""Natural-cut detection (paper Section 2, "Detecting Natural Cuts").

The algorithm works in iterations.  Each iteration picks an uncovered vertex
``v`` uniformly at random as a *center*, grows a BFS tree ``T`` from it until
``s(T)`` reaches ``alpha * U``, takes the first vertices (while the tree was
smaller than ``alpha * U / f``) as the *core* and the external neighbors of
``T`` as the *ring*, and computes the minimum cut between the contracted core
and the contracted ring.  Core vertices become covered; the loop ends when
every vertex has been in some core, and the whole procedure repeats ``C``
times (the *coverage*).  The union of all cut edges delimits the fragments.

Center selection uses a pre-drawn random permutation: the first uncovered
element of a uniform permutation is uniformly distributed among the
uncovered vertices, so this is equivalent to the paper's rule while keeping
the sweep O(n).

Mirroring the paper's parallelization, each sweep first *collects* all
subproblems sequentially (BFS + core marking, which determines the centers,
and the contracted flow networks), answers the ones the driver's
:class:`~repro.perf.cut_cache.CutCache` already holds, then solves the rest
inline or in size-balanced batches on the run's worker pool; a batch carries
its subproblems by value.

Resilience (see ``docs/RESILIENCE.md``): subproblems run through
:func:`~repro.parallel.pool.resilient_map`, each min-cut solve falls back
along the solve chain ``auto → dinic → edmonds_karp`` when a solver raises
(``auto`` is scipy's C max flow, or push-relabel on non-integral or
int32-overflowing capacities; every link returns the same source-maximal
side, so a fallback never moves a cut), and an expired :class:`~repro.runtime.budget.RunBudget` stops the
detection early — every skip, retry, fallback, and degradation is counted
on :class:`NaturalCutStats`.  Skipping a subproblem is always safe: natural
cuts only *suggest* fragment borders, and fragment extraction enforces the
size bound unconditionally.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
import math
from typing import List, Optional

import numpy as np

from ..core.config import RuntimeConfig
from ..cutengine import PushRelabelEngine
from ..graph.graph import Graph
from ..graph.traversal import BFSWorkspace, grow_bfs_region
from ..lint.sanitizer import get_sanitizer
from ..parallel.pool import ExecutionReport, ParallelRuntime, lpt_batches, resilient_map
from ..parallel.tasks import solve_cut_batch
from ..perf.cut_cache import CutCache
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from ..runtime.faults import FaultPlan
from .cut_problem import CutProblem, build_cut_problem

__all__ = [
    "NaturalCutStats",
    "detect_natural_cuts",
    "collect_cut_problems",
]

#: LPT scheduling granularity on a pool: subproblem batches per worker
#: (more batches = better load balance, more dispatch overhead)
BATCHES_PER_WORKER = 4

_MAX_ERROR_SAMPLES = 8

#: the one min-cut solver; its solve chain is looked up per subproblem
_MIN_CUT = PushRelabelEngine()


@dataclass
class NaturalCutStats:
    """Counters and distributions from natural-cut detection."""
    centers: int = 0
    problems_solved: int = 0
    exhausted_regions: int = 0
    cut_edges_marked: int = 0
    total_cut_value: float = 0.0
    cut_values: List[float] = field(default_factory=list)
    tree_sizes: List[int] = field(default_factory=list)
    core_sizes: List[int] = field(default_factory=list)
    ring_sizes: List[int] = field(default_factory=list)
    # resilience accounting (docs/RESILIENCE.md)
    retries: int = 0  # re-attempted subproblems
    timeouts: int = 0  # attempts killed by the per-subproblem timeout
    skipped: int = 0  # subproblems dropped after exhausting attempts
    deadline_skipped: int = 0  # subproblems never solved (budget expired)
    solver_fallbacks: int = 0  # solves that succeeded on a fallback solver
    executor_degradations: int = 0  # pool -> inline demotions
    cache_pressure_events: int = 0  # chaos-injected cut-cache shrinks
    # cut-cache accounting (src/repro/perf/cut_cache.py)
    cache_hits: int = 0  # subproblems answered from the CutCache
    cache_misses: int = 0  # subproblems that required a fresh solve
    final_executor: str = "serial"  # tier that finished the work
    deadline_expired: bool = False  # detection stopped early on the budget
    error_samples: List[str] = field(default_factory=list)

    def incidents(self) -> dict:
        """Non-zero resilience counters, for run reports."""
        counters = {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "skipped": self.skipped,
            "deadline_skipped": self.deadline_skipped,
            "solver_fallbacks": self.solver_fallbacks,
            "executor_degradations": self.executor_degradations,
            "cache_pressure_events": self.cache_pressure_events,
        }
        out = {k: v for k, v in counters.items() if v}
        if self.deadline_expired:
            out["deadline_expired"] = True
        return out

    def absorb(self, report: ExecutionReport) -> None:
        """Fold one dispatch's resilience accounting into these counters."""
        self.retries += report.retries
        self.timeouts += report.timeouts
        self.skipped += report.skipped
        self.deadline_skipped += report.deadline_skipped
        self.executor_degradations += report.executor_degradations
        self.final_executor = report.final_executor
        room = max(0, _MAX_ERROR_SAMPLES - len(self.error_samples))
        self.error_samples.extend(report.error_samples[:room])


def collect_cut_problems(
    g: Graph,
    U: int,
    alpha: float,
    f: float,
    rng: np.random.Generator,
    stats: NaturalCutStats | None = None,
    budget: RunBudget | None = None,
) -> List[CutProblem]:
    """One coverage sweep: pick centers until every vertex is in some core.

    Returns the list of min-cut subproblems (regions whose BFS exhausted a
    component produce no problem — there is nothing to cut there).  When
    ``budget`` expires mid-sweep, the sweep stops and returns the problems
    collected so far.
    """
    max_size = max(2, int(math.ceil(alpha * U)))
    core_size = max(1, int(math.ceil(alpha * U / f)))
    ws = BFSWorkspace(g.n)
    covered = np.zeros(g.n, dtype=bool)
    out: List[CutProblem] = []
    # one permutation per sweep is the declared draw contract; the sanitizer
    # replays the declaration and flags any divergence
    san = get_sanitizer()
    rng_token = san.rng_begin(rng)
    order = rng.permutation(g.n)
    san.rng_end("filter.sweep", rng, rng_token, [("permutation", g.n)])
    for sweep_pos, center in enumerate(order):
        if (
            budget is not None
            and sweep_pos % 64 == 0
            and budget.checkpoint("collect_cut_problems")
        ):
            break
        center = int(center)
        if covered[center]:
            continue
        region = grow_bfs_region(g, ws, center, max_size, core_size)
        covered[region.core] = True
        if stats is not None:
            stats.centers += 1
            stats.tree_sizes.append(int(region.tree_size))
            stats.core_sizes.append(int(len(region.core)))
            stats.ring_sizes.append(int(len(region.ring)))
        if region.exhausted:
            if stats is not None:
                stats.exhausted_regions += 1
            continue
        prob = build_cut_problem(g, region, center=center)
        if prob is not None:
            out.append(prob)
    return out


def _solve_one(
    problem: CutProblem,
    fault_plan: Optional[FaultPlan] = None,
) -> tuple[float, np.ndarray, int]:
    """Solve one subproblem, falling back along the min-cut solve chain.

    Returns ``(cut_value, source_side_mask, fallbacks_used)``.  The mask is
    over the problem's *local* vertices — the driver recovers original cut
    edges via :meth:`CutProblem.cut_edges_of_side` — so the result can also
    be stored in the :class:`~repro.perf.cut_cache.CutCache` under the
    network fingerprint and reused for any problem with the same one.  The
    chain comes from
    :meth:`~repro.cutengine.push_relabel.PushRelabelEngine.solve_chain`:
    the C max flow (push-relabel on capacities it cannot take), then Dinic,
    then Edmonds-Karp, all returning the same side.  Fault injection
    at the ``"flow"`` site is keyed by the problem's center and the position
    in the chain, so a plan with ``max_attempt=0`` fails the primary solve
    and lets the first fallback succeed.
    """
    chain = _MIN_CUT.solve_chain(problem)
    last_exc: Exception | None = None
    for pos, attempt in enumerate(chain):
        try:
            if fault_plan is not None:
                fault_plan.apply("flow", problem.center, pos)
            value, side = attempt(problem)
            return value, side, pos
        except Exception as exc:  # noqa: BLE001 - resilience boundary
            last_exc = exc
    assert last_exc is not None
    raise last_exc


def _apply_cache_pressure(
    cut_cache: CutCache | None,
    runtime: RuntimeConfig,
    sweep: int,
    stats: NaturalCutStats,
) -> None:
    """Chaos hook: simulate memory pressure by shrinking the cut cache.

    Duck-typed against :class:`~repro.runtime.chaos.ChaosPlan` — plain
    :class:`~repro.runtime.faults.FaultPlan` objects expose no
    ``cache_pressure`` and are ignored.  Harmless by construction: cache
    hits are bit-identical to fresh solves, so evictions cost time only.
    """
    if cut_cache is None or runtime.fault_plan is None:
        return
    pressure = getattr(runtime.fault_plan, "cache_pressure", None)
    if pressure is None:
        return
    cap = pressure(sweep)
    if cap is not None:
        cut_cache.shrink(cap)
        stats.cache_pressure_events += 1


def detect_natural_cuts(
    g: Graph,
    U: int,
    alpha: float = 1.0,
    f: float = 10.0,
    C: int = 2,
    rng: np.random.Generator | None = None,
    runtime: RuntimeConfig | None = None,
    budget: RunBudget | None = None,
    cut_cache: CutCache | None = None,
    parallel: ParallelRuntime | None = None,
) -> tuple[np.ndarray, NaturalCutStats]:
    """Run ``C`` coverage sweeps; returns ``(cut_edge_ids, stats)``.

    ``cut_edge_ids`` is the union of all edges cut by any natural cut —
    the set ``C`` of the paper, whose removal defines the fragments.

    ``runtime`` configures timeouts, retries, and fault injection;
    ``budget`` (or ``runtime.time_budget``) bounds wall-clock time — on
    expiry the cuts marked so far are returned instead of raising.

    ``cut_cache`` memoizes solves by network fingerprint: subproblems whose
    contracted flow network was already solved reuse the cached
    ``(value, source side)`` instead of running the flow solver again.  The
    cache is consulted and populated in the driver, before and after the
    solves, with or without a pool.  A hit is bit-identical to a fresh solve
    (equal fingerprints imply identical networks), so caching never changes
    the detected cuts.

    Without ``parallel`` every pending subproblem is solved inline, one
    :func:`resilient_map` item each.  ``parallel`` (a
    :class:`~repro.parallel.pool.ParallelRuntime`) deals them into
    LPT-scheduled batches solved on the run's persistent pool (once the pool
    is retired, the same batches run inline).  The detected cut set is the
    union of per-region min cuts, which is independent of batching and
    completion order, so the result is bit-identical to the inline path for
    the same ``rng``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    runtime = RuntimeConfig() if runtime is None else runtime
    if budget is None and runtime.time_budget is not None:
        budget = runtime.make_budget()
    stats = NaturalCutStats()
    stats.final_executor = "serial" if parallel is None else "processes"
    marked = np.zeros(g.m, dtype=bool)

    def account(problem: CutProblem, value: float, side: np.ndarray, fallbacks: int) -> None:
        stats.problems_solved += 1
        stats.total_cut_value += value
        stats.cut_values.append(float(value))
        if fallbacks:
            stats.solver_fallbacks += 1
        marked[problem.cut_edges_of_side(side)] = True

    for sweep in range(max(1, int(C))):
        if budget is not None and budget.checkpoint("natural_cuts_sweep"):
            stats.deadline_expired = True
            break
        _apply_cache_pressure(cut_cache, runtime, sweep, stats)
        with profile_span("natural_cuts.collect"):
            problems = collect_cut_problems(g, U, alpha, f, rng, stats, budget=budget)
        if cut_cache is not None:
            pending = []
            for prob in problems:
                entry = cut_cache.get(prob.fingerprint())
                if entry is None:
                    pending.append(prob)
                else:
                    account(prob, entry[0], entry[1], 0)
            stats.cache_hits += len(problems) - len(pending)
            stats.cache_misses += len(pending)
        else:
            pending = problems
        results = _solve_pending(pending, runtime, budget, parallel, stats)
        for prob, out in zip(pending, results):
            if out is None:
                continue  # skipped subproblem: its cuts are simply not marked
            value, side, fallbacks = out
            account(prob, value, side, fallbacks)
            if cut_cache is not None:
                cut_cache.put(prob.fingerprint(), value, side)
    if budget is not None and budget.expired():
        stats.deadline_expired = True
    cut_ids = np.flatnonzero(marked).astype(np.int64)
    stats.cut_edges_marked = len(cut_ids)
    return cut_ids, stats


def _solve_pending(
    pending: List[CutProblem],
    runtime: RuntimeConfig,
    budget: RunBudget | None,
    parallel: ParallelRuntime | None,
    stats: NaturalCutStats,
) -> List[Optional[tuple]]:
    """Solve one sweep's uncached subproblems through one :func:`resilient_map`.

    Returns one ``(cut_value, source_side_mask, fallbacks_used)`` per
    problem, in ``pending`` order, or ``None`` for a skipped one.  Inline,
    every problem is its own item, so retries and skips count per
    subproblem.  On a pool, problems are dealt into LPT batches by network
    size and travel by value; a retried, skipped or timed-out *batch*
    counts once, and the per-subproblem timeout scales by the largest batch.
    """
    timeout = runtime.subproblem_timeout
    if parallel is None:
        batches = None
        fn = functools.partial(_solve_one, fault_plan=runtime.fault_plan)
        items: list = pending
    else:
        workers = parallel.workers or os.cpu_count() or 1
        batches = lpt_batches([p.net_cap.size for p in pending], workers * BATCHES_PER_WORKER)
        if timeout is not None and batches:
            timeout *= max(len(b) for b in batches)
        fn = functools.partial(solve_cut_batch, fault_plan=runtime.fault_plan)
        items = [[pending[i] for i in b] for b in batches]
    with profile_span("natural_cuts.solve"):
        outs, report = resilient_map(
            fn, items, parallel=parallel, runtime=runtime, budget=budget, timeout=timeout
        )
    stats.absorb(report)
    if batches is None:
        return outs
    results: List[Optional[tuple]] = [None] * len(pending)
    for batch, out in zip(batches, outs):
        if out is None:
            continue  # skipped batch: its cuts are simply not marked
        solved, wstats = out
        parallel.note_batch(wstats)
        for i, res in zip(batch, solved):
            results[i] = res
    return results
