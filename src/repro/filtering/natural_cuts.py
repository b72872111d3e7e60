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
subproblems sequentially (BFS + core marking, which determines the centers),
then solves the min-cut instances inline or on the run's worker pool.

Resilience (see ``docs/RESILIENCE.md``): subproblems run through
:func:`~repro.parallel.pool.resilient_map`, each min-cut solve falls back
along its engine's solve chain when a solver raises, and an expired
:class:`~repro.runtime.budget.RunBudget` stops the detection early — every
skip, retry, fallback, and degradation is counted on
:class:`NaturalCutStats`.  Skipping a subproblem is always safe: natural
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
from ..cutengine import get_engine
from ..graph.graph import Graph
from ..graph.traversal import BFSWorkspace, grow_bfs_region
from ..lint.sanitizer import get_sanitizer
from ..parallel.pool import ExecutionReport, ParallelRuntime, lpt_batches, resilient_map
from ..perf.cut_cache import CutCache
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from ..runtime.faults import FaultPlan
from .cut_problem import CutProblem, build_cut_problem

__all__ = [
    "NaturalCutStats",
    "detect_natural_cuts",
    "collect_cut_problems",
    "collect_cut_regions",
]

#: LPT scheduling granularity of the pooled sweep: center batches per worker
#: (more batches = better load balance, more dispatch overhead)
BATCHES_PER_WORKER = 4

_MAX_ERROR_SAMPLES = 8


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
    cut_engine: str = "push_relabel"  # engine that chose the cuts
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


def _collect_sweep(
    g: Graph,
    U: int,
    alpha: float,
    f: float,
    rng: np.random.Generator,
    stats: NaturalCutStats | None,
    budget: RunBudget | None,
    build: bool,
) -> list:
    """The shared center-picking sweep behind both collect functions.

    With ``build=True`` every non-exhausted region is turned into a
    :class:`CutProblem` (the sequential path); with ``build=False`` only
    ``(center, ring_size)`` pairs are recorded — the pool path re-grows the
    region inside the worker (region growth is a pure function of the
    center, independent of the covered mask, so the worker reconstructs it
    exactly), and the ring size feeds the LPT cost estimate.  Both modes
    consume the RNG identically, which keeps everything downstream of the
    sweep on the same random stream regardless of executor.
    """
    max_size = max(2, int(math.ceil(alpha * U)))
    core_size = max(1, int(math.ceil(alpha * U / f)))
    ws = BFSWorkspace(g.n)
    covered = np.zeros(g.n, dtype=bool)
    out: list = []
    # one permutation per sweep is the declared draw contract of BOTH modes
    # (build=True legacy, build=False pooled) — the serial≡parallel anchor;
    # the sanitizer replays the declaration and flags any divergence
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
        if build:
            prob = build_cut_problem(g, region, center=center)
            if prob is not None:
                out.append(prob)
        else:
            out.append((center, int(len(region.ring))))
    return out


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
    return _collect_sweep(g, U, alpha, f, rng, stats, budget, build=True)


def collect_cut_regions(
    g: Graph,
    U: int,
    alpha: float,
    f: float,
    rng: np.random.Generator,
    stats: NaturalCutStats | None = None,
    budget: RunBudget | None = None,
) -> List[tuple]:
    """One coverage sweep collecting only ``(center, ring_size)`` pairs.

    The handle-based pool path uses this: a task then pickles just the
    center ids of its batch, and the worker rebuilds each subproblem from
    the shared graph ("including the creation of the relevant subproblem"
    runs in parallel, exactly as in the paper).
    """
    return _collect_sweep(g, U, alpha, f, rng, stats, budget, build=False)


def _solve_one(
    problem: CutProblem,
    fault_plan: Optional[FaultPlan] = None,
    engine: str = "push_relabel",
) -> tuple[float, np.ndarray, int]:
    """Solve one subproblem, falling back along the engine's solve chain.

    Returns ``(cut_value, source_side_mask, fallbacks_used)``.  The mask is
    over the problem's *local* vertices — the driver recovers original cut
    edges via :meth:`CutProblem.cut_edges_of_side` — so the result can also
    be stored in the :class:`~repro.perf.cut_cache.CutCache` (under the
    engine's cache key) and reused for any problem with the same network
    fingerprint solved by the same engine.  The chain comes from
    :meth:`~repro.cutengine.base.CutEngine.solve_chain`: for the default
    engine it is push-relabel, then Dinic, then Edmonds-Karp; other engines
    append that min-cut chain as a safety net.  Fault injection
    at the ``"flow"`` site is keyed by the problem's center and the position
    in the chain, so a plan with ``max_attempt=0`` fails the primary solve
    and lets the first fallback succeed.
    """
    chain = get_engine(engine).solve_chain(problem)
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
    engine: str = "push_relabel",
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
    cache is consulted and populated in the driver thread.  A hit is
    bit-identical to a fresh solve (equal fingerprints imply identical
    networks), so caching never changes the detected cuts.

    Without ``parallel`` every subproblem is solved inline.  ``parallel``
    (a :class:`~repro.parallel.pool.ParallelRuntime`) switches to the
    handle-based pool path: the sweep collects only centers, and
    LPT-scheduled center batches are solved against the shared-memory graph
    on the run's persistent pool (once the pool is retired, the same
    batches run inline).  The detected cut set is
    the union of per-region min cuts, which is independent of batching and
    completion order, so the result is bit-identical to the sequential path
    for the same ``rng``.

    ``engine`` names a registered :class:`~repro.cutengine.base.CutEngine`
    ("push_relabel" = the paper's min cut, bit-identical default;
    "flowcutter" = Pareto-front enumeration).  Engine solves are pure
    functions of the subproblem, so every backend/caching/ordering
    guarantee above holds for every engine; cache entries are keyed
    per-engine and can never cross engines.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    runtime = RuntimeConfig() if runtime is None else runtime
    if budget is None and runtime.time_budget is not None:
        budget = runtime.make_budget()
    eng = get_engine(engine)  # fail fast on unknown names
    stats = NaturalCutStats()
    stats.cut_engine = engine
    stats.final_executor = "serial" if parallel is None else parallel.backend
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
        if parallel is not None:
            _pooled_sweep(
                g, U, alpha, f, rng, runtime, budget,
                cut_cache, parallel, stats, marked, engine,
            )
            continue
        with profile_span("natural_cuts.collect"):
            problems = collect_cut_problems(g, U, alpha, f, rng, stats, budget=budget)
        if cut_cache is not None:
            pending = []
            for prob in problems:
                entry = cut_cache.get(eng.cache_key(prob))
                if entry is None:
                    pending.append(prob)
                else:
                    account(prob, entry[0], entry[1], 0)
            stats.cache_hits += len(problems) - len(pending)
            stats.cache_misses += len(pending)
        else:
            pending = problems
        solve = functools.partial(_solve_one, fault_plan=runtime.fault_plan, engine=engine)
        with profile_span("natural_cuts.solve"):
            results, report = resilient_map(solve, pending, runtime=runtime, budget=budget)
        stats.absorb(report)
        for prob, out in zip(pending, results):
            if out is None:
                continue  # skipped subproblem: its cuts are simply not marked
            value, side, fallbacks = out
            account(prob, value, side, fallbacks)
            if cut_cache is not None:
                cut_cache.put(eng.cache_key(prob), value, side)
    if budget is not None and budget.expired():
        stats.deadline_expired = True
    cut_ids = np.flatnonzero(marked).astype(np.int64)
    stats.cut_edges_marked = len(cut_ids)
    return cut_ids, stats


def _pooled_sweep(
    g: Graph,
    U: int,
    alpha: float,
    f: float,
    rng: np.random.Generator,
    runtime: RuntimeConfig,
    budget: RunBudget | None,
    cut_cache: CutCache | None,
    parallel: ParallelRuntime,
    stats: NaturalCutStats,
    marked: np.ndarray,
    engine: str = "push_relabel",
) -> None:
    """One coverage sweep on the shared-memory worker pool.

    Centers are collected sequentially (as in the paper), dealt into
    LPT-ordered batches by ring size, and dispatched as handle-based tasks
    — each task pickles only its center ids.  Results stream back through
    :func:`resilient_map`, which preserves batch order, and are folded into
    ``marked``; since marking is a set union, the outcome matches the
    sequential path bit for bit.  Resilience counters are batch-granular
    here (a retried/skipped/timed-out *batch* counts once), and the
    per-subproblem timeout scales by the largest batch size.
    """
    from ..parallel.tasks import solve_center_batch

    with profile_span("natural_cuts.collect"):
        regions = collect_cut_regions(g, U, alpha, f, rng, stats, budget=budget)
    if not regions:
        return
    handle = parallel.share(g)
    workers = parallel.workers or os.cpu_count() or 1
    n_batches = max(1, workers * BATCHES_PER_WORKER)
    batches = lpt_batches([ring for _, ring in regions], n_batches)
    batch_centers = [[regions[i][0] for i in batch] for batch in batches]
    task = functools.partial(
        solve_center_batch,
        handle=handle,
        U=U,
        alpha=alpha,
        f=f,
        cache_entries=cut_cache.max_entries if cut_cache is not None else 0,
        fault_plan=runtime.fault_plan,
        engine=engine,
    )
    timeout = runtime.subproblem_timeout
    if timeout is not None:
        timeout *= max(len(b) for b in batch_centers)
    with profile_span("natural_cuts.solve"):
        results, report = resilient_map(
            task,
            batch_centers,
            parallel=parallel,
            runtime=runtime,
            budget=budget,
            timeout=timeout,
        )
    stats.absorb(report)
    for out in results:
        if out is None:
            continue  # skipped batch: its cuts are simply not marked
        solved, wstats = out
        parallel.note_batch(wstats)
        stats.cache_hits += int(wstats.get("cache_hits", 0))
        stats.cache_misses += int(wstats.get("cache_misses", 0))
        for entry in solved:
            if entry is None:
                continue  # exhausted region / degenerate network
            _center, value, edge_ids, fallbacks = entry
            stats.problems_solved += 1
            stats.total_cut_value += value
            stats.cut_values.append(float(value))
            if fallbacks:
                stats.solver_fallbacks += 1
            marked[edge_ids] = True
