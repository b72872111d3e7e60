"""Multistart with optional evolutionary combination (paper Section 3).

Each iteration runs the randomized greedy followed by the local search;
after ``M`` iterations the best solution wins.  With combination enabled,
an elite pool of capacity ``k = ceil(sqrt(M))`` (by default) is maintained:
the first ``k`` iterations seed the pool; every later iteration generates a
fresh solution ``P``, combines two random pool members into ``P'``, combines
``P`` with ``P'`` into ``P''``, and tries to insert ``P''``, ``P'``, ``P``
into the pool in that order.

Because every iteration only ever *adds* a candidate, the loop is naturally
anytime: an expired :class:`~repro.runtime.budget.RunBudget` stops it after
the current iteration and the best solution so far is returned (at least
one iteration always runs, so the result is always valid).  With
``runtime.checkpoint_path`` set, the solution pool, best solution, and RNG
state are periodically serialized so a killed run can be resumed with
``runtime.resume`` (see ``docs/RESILIENCE.md`` for the format).

Parallel mode (``parallel=`` a :class:`~repro.parallel.pool.ParallelRuntime`)
restructures the loop into the paper's parallel multistart: all per-iteration
seeds are derived from the parent RNG up front, the independent greedy+LS
starts run as one wave on the worker pool, and combination iterations run in
rounds of (elite-pool capacity) against a pool snapshot, with parents sampled
by the parent RNG and results re-inserted in iteration order.  Every RNG
draw thus happens either in the parent (seed derivation, parent sampling) or
in a per-iteration generator seeded by the parent, so the outcome is a pure
function of the seed — identical for serial, threads, and processes
backends.  The schedule differs from the sequential legacy loop (rounds see
a briefly frozen pool), so ``parallel=None`` keeps the legacy behavior
exactly; checkpoints written by parallel mode carry the derived seed list
and are resumed by parallel mode, while legacy checkpoints fall back to the
legacy loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.config import AssemblyConfig, RuntimeConfig
from ..graph.graph import Graph
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from ..runtime.checkpoint import (
    CheckpointError,
    load_checkpoint_safe,
    rng_state_checksum,
    save_checkpoint,
)
from .cells import PartitionState
from .combine import combine_chain
from .greedy import greedy_labels_for_graph
from .local_search import local_search
from .pool import ElitePool, Solution

__all__ = ["MultistartStats", "multistart"]

CHECKPOINT_KIND = "multistart"


@dataclass
class MultistartStats:
    """Aggregate counters across multistart iterations."""
    iterations: int = 0
    combinations: int = 0
    ls_improvements: int = 0
    ls_steps: int = 0
    iteration_costs: List[float] = field(default_factory=list)
    # resilience accounting (docs/RESILIENCE.md)
    deadline_expired: bool = False  # loop stopped early on the budget
    resumed_at: int = -1  # iteration restored from a checkpoint (-1 = fresh)
    checkpoints_written: int = 0
    # non-empty when the resume degraded (older generation / fresh start)
    checkpoint_recovery: dict = field(default_factory=dict)

    def incidents(self) -> dict:
        """Non-trivial resilience events, for run reports."""
        out: dict = {}
        if self.deadline_expired:
            out["deadline_expired"] = True
        if self.resumed_at >= 0:
            out["resumed_at"] = self.resumed_at
        if self.checkpoints_written:
            out["checkpoints_written"] = self.checkpoints_written
        if self.checkpoint_recovery:
            out["checkpoint_recovery"] = dict(self.checkpoint_recovery)
        return out


def _one_start(
    g: Graph, U: int, cfg: AssemblyConfig, rng: np.random.Generator, stats: MultistartStats
) -> Solution:
    with profile_span("assembly.greedy"):
        labels = greedy_labels_for_graph(g, U, rng, cfg.score_a, cfg.score_b)
        state = PartitionState(g, labels)
    with profile_span("assembly.local_search"):
        ls = local_search(
            state,
            U,
            variant=cfg.local_search,
            phi_max=cfg.phi,
            rng=rng,
            score_a=cfg.score_a,
            score_b=cfg.score_b,
        )
    stats.ls_improvements += ls.improvements
    stats.ls_steps += ls.steps
    return Solution.from_labels(g, state.labels, state.cost)


def _checkpoint_state(
    g: Graph,
    it: int,
    rng: np.random.Generator,
    best: Solution,
    pool: Optional[ElitePool],
    start_seeds: Optional[List[int]] = None,
    entry_rng_crc: Optional[int] = None,
) -> dict:
    state = {
        "iteration": it,
        "entry_rng_crc": entry_rng_crc,
        "rng_state": rng.bit_generator.state,
        "best": {"labels": np.asarray(best.labels), "cost": float(best.cost)},
        "pool": None
        if pool is None
        else [
            {"labels": np.asarray(s.labels), "cost": float(s.cost)}
            for s in pool.solutions
        ],
        "graph": {"n": int(g.n), "m": int(g.m)},
    }
    if start_seeds is not None:
        # parallel mode: the full derived-seed schedule travels with the
        # checkpoint so a resumed run replays the identical iteration set
        state["start_seeds"] = [int(s) for s in start_seeds]
    return state


def _restore(
    g: Graph,
    state: dict,
    pool: Optional[ElitePool],
    rng: np.random.Generator,
    entry_rng_crc: Optional[int] = None,
):
    """Apply a loaded checkpoint; returns (start_iteration, best_solution)."""
    fp = state.get("graph", {})
    if fp.get("n") != g.n or fp.get("m") != g.m:
        raise CheckpointError(
            f"checkpoint was written for a graph with n={fp.get('n')}, m={fp.get('m')}; "
            f"this graph has n={g.n}, m={g.m}"
        )
    stored_crc = state.get("entry_rng_crc")
    if entry_rng_crc is not None and stored_crc is not None and stored_crc != entry_rng_crc:
        raise CheckpointError(
            "checkpoint was written by a run with a different seed configuration "
            "(RNG entry-state checksum mismatch); resuming would silently diverge "
            "from both runs — pass the original seed or start fresh"
        )
    rng.bit_generator.state = state["rng_state"]
    best = Solution.from_labels(g, state["best"]["labels"], state["best"]["cost"])
    if pool is not None and state.get("pool"):
        for entry in state["pool"]:
            pool.add(Solution.from_labels(g, entry["labels"], entry["cost"]))
    return int(state["iteration"]), best


def multistart(
    g: Graph,
    U: int,
    cfg: Optional[AssemblyConfig] = None,
    rng: np.random.Generator | None = None,
    runtime: RuntimeConfig | None = None,
    budget: RunBudget | None = None,
    parallel=None,
) -> tuple[Solution, MultistartStats]:
    """Run the full assembly search on a fragment graph.

    Returns the best solution found and per-run statistics.  See the module
    docstring for deadline and checkpoint/resume semantics, and for what
    ``parallel`` (a :class:`~repro.parallel.pool.ParallelRuntime`) changes.
    """
    cfg = AssemblyConfig() if cfg is None else cfg
    rng = np.random.default_rng(0) if rng is None else rng
    runtime = RuntimeConfig() if runtime is None else runtime
    if budget is None and runtime.time_budget is not None:
        budget = runtime.make_budget()
    stats = MultistartStats()
    # fingerprint of the RNG stream position at loop entry — a pure function
    # of the run's seed configuration, stored in every checkpoint so a resume
    # under a *different* seed config is rejected instead of diverging
    entry_crc = rng_state_checksum(rng.bit_generator.state)

    if parallel is not None and cfg.multistart > 1 and g.n > 0:
        out = _multistart_parallel(
            g, U, cfg, rng, runtime, budget, stats, parallel, entry_crc
        )
        if out is not None:
            return out
        # a legacy checkpoint (no seed schedule) resumes on the legacy loop

    best: Optional[Solution] = None
    pool: Optional[ElitePool] = None
    if cfg.use_combination:
        k = cfg.pool_capacity or max(2, math.ceil(math.sqrt(cfg.multistart)))
        pool = ElitePool(k)

    start_iter = 0
    ckpt = runtime.checkpoint_path
    if ckpt and runtime.resume:
        state, recovery = load_checkpoint_safe(
            ckpt, CHECKPOINT_KIND, rng=rng, generations=runtime.checkpoint_generations
        )
        stats.checkpoint_recovery = recovery
        if state is not None:
            start_iter, best = _restore(g, state, pool, rng, entry_crc)
            stats.resumed_at = start_iter

    for it in range(start_iter, cfg.multistart):
        # the deadline is honored only once a valid solution exists: the
        # first iteration (or a resumed best) guarantees anytime validity
        if best is not None and budget is not None and budget.checkpoint("multistart"):
            stats.deadline_expired = True
            break
        p = _one_start(g, U, cfg, rng, stats)
        stats.iterations += 1
        candidates = [p]
        if pool is not None:
            if len(pool) < pool.capacity or len(pool) < 2:
                pool.add(p)
            else:
                p1, p2 = pool.sample_two(rng)
                with profile_span("assembly.combine"):
                    p_prime, p_second = combine_chain(g, p, p1, p2, U, cfg, rng)
                stats.combinations += 2
                pool.add(p_second)
                pool.add(p_prime)
                pool.add(p)
                candidates.extend([p_prime, p_second])
        for c in candidates:
            if best is None or c.cost < best.cost:
                best = c
        stats.iteration_costs.append(min(c.cost for c in candidates))

        if ckpt and ((it + 1) % runtime.checkpoint_every == 0 or it + 1 == cfg.multistart):
            save_checkpoint(
                ckpt,
                CHECKPOINT_KIND,
                _checkpoint_state(g, it + 1, rng, best, pool, entry_rng_crc=entry_crc),
                generations=runtime.checkpoint_generations,
                fault_plan=runtime.fault_plan,
                key=it + 1,
            )
            stats.checkpoints_written += 1

    assert best is not None
    return best, stats


def _multistart_parallel(
    g: Graph,
    U: int,
    cfg: AssemblyConfig,
    rng: np.random.Generator,
    runtime: RuntimeConfig,
    budget: Optional[RunBudget],
    stats: MultistartStats,
    parallel,
    entry_crc: Optional[int] = None,
) -> Optional[tuple]:
    """Derived-seed multistart on the worker pool (see module docstring).

    Returns ``None`` when a resume checkpoint was written by the legacy
    loop (no seed schedule) — the caller then falls back to that loop.
    """
    from ..parallel.pool import resilient_map
    from ..parallel.tasks import combine_iteration_task, run_start_task

    M = cfg.multistart
    elite: Optional[ElitePool] = None
    cap = 0
    if cfg.use_combination:
        cap = cfg.pool_capacity or max(2, math.ceil(math.sqrt(M)))
        elite = ElitePool(cap)

    best: Optional[Solution] = None
    completed = 0
    start_seeds: Optional[List[int]] = None
    ckpt = runtime.checkpoint_path
    if ckpt and runtime.resume:
        state, recovery = load_checkpoint_safe(
            ckpt, CHECKPOINT_KIND, rng=rng, generations=runtime.checkpoint_generations
        )
        stats.checkpoint_recovery = recovery
        if state is not None:
            if not state.get("start_seeds"):
                return None
            completed, best = _restore(g, state, elite, rng, entry_crc)
            start_seeds = [int(s) for s in state["start_seeds"]]
            stats.resumed_at = completed
    if start_seeds is None:
        # the whole iteration schedule is fixed here, before any dispatch:
        # this is what makes the outcome executor-independent
        start_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=M)]

    # the first min(M, capacity) iterations seed the elite pool, like the
    # sequential loop's warm-up phase; without combination all M are starts
    k0 = M if elite is None else min(M, max(2, cap))

    def dispatch(task, task_items):
        return resilient_map(
            task, task_items, parallel=parallel, runtime=runtime, budget=budget
        )

    def absorb(wstats: dict) -> None:
        parallel.note_batch(wstats)
        stats.ls_improvements += int(wstats.get("ls_improvements", 0))
        stats.ls_steps += int(wstats.get("ls_steps", 0))

    def note_best(sol: Solution) -> None:
        nonlocal best
        if best is None or sol.cost < best.cost:
            best = sol

    def write_ckpt(it: int) -> None:
        if ckpt and best is not None:
            save_checkpoint(
                ckpt,
                CHECKPOINT_KIND,
                _checkpoint_state(
                    g, it, rng, best, elite, start_seeds, entry_rng_crc=entry_crc
                ),
                generations=runtime.checkpoint_generations,
                fault_plan=runtime.fault_plan,
                key=it,
            )
            stats.checkpoints_written += 1

    def run_starts(idxs: List[int]) -> None:
        # share per wave (memoized): after a pool collapse the export was
        # released, and a supervised respawn needs fresh segments in place
        # before the pool is (re)built inside dispatch()
        task = functools.partial(run_start_task, handle=parallel.share(g), U=U, cfg=cfg)
        with profile_span("assembly.multistart_wave"):
            results, _report = dispatch(task, [start_seeds[i] for i in idxs])
        for out in results:
            if out is None:
                continue  # skipped start: the iteration is simply lost
            labels, cost, wstats = out
            absorb(wstats)
            sol = Solution.from_labels(g, labels, cost)
            stats.iterations += 1
            stats.iteration_costs.append(float(cost))
            if elite is not None:
                elite.add(sol)
            note_best(sol)

    if completed < k0:
        run_starts(list(range(completed, k0)))
        completed = k0
        write_ckpt(completed)

    while completed < M:
        # no best-is-set guard (unlike the sequential loop): the inline
        # fallback below keeps the anytime guarantee even on full expiry
        if budget is not None and budget.checkpoint("multistart"):
            stats.deadline_expired = True
            break
        round_idx = list(range(completed, min(M, completed + max(1, cap))))
        if elite is None or len(elite) < 2:
            # not enough parents to combine (e.g. the whole first wave was
            # skipped): degrade the round to plain independent starts
            run_starts(round_idx)
        else:
            items = []
            for i in round_idx:
                p1, p2 = elite.sample_two(rng)
                items.append(
                    (
                        start_seeds[i],
                        np.asarray(p1.labels), float(p1.cost),
                        np.asarray(p2.labels), float(p2.cost),
                    )
                )
            task = functools.partial(
                combine_iteration_task, handle=parallel.share(g), U=U, cfg=cfg
            )
            with profile_span("assembly.multistart_wave"):
                results, _report = dispatch(task, items)
            for out in results:
                if out is None:
                    continue
                (pl, pc), (ppl, ppc), (psl, psc), wstats = out
                absorb(wstats)
                p = Solution.from_labels(g, pl, pc)
                p_prime = Solution.from_labels(g, ppl, ppc)
                p_second = Solution.from_labels(g, psl, psc)
                stats.iterations += 1
                stats.combinations += 2
                # same insertion order as the sequential loop: P'', P', P
                elite.add(p_second)
                elite.add(p_prime)
                elite.add(p)
                for c in (p, p_prime, p_second):
                    note_best(c)
                stats.iteration_costs.append(float(min(pc, ppc, psc)))
        completed = round_idx[-1] + 1
        write_ckpt(completed)

    if best is None:
        # every dispatched iteration was skipped; keep the anytime guarantee
        # by running the first scheduled start inline
        best = _one_start(g, U, cfg, np.random.default_rng(start_seeds[0]), stats)
        stats.iterations += 1
        stats.iteration_costs.append(float(best.cost))
    if budget is not None and budget.expired():
        stats.deadline_expired = True
        # an interrupted parallel run always leaves a resumable artifact,
        # even when the deadline beat the first wave (best = inline start)
        write_ckpt(completed)
    return best, stats
