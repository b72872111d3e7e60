"""Multistart with optional evolutionary combination (paper Section 3).

Each start runs the randomized greedy followed by the local search; after
``M`` starts the best solution wins.  With combination enabled, an elite
pool of capacity ``k = ceil(sqrt(M))`` (by default) is maintained: the
first ``k`` starts seed the pool; every later iteration generates a fresh
solution ``P``, combines two random pool members into ``P'``, combines
``P`` with ``P'`` into ``P''``, and tries to insert ``P''``, ``P'``, ``P``
into the pool in that order.

The schedule is the paper's parallel multistart.  One seed per start is
derived from the caller's RNG before any start runs; the independent
starts run as one wave, and combination iterations run in rounds of ``k``
against a pool snapshot, with parents sampled by the caller's RNG and
results re-inserted in iteration order.  Every wave is one
:func:`~repro.parallel.pool.resilient_map` — on the run's
:class:`~repro.parallel.pool.ParallelRuntime`, or inline with
``parallel=None`` — so the outcome is a pure function of the seed,
identical with and without a worker pool.  A single start (``M = 1``)
draws from the caller's RNG directly, inline.

The loop is anytime: an expired :class:`~repro.runtime.budget.RunBudget`
stops it between waves (or cuts a wave short) and the best solution so far
is returned; when no start returned at all, the first scheduled start runs
inline, so the result is always valid.  Starts lost to faults or to the
deadline are counted in :attr:`MultistartStats.dispatch`.  With
``runtime.checkpoint_path`` set, the start schedule, elite pool, best
solution, and RNG state are saved every ``checkpoint_every`` returned
starts (a combination round only as a whole), so a killed run resumed with
``runtime.resume`` ends with the uninterrupted run's labels (see
``docs/RESILIENCE.md`` for the format and the mismatch rules).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.config import AssemblyConfig, RuntimeConfig
from ..graph.graph import Graph
from ..parallel.pool import ExecutionReport, resilient_map
from ..parallel.tasks import combine_iteration_task, run_start_task
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from ..runtime.checkpoint import (
    CheckpointError,
    check_resume,
    load_checkpoint_safe,
    rng_state_checksum,
    save_checkpoint,
)
from .cells import PartitionState
from .greedy import greedy_labels_for_graph
from .local_search import local_search
from .pool import ElitePool, Solution

__all__ = ["MultistartStats", "multistart", "derive_seeds", "LS_COUNTERS"]

CHECKPOINT_KIND = "multistart"
#: the local-search counters a start task reports back to the driver
LS_COUNTERS = ("ls_steps", "ls_improvements", "ls_instances_built", "ls_instances_reused")


@dataclass
class MultistartStats:
    """Aggregate counters across multistart iterations."""
    iterations: int = 0
    combinations: int = 0
    ls_improvements: int = 0
    ls_steps: int = 0
    # local-search pair instances built fresh / reused from the cache
    ls_instances_built: int = 0
    ls_instances_reused: int = 0
    iteration_costs: List[float] = field(default_factory=list)
    # resilience accounting (docs/RESILIENCE.md)
    deadline_expired: bool = False  # loop stopped early on the budget
    resumed_at: int = -1  # iteration restored from a checkpoint (-1 = fresh)
    checkpoints_written: int = 0
    # non-empty when the resume degraded (older generation / fresh start)
    checkpoint_recovery: dict = field(default_factory=dict)
    # the start waves' dispatch accounting: lost starts are counted here
    dispatch: ExecutionReport = field(default_factory=ExecutionReport)

    def incidents(self) -> dict:
        """Non-trivial resilience events, for run reports."""
        out = self.dispatch.incidents()
        if self.deadline_expired:
            out["deadline_expired"] = True
        if self.resumed_at >= 0:
            out["resumed_at"] = self.resumed_at
        if self.checkpoints_written:
            out["checkpoints_written"] = self.checkpoints_written
        if self.checkpoint_recovery:
            out["checkpoint_recovery"] = dict(self.checkpoint_recovery)
        return out

    @classmethod
    def summed(cls, parts: List["MultistartStats"]) -> "MultistartStats":
        """Runs on the disjoint components of one graph, as one run.

        Counters and dispatch accounting add up; ``iteration_costs[i]`` is
        the sum of the runs' ``i``-th costs over their common length, so
        with one start each ``min(iteration_costs)`` is the cost of the
        union of their partitions.
        """
        out = cls()
        for s in parts:
            for key in LS_COUNTERS + ("combinations",):
                setattr(out, key, getattr(out, key) + getattr(s, key))
            out.deadline_expired = out.deadline_expired or s.deadline_expired
            out.dispatch.absorb(s.dispatch)
        out.iteration_costs = [
            float(sum(costs)) for costs in zip(*(s.iteration_costs for s in parts))
        ]
        out.iterations = len(out.iteration_costs)
        return out


def derive_seeds(rng: np.random.Generator, n: int) -> List[int]:
    """``n`` start seeds drawn from ``rng``, fixed before any start runs."""
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


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
    stats.ls_instances_built += ls.instances_built
    stats.ls_instances_reused += ls.instances_reused
    return Solution.from_labels(g, state.labels, state.cost)


def _checkpoint_state(
    g: Graph,
    done: int,
    seeds: List[int],
    rng: np.random.Generator,
    best: Solution,
    pool: Optional[ElitePool],
    starts: int,
    entry_rng_crc: int,
) -> dict:
    return {
        "iteration": done,
        "starts": starts,
        "start_seeds": list(seeds),
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


def _restore(
    g: Graph,
    state: dict,
    pool: Optional[ElitePool],
    rng: np.random.Generator,
    entry_crc: int,
    seeds: List[int],
):
    """Validate and apply a checkpoint; returns (iterations done, best solution)."""
    fp = state.get("graph", {})
    if fp.get("n") != g.n or fp.get("m") != g.m:
        raise CheckpointError(
            f"checkpoint was written for a graph with n={fp.get('n')}, m={fp.get('m')}; "
            f"this graph has n={g.n}, m={g.m}"
        )
    check_resume(state, entry_crc, max(1, len(seeds)), seeds)
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

    Returns the best solution found and per-run statistics.  ``parallel``
    (a :class:`~repro.parallel.pool.ParallelRuntime`) only decides where the
    starts run; see the module docstring for the schedule and for deadline
    and checkpoint/resume semantics.
    """
    cfg = AssemblyConfig() if cfg is None else cfg
    rng = np.random.default_rng(0) if rng is None else rng
    runtime = RuntimeConfig() if runtime is None else runtime
    if budget is None and runtime.time_budget is not None:
        budget = runtime.make_budget()
    stats = MultistartStats()
    # fingerprint of the RNG stream at loop entry — a pure function of the
    # run's seed configuration, stored in every checkpoint so a resume
    # under a *different* seed config is rejected instead of diverging
    entry_crc = rng_state_checksum(rng.bit_generator.state)
    M = cfg.multistart
    # the whole schedule is fixed here, before any start runs: this is what
    # makes the outcome executor-independent
    seeds = [] if M == 1 else derive_seeds(rng, M)
    cap = cfg.pool_capacity or max(2, math.ceil(math.sqrt(M)))
    elite = ElitePool(cap) if cfg.use_combination else None
    best: Optional[Solution] = None
    done = 0  # leading scheduled iterations whose outcome is folded in
    ckpt = runtime.checkpoint_path
    if ckpt and runtime.resume:
        state, stats.checkpoint_recovery = load_checkpoint_safe(
            ckpt, CHECKPOINT_KIND, rng=rng, generations=runtime.checkpoint_generations
        )
        if state is not None:
            done, best = _restore(g, state, elite, rng, entry_crc, seeds)
            stats.resumed_at = done
    saved_at = done if stats.resumed_at >= 0 else -1

    def save() -> None:
        nonlocal saved_at
        if ckpt and best is not None and saved_at != done:
            save_checkpoint(
                ckpt,
                CHECKPOINT_KIND,
                _checkpoint_state(g, done, seeds, rng, best, elite, M, entry_crc),
                generations=runtime.checkpoint_generations,
                fault_plan=runtime.fault_plan,
                key=done,
            )
            stats.checkpoints_written += 1
            saved_at = done

    def save_if_due(before: int) -> None:
        every = runtime.checkpoint_every
        if done == M or done // every > before // every:
            save()

    def fold(candidates: List[Solution]) -> None:
        nonlocal best
        for c in candidates:
            if best is None or c.cost < best.cost:
                best = c
        stats.iterations += 1
        stats.iteration_costs.append(float(min(c.cost for c in candidates)))

    def dispatch(task, items: list) -> list:
        fn = functools.partial(task, g=g, U=U, cfg=cfg)
        with profile_span("assembly.multistart_wave"):
            results, report = resilient_map(
                fn, items, parallel=parallel, runtime=runtime, budget=budget
            )
        stats.dispatch.absorb(report)
        if report.deadline_skipped:
            # only a prefix of returned items is a resume boundary; the
            # rest reruns on resume
            results = results[: results.index(None)]
        for out in results:
            if out is not None:
                wstats = out[-1]
                if parallel is not None:
                    parallel.note_batch(wstats)
                for key in LS_COUNTERS:
                    setattr(stats, key, getattr(stats, key) + int(wstats.get(key, 0)))
        return results

    if M == 1 and done == 0:
        fold([_one_start(g, U, cfg, rng, stats)])
        done = 1
        save()
    # the first min(M, capacity) starts seed the elite pool; without
    # combination all M are one wave
    k0 = M if elite is None else min(M, cap)
    while done < M:
        if budget is not None and budget.checkpoint("multistart"):
            stats.deadline_expired = True
            break
        before = done
        if done < k0 or len(elite) < 2:
            # independent starts: the first wave, or a round short of two
            # elite parents (e.g. after lost starts)
            end = k0 if done < k0 else min(M, done + cap)
            for out in dispatch(run_start_task, seeds[done:end]):
                done += 1
                if out is not None:  # None: a start lost to faults
                    sol = Solution.from_labels(g, out[0], out[1])
                    if elite is not None:
                        elite.add(sol)
                    fold([sol])
                save_if_due(done - 1)
            continue
        idxs = range(done, min(M, done + cap))
        rng_before = rng.bit_generator.state
        items = []
        for i in idxs:
            p1, p2 = elite.sample_two(rng)
            items.append(
                (
                    seeds[i],
                    np.asarray(p1.labels), float(p1.cost),
                    np.asarray(p2.labels), float(p2.cost),
                )
            )
        results = dispatch(combine_iteration_task, items)
        if len(results) < len(items):
            # a round cut by the deadline is dropped whole: its parents
            # were sampled together, so only its start is a boundary
            rng.bit_generator.state = rng_before
            stats.deadline_expired = True
            break
        for out in results:
            if out is None:
                continue
            p, p_prime, p_second = (Solution.from_labels(g, *lc) for lc in out[:3])
            stats.combinations += 2
            elite.add(p_second)
            elite.add(p_prime)
            elite.add(p)
            fold([p, p_prime, p_second])
        done = idxs[-1] + 1
        save_if_due(before)

    if best is None:
        # no start returned; keep the anytime guarantee by running the
        # first scheduled start inline
        fold([_one_start(g, U, cfg, np.random.default_rng(seeds[0]), stats)])
    if stats.deadline_expired:
        # an interrupted run always leaves a resumable checkpoint
        save()
    return best, stats
