"""Balanced PUNCH (paper Sections 4-5).

Given ``k`` and the tolerated imbalance ``epsilon``, each cell must have
size at most ``U* = floor((1 + eps) * ceil(n / k))``.  The driver follows
the paper's recipe:

1. run the filtering phase once with ``U = U*/3`` (smaller fragments make
   rebalancing feasible);
2. create ``ceil(32/k)`` (default) or ``ceil(256/k)`` (strong) unbalanced
   solutions with ``U = U*`` and ``phi = 512``;
3. rebalance each solution 50 times with ``phi = 128``;
4. return the best balanced solution found.

Step 2 follows the schedule of :mod:`repro.assembly.multistart`: one start
seed and one rebalance seed per start are derived from the caller's RNG
before any start runs, and the starts run as one wave of
:func:`~repro.assembly.multistart._one_start` tasks — on the run's
:class:`~repro.parallel.pool.ParallelRuntime`, or inline with
``parallel=None``.  Each solution is then rebalanced in start order with
its own generator, so the outcome is the same with and without a worker
pool.  A single start draws from the caller's RNG, inline, for both steps.

Resilience (``docs/RESILIENCE.md``): every (start, rebalance) step only
ever *adds* a candidate balanced solution, so the loop is anytime — once a
feasible solution exists, an expired :class:`~repro.runtime.budget.RunBudget`
stops the search and returns the best so far.  Starts lost to faults or to
the deadline are reported in ``run_report()``.  With
``config.runtime.checkpoint_path`` set, progress (the start schedule, loop
indices, the current unbalanced solution and its rebalance generator, and
the best balanced labels) is saved every ``checkpoint_every`` rebalance
attempts and after each start, so a killed run resumed via
``config.runtime.resume`` ends with the uninterrupted run's labels.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from ..assembly.multistart import MultistartStats, _one_start, derive_seeds
from ..core.config import BalancedConfig
from ..core.partition import Partition
from ..core.result import BalancedResult
from ..filtering.pipeline import run_filtering
from ..graph.graph import Graph
from ..lint.sanitizer import get_sanitizer
from ..parallel.pool import ExecutionReport, ParallelRuntime, resilient_map
from ..parallel.tasks import run_start_task
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from ..runtime.checkpoint import (
    CheckpointError,
    check_resume,
    load_checkpoint_safe,
    rng_state_checksum,
    save_checkpoint,
)
from .rebalance import rebalance

__all__ = ["run_balanced_punch", "balanced_from_fragments", "balanced_cell_bound"]

CHECKPOINT_KIND = "balanced"


def balanced_cell_bound(total_size: int, k: int, epsilon: float) -> int:
    """``U* = floor((1 + eps) * ceil(n / k))``."""
    return int(math.floor((1.0 + epsilon) * math.ceil(total_size / k)))


def run_balanced_punch(
    g: Graph,
    k: int,
    epsilon: float | None = None,
    config: Optional[BalancedConfig] = None,
    rng: np.random.Generator | None = None,
    budget: RunBudget | None = None,
) -> BalancedResult:
    """Find an epsilon-balanced partition of ``g`` into at most ``k`` cells."""
    config = BalancedConfig() if config is None else config
    if epsilon is not None:
        config = replace(config, epsilon=epsilon)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget is None and config.runtime.time_budget is not None:
        budget = config.runtime.make_budget()

    t_start = time.perf_counter()
    n_total = g.total_size()
    U_star = balanced_cell_bound(n_total, k, config.epsilon)
    if U_star < int(g.vsize.max(initial=1)):
        raise ValueError("U* smaller than the largest vertex size; infeasible")

    parallel = None
    if config.parallel is not None:
        parallel = ParallelRuntime(config.parallel, config.runtime)
    try:
        U_filter = max(int(g.vsize.max(initial=1)), U_star // config.filter_divisor)
        filt = run_filtering(
            g, U_filter, config.filter, rng,
            runtime=config.runtime, budget=budget, parallel=parallel,
        )
        return balanced_from_fragments(
            g,
            filt.fragment_graph,
            filt.map,
            k,
            U_star,
            config,
            rng,
            t_start=t_start,
            budget=budget,
            filter_report=filt.run_report(),
            parallel=parallel,
        )
    finally:
        if parallel is not None:
            parallel.close()


def balanced_from_fragments(
    g: Graph,
    frag: Graph,
    frag_map: np.ndarray,
    k: int,
    U_star: int,
    config: BalancedConfig,
    rng: np.random.Generator,
    t_start: float | None = None,
    budget: RunBudget | None = None,
    filter_report: Optional[dict] = None,
    parallel=None,
) -> BalancedResult:
    """Steps 2-4 of the balanced recipe, given an existing fragment graph.

    Exposed separately so experiments can amortize one filtering run over
    several randomized assembly+rebalance runs.  ``parallel`` (a
    :class:`~repro.parallel.pool.ParallelRuntime`) only decides where the
    unbalanced starts run; see the module docstring for the schedule and
    for deadline and checkpoint/resume semantics.
    """
    t_start = time.perf_counter() if t_start is None else t_start
    runtime = config.runtime
    n_starts = max(1, math.ceil(config.numerator / k))
    asm_cfg = replace(config.assembly, phi=config.phi_unbalanced)
    # RNG stream fingerprint at loop entry: pure function of the run's seed
    # configuration, used to reject resumes under a different seed config
    entry_crc = rng_state_checksum(rng.bit_generator.state)
    # the schedule is fixed before any start runs; a single start keeps
    # drawing from the caller's RNG
    start_seeds = derive_seeds(rng, n_starts) if n_starts > 1 else []
    rebal_seeds = derive_seeds(rng, n_starts) if n_starts > 1 else []

    def rebalance_rng(si: int) -> np.random.Generator:
        return rng if n_starts == 1 else np.random.default_rng(rebal_seeds[si])

    best_labels = None
    best_cost = float("inf")
    attempts = 0
    failures = 0
    unbalanced_costs: list = []
    deadline_expired = False
    checkpoints_written = 0
    resumed_at = -1
    checkpoint_recovery: dict = {}
    starts_report = ExecutionReport()

    start0 = 0
    reb0 = 0
    resumed_labels = resumed_rng_state = None
    problem = {"n": int(frag.n), "m": int(frag.m), "k": int(k), "U_star": int(U_star)}
    ckpt = runtime.checkpoint_path
    if ckpt and runtime.resume:
        state, checkpoint_recovery = load_checkpoint_safe(
            ckpt, CHECKPOINT_KIND, rng=rng, generations=runtime.checkpoint_generations
        )
        if state is not None:
            if state.get("problem") != problem:
                raise CheckpointError(
                    "checkpoint does not match this problem "
                    f"(expected {problem}, got {state.get('problem')})"
                )
            check_resume(state, entry_crc, n_starts, start_seeds)
            start0 = state["start"]
            reb0 = state["rebalance"]
            resumed_labels = state["start_labels"]
            resumed_rng_state = state["rng_state"]
            best_labels = state["best_labels"]
            best_cost = state["best_cost"]
            attempts = state["attempts"]
            failures = state["failures"]
            unbalanced_costs = state["unbalanced_costs"]
            resumed_at = start0

    def save(start: int, reb: int, start_labels, reb_rng: np.random.Generator) -> None:
        nonlocal checkpoints_written
        if not ckpt:
            return
        state = {
            "start": int(start),
            "rebalance": int(reb),
            "starts": n_starts,
            "start_seeds": list(start_seeds),
            "entry_rng_crc": entry_crc,
            "start_labels": None if start_labels is None else np.asarray(start_labels).copy(),
            "rng_state": reb_rng.bit_generator.state,
            "best_labels": None if best_labels is None else np.asarray(best_labels).copy(),
            "best_cost": float(best_cost),
            "attempts": int(attempts),
            "failures": int(failures),
            "unbalanced_costs": list(unbalanced_costs),
            "problem": problem,
        }
        save_checkpoint(
            ckpt,
            CHECKPOINT_KIND,
            state,
            generations=runtime.checkpoint_generations,
            fault_plan=runtime.fault_plan,
            key=start * (config.rebalance_attempts + 1) + reb,
        )
        checkpoints_written += 1

    # step 2: the unbalanced starts not yet rebalanced (a mid-start resume
    # brings its start's labels along)
    first = start0 + (resumed_labels is not None)
    starts: dict = {}  # start index -> (labels, cost)
    with profile_span("balanced.unbalanced_starts"):
        if n_starts == 1 and first == 0:
            sol = _one_start(frag, U_star, asm_cfg, rng, MultistartStats())
            starts[0] = (sol.labels, sol.cost)
        elif first < n_starts:
            task = functools.partial(
                run_start_task,
                g=frag,
                U=U_star,
                cfg=asm_cfg,
            )
            results, report = resilient_map(
                task, start_seeds[first:], parallel=parallel, runtime=runtime, budget=budget
            )
            starts_report.absorb(report)
            for si, out in enumerate(results, first):
                if out is not None:
                    if parallel is not None:
                        parallel.note_batch(out[2])
                    starts[si] = out[:2]
            if not starts and resumed_labels is None and best_labels is None:
                # every start was lost; run the first one inline so the
                # driver keeps its "at least one attempt" guarantee
                seed_rng = np.random.default_rng(start_seeds[first])
                sol = _one_start(frag, U_star, asm_cfg, seed_rng, MultistartStats())
                starts[first] = (sol.labels, sol.cost)

    # steps 3-4: rebalance each solution in start order
    for si in range(start0, n_starts):
        # the deadline is honored only once a feasible solution exists, so
        # an expired budget still yields a valid (if unpolished) result
        if (
            best_labels is not None
            and budget is not None
            and budget.checkpoint("balanced_start")
        ):
            deadline_expired = True
            break
        reb_rng = rebalance_rng(si)
        if si == start0 and resumed_labels is not None:
            labels, ri0 = resumed_labels, reb0
            reb_rng.bit_generator.state = resumed_rng_state
        elif si in starts:
            labels, cost = starts[si]
            ri0 = 0
            unbalanced_costs.append(float(cost))
        else:
            continue  # a lost start (counted in the dispatch report)
        cells = len(np.unique(labels))
        for ri in range(ri0, config.rebalance_attempts):
            if (
                best_labels is not None
                and budget is not None
                and budget.checkpoint("balanced_rebalance")
            ):
                deadline_expired = True
                save(si, ri, labels, reb_rng)
                break
            attempts += 1
            with profile_span("balanced.rebalance"):
                out = rebalance(
                    frag,
                    labels,
                    k,
                    U_star,
                    config.assembly,
                    config.phi_rebalance,
                    reb_rng,
                )
            if out.success:
                if out.cost < best_cost:
                    best_cost = out.cost
                    best_labels = out.labels.copy()
            else:
                failures += 1
            if (ri + 1) % runtime.checkpoint_every == 0:
                save(si, ri + 1, labels, reb_rng)
            if out.success and out.rounds == 0 and cells <= k:
                break  # already balanced; rebalancing is deterministic here
        if deadline_expired:
            break
        save(si + 1, 0, None, reb_rng)

    if best_labels is None:
        hint = "try a larger epsilon or a smaller filter_divisor"
        if budget is not None and budget.expired():
            hint = (
                "the run budget expired before any solution could be "
                "rebalanced; increase the time budget"
            )
        raise RuntimeError(f"balanced PUNCH failed to rebalance any solution; {hint}")

    partition = Partition(g, best_labels[frag_map])
    # rebalancing may disconnect cells (paper Section 4), so only the size
    # bound and the fragment-to-input cost projection are asserted here
    get_sanitizer().check_partition(
        "balanced", g, partition.labels, U=U_star,
        expected_cost=best_cost, require_connected=False,
    )
    return BalancedResult(
        partition=partition,
        k=k,
        epsilon=config.epsilon,
        U_star=U_star,
        time_total=time.perf_counter() - t_start,
        attempts=attempts,
        failed_rebalances=failures,
        unbalanced_costs=unbalanced_costs,
        deadline_expired=deadline_expired,
        resumed_at=resumed_at,
        checkpoints_written=checkpoints_written,
        checkpoint_recovery=checkpoint_recovery,
        assembly_report=starts_report.incidents(),
        filter_report=dict(filter_report or {}),
        parallel_report=parallel.report() if parallel is not None else {},
        supervisor_report=parallel.supervisor_report() if parallel is not None else {},
    )
