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

Resilience (``docs/RESILIENCE.md``): every (start, rebalance) step only
ever *adds* a candidate balanced solution, so the loop is anytime — once a
feasible solution exists, an expired :class:`~repro.runtime.budget.RunBudget`
stops the search and returns the best so far.  With
``config.runtime.checkpoint_path`` set, progress (loop indices, the current
unbalanced solution, the best balanced labels, and the RNG state) is
periodically serialized so a killed run can resume via
``config.runtime.resume``; a resumed run can only improve on the cost it
had at kill time.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from ..assembly.cells import PartitionState
from ..assembly.greedy import greedy_labels_for_graph
from ..assembly.local_search import local_search
from ..core.config import BalancedConfig
from ..core.partition import Partition
from ..core.result import BalancedResult
from ..filtering.pipeline import run_filtering
from ..graph.graph import Graph
from ..lint.sanitizer import get_sanitizer
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from ..runtime.checkpoint import (
    CheckpointError,
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

    from ..parallel.pool import ParallelRuntime, serial_supervision

    parallel = None
    supervision: dict = {}
    if config.parallel is not None:
        parallel = ParallelRuntime(config.parallel, config.runtime)
    else:
        supervision = serial_supervision(config.runtime)
    try:
        U_filter = max(int(g.vsize.max(initial=1)), U_star // config.filter_divisor)
        filt = run_filtering(
            g, U_filter, config.filter, rng,
            runtime=config.runtime, budget=budget, parallel=parallel,
        )
        result = balanced_from_fragments(
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
        if parallel is None:
            result.supervisor_report = supervision
        return result
    finally:
        if parallel is not None:
            parallel.close()


def _checkpoint_state(
    frag: Graph,
    k: int,
    U_star: int,
    start: int,
    reb: int,
    start_labels,
    rng: np.random.Generator,
    best_labels,
    best_cost: float,
    attempts: int,
    failures: int,
    unbalanced_costs,
    entry_rng_crc=None,
) -> dict:
    return {
        "start": int(start),
        "rebalance": int(reb),
        "entry_rng_crc": entry_rng_crc,
        "start_labels": None if start_labels is None else np.asarray(start_labels).copy(),
        "rng_state": rng.bit_generator.state,
        "best_labels": None if best_labels is None else np.asarray(best_labels).copy(),
        "best_cost": float(best_cost),
        "attempts": int(attempts),
        "failures": int(failures),
        "unbalanced_costs": list(unbalanced_costs),
        "problem": {"n": int(frag.n), "m": int(frag.m), "k": int(k), "U_star": int(U_star)},
    }


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
    several randomized assembly+rebalance runs.  See the module docstring
    for deadline and checkpoint/resume semantics.

    ``parallel`` (a :class:`~repro.parallel.pool.ParallelRuntime`) runs the
    independent unbalanced starts on the shared worker pool with seeds
    derived up front from the parent RNG; each start is then rebalanced
    sequentially with its own derived generator, so the outcome is
    executor-independent.  Parallel starts are skipped when checkpointing
    is enabled — the sequential loop owns the mid-start resume format.
    """
    t_start = time.perf_counter() if t_start is None else t_start
    runtime = config.runtime
    n_starts = max(1, math.ceil(config.numerator / k))
    asm_cfg = replace(config.assembly, phi=config.phi_unbalanced)

    if parallel is not None and runtime.checkpoint_path is None and n_starts > 1:
        return _balanced_parallel(
            g, frag, frag_map, k, U_star, config, rng, t_start, budget,
            filter_report, parallel, n_starts, asm_cfg,
        )

    best_labels = None
    best_cost = float("inf")
    attempts = 0
    failures = 0
    unbalanced_costs = []
    deadline_expired = False
    checkpoints_written = 0
    resumed_at = -1
    checkpoint_recovery: dict = {}
    # RNG stream fingerprint at loop entry: pure function of the run's seed
    # configuration, used to reject resumes under a different seed config
    entry_crc = rng_state_checksum(rng.bit_generator.state)

    start0 = 0
    reb0 = 0
    resumed_labels = None
    ckpt = runtime.checkpoint_path
    if ckpt and runtime.resume:
        state, checkpoint_recovery = load_checkpoint_safe(
            ckpt, CHECKPOINT_KIND, rng=rng, generations=runtime.checkpoint_generations
        )
        if state is not None:
            fp = state.get("problem", {})
            if (
                fp.get("n") != frag.n
                or fp.get("m") != frag.m
                or fp.get("k") != k
                or fp.get("U_star") != U_star
            ):
                raise CheckpointError(
                    "checkpoint does not match this problem "
                    f"(expected n={frag.n} m={frag.m} k={k} U*={U_star}, got {fp})"
                )
            stored_crc = state.get("entry_rng_crc")
            if stored_crc is not None and stored_crc != entry_crc:
                raise CheckpointError(
                    "checkpoint was written by a run with a different seed "
                    "configuration (RNG entry-state checksum mismatch); resuming "
                    "would silently diverge from both runs — pass the original "
                    "seed or start fresh"
                )
            start0 = state["start"]
            reb0 = state["rebalance"]
            resumed_labels = state["start_labels"]
            rng.bit_generator.state = state["rng_state"]
            best_labels = state["best_labels"]
            best_cost = state["best_cost"]
            attempts = state["attempts"]
            failures = state["failures"]
            unbalanced_costs = state["unbalanced_costs"]
            resumed_at = start0

    def save(start, reb, start_labels):
        save_checkpoint(
            ckpt,
            CHECKPOINT_KIND,
            _checkpoint_state(
                frag, k, U_star, start, reb, start_labels, rng,
                best_labels, best_cost, attempts, failures, unbalanced_costs,
                entry_rng_crc=entry_crc,
            ),
            generations=runtime.checkpoint_generations,
            fault_plan=runtime.fault_plan,
            key=start * (config.rebalance_attempts + 1) + reb,
        )

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

        if si == start0 and resumed_labels is not None:
            # mid-start resume: the unbalanced solution was checkpointed
            state = PartitionState(frag, resumed_labels)
            ri0 = reb0
        else:
            with profile_span("balanced.unbalanced_start"):
                labels = greedy_labels_for_graph(
                    frag, U_star, rng, asm_cfg.score_a, asm_cfg.score_b
                )
                state = PartitionState(frag, labels)
                local_search(
                    state,
                    U_star,
                    variant=asm_cfg.local_search,
                    phi_max=asm_cfg.phi,
                    rng=rng,
                    score_a=asm_cfg.score_a,
                    score_b=asm_cfg.score_b,
                )
            unbalanced_costs.append(state.cost)
            ri0 = 0
            if ckpt:
                save(si, 0, state.labels)
                checkpoints_written += 1

        for ri in range(ri0, config.rebalance_attempts):
            if (
                best_labels is not None
                and budget is not None
                and budget.checkpoint("balanced_rebalance")
            ):
                deadline_expired = True
                break
            attempts += 1
            with profile_span("balanced.rebalance"):
                out = rebalance(
                    frag,
                    state.labels,
                    k,
                    U_star,
                    config.assembly,
                    config.phi_rebalance,
                    rng,
                )
            if out.success:
                if out.cost < best_cost:
                    best_cost = out.cost
                    best_labels = out.labels.copy()
            else:
                failures += 1
            if ckpt and (ri + 1) % runtime.checkpoint_every == 0:
                save(si, ri + 1, state.labels)
                checkpoints_written += 1
            if out.success and out.rounds == 0 and state.num_cells() <= k:
                break  # already balanced; rebalancing is deterministic here
        if deadline_expired:
            break
        if ckpt:
            save(si + 1, 0, None)
            checkpoints_written += 1

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
        filter_report=dict(filter_report or {}),
        parallel_report=parallel.report() if parallel is not None else {},
        supervisor_report=parallel.supervisor_report() if parallel is not None else {},
    )


def _balanced_parallel(
    g: Graph,
    frag: Graph,
    frag_map: np.ndarray,
    k: int,
    U_star: int,
    config: BalancedConfig,
    rng: np.random.Generator,
    t_start: float,
    budget: RunBudget | None,
    filter_report: Optional[dict],
    parallel,
    n_starts: int,
    asm_cfg,
) -> BalancedResult:
    """Steps 2-4 with the unbalanced starts on the worker pool.

    All start and rebalance seeds are derived from the parent RNG before
    dispatch; the starts run as one wave against the shared fragment graph
    and each surviving solution is rebalanced sequentially with its own
    generator.  Skipped starts (faults, deadline) lose only their start.
    """
    import functools

    from ..parallel.pool import resilient_map
    from ..parallel.tasks import unbalanced_start_task

    start_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=n_starts)]
    rebal_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=n_starts)]
    handle = parallel.share(frag)
    task = functools.partial(
        unbalanced_start_task, handle=handle, U_star=U_star, cfg=asm_cfg
    )
    with profile_span("balanced.unbalanced_starts"):
        results, _report = resilient_map(
            task, start_seeds, parallel=parallel, runtime=config.runtime, budget=budget
        )

    solutions = []
    for si, out in enumerate(results):
        if out is None:
            continue
        labels, cost, wstats = out
        parallel.note_batch(wstats)
        solutions.append((si, labels, float(cost)))
    if not solutions:
        # every start was skipped; run the first scheduled start inline so
        # the driver keeps its "at least one attempt" guarantee
        rng0 = np.random.default_rng(start_seeds[0])
        with profile_span("balanced.unbalanced_start"):
            labels = greedy_labels_for_graph(
                frag, U_star, rng0, asm_cfg.score_a, asm_cfg.score_b
            )
            state = PartitionState(frag, labels)
            local_search(
                state,
                U_star,
                variant=asm_cfg.local_search,
                phi_max=asm_cfg.phi,
                rng=rng0,
                score_a=asm_cfg.score_a,
                score_b=asm_cfg.score_b,
            )
        solutions = [(0, state.labels, float(state.cost))]

    best_labels = None
    best_cost = float("inf")
    attempts = 0
    failures = 0
    unbalanced_costs = []
    deadline_expired = False

    for si, labels, cost in solutions:
        if (
            best_labels is not None
            and budget is not None
            and budget.checkpoint("balanced_start")
        ):
            deadline_expired = True
            break
        unbalanced_costs.append(cost)
        state = PartitionState(frag, labels)
        rng_i = np.random.default_rng(rebal_seeds[si])
        for _ri in range(config.rebalance_attempts):
            if (
                best_labels is not None
                and budget is not None
                and budget.checkpoint("balanced_rebalance")
            ):
                deadline_expired = True
                break
            attempts += 1
            with profile_span("balanced.rebalance"):
                out = rebalance(
                    frag,
                    state.labels,
                    k,
                    U_star,
                    config.assembly,
                    config.phi_rebalance,
                    rng_i,
                )
            if out.success:
                if out.cost < best_cost:
                    best_cost = out.cost
                    best_labels = out.labels.copy()
            else:
                failures += 1
            if out.success and out.rounds == 0 and state.num_cells() <= k:
                break  # already balanced; rebalancing is deterministic here
        if deadline_expired:
            break

    if best_labels is None:
        hint = "try a larger epsilon or a smaller filter_divisor"
        if budget is not None and budget.expired():
            hint = (
                "the run budget expired before any solution could be "
                "rebalanced; increase the time budget"
            )
        raise RuntimeError(f"balanced PUNCH failed to rebalance any solution; {hint}")

    partition = Partition(g, best_labels[frag_map])
    # same invariants as the sequential loop: pooled starts must not change
    # what a valid balanced solution looks like
    get_sanitizer().check_partition(
        "balanced.parallel", g, partition.labels, U=U_star,
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
        filter_report=dict(filter_report or {}),
        parallel_report=parallel.report(),
        supervisor_report=parallel.supervisor_report(),
    )
