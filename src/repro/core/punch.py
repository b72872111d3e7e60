"""The PUNCH driver: filtering + assembly on a connected input.

``run_punch`` is the library's main entry point for the standard (cell-size
bounded, unbalanced) graph partitioning problem of the paper: given ``U``,
find a partition into cells of size at most ``U`` minimizing the total
weight of cut edges.  Disconnected inputs are handled by partitioning each
connected component independently, as the paper's preliminaries allow.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..assembly.driver import run_assembly
from ..filtering.pipeline import run_filtering
from ..graph.components import connected_components
from ..graph.graph import Graph
from ..graph.subgraph import induced_subgraph
from ..lint.sanitizer import get_sanitizer
from ..runtime.budget import RunBudget
from .config import PunchConfig
from .partition import Partition
from .result import PunchResult

__all__ = ["run_punch"]


def run_punch(
    g: Graph,
    U: int,
    config: Optional[PunchConfig] = None,
    rng: np.random.Generator | None = None,
    budget: RunBudget | None = None,
    parallel=None,
    cut_cache=None,
) -> PunchResult:
    """Partition ``g`` into cells of size at most ``U`` with PUNCH.

    With ``config.runtime.time_budget`` set (or an explicit ``budget``), the
    whole run shares one deadline: filtering stops contracting and assembly
    stops iterating when it expires, and the best valid partition found so
    far is returned.  See ``docs/RESILIENCE.md``.

    With ``config.parallel`` set, one shared-memory worker pool
    (:class:`~repro.parallel.pool.ParallelRuntime`) is created here, reused
    by natural-cut detection and multistart assembly across all components,
    and torn down — pool and shared segments — when the run ends, even on
    error.  An explicit ``parallel`` argument borrows an existing runtime
    (the caller keeps ownership, and the runtime keeps the supervision
    policy it was built with).  The partition is bit-identical across
    backends; see ``docs/PERFORMANCE.md``.
    """
    config = PunchConfig() if config is None else config
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if U < int(g.vsize.max(initial=1)):
        raise ValueError("U must be at least the largest vertex size")
    if budget is None and config.runtime.time_budget is not None:
        budget = config.runtime.make_budget()

    from ..parallel.pool import ParallelRuntime, serial_supervision

    owns_parallel = False
    supervision: dict = {}
    if parallel is None and config.parallel is not None:
        parallel = ParallelRuntime(config.parallel, config.runtime)
        owns_parallel = True
    elif parallel is None:
        supervision = serial_supervision(config.runtime)
    try:
        ncomp, comp = connected_components(g)
        if ncomp > 1:
            result = _run_per_component(
                g, U, config, rng, ncomp, comp, budget, parallel, cut_cache
            )
            if parallel is None:
                result.supervisor_report = supervision
            return result

        filt = run_filtering(
            g,
            U,
            config.filter,
            rng,
            runtime=config.runtime,
            budget=budget,
            parallel=parallel,
            cut_cache=cut_cache,
        )
        t0 = time.perf_counter()
        asm = run_assembly(
            filt.fragment_graph,
            U,
            config.assembly,
            rng,
            runtime=config.runtime,
            budget=budget,
            parallel=parallel,
        )
        time_assembly = time.perf_counter() - t0

        labels = asm.labels[filt.map]
        partition = Partition(g, labels)
        # assembly reports its cost on the fragment graph; projecting through
        # filt.map must conserve it exactly (boundary-edge accounting), and
        # PUNCH cells are connected by construction in the unbalanced case
        get_sanitizer().check_partition(
            "punch", g, partition.labels, U=U, expected_cost=asm.cost
        )
        return PunchResult(
            partition=partition,
            U=U,
            filter_result=filt,
            assembly_stats=asm.stats,
            time_tiny=filt.time_tiny,
            time_natural=filt.time_natural,
            time_assembly=time_assembly,
            parallel_report=parallel.report() if parallel is not None else {},
            supervisor_report=(
                parallel.supervisor_report() if parallel is not None else supervision
            ),
        )
    finally:
        if owns_parallel:
            parallel.close()


def _run_per_component(
    g: Graph,
    U: int,
    config: PunchConfig,
    rng: np.random.Generator,
    ncomp: int,
    comp: np.ndarray,
    budget: RunBudget | None = None,
    parallel=None,
    cut_cache=None,
) -> PunchResult:
    """Partition each connected component independently and merge.

    A parallel runtime owned by the top-level call is passed down so every
    per-component sub-run reuses the same worker pool.
    """
    from dataclasses import replace

    if config.runtime.checkpoint_path is not None:
        # one checkpoint file cannot serve several per-component sub-runs;
        # the shared budget still bounds the whole multi-component run
        config = replace(
            config,
            runtime=replace(config.runtime, checkpoint_path=None, resume=False),
        )
    labels = np.zeros(g.n, dtype=np.int64)
    offset = 0
    total = dict(time_tiny=0.0, time_natural=0.0, time_assembly=0.0)
    parts = []
    for c in range(ncomp):
        members = np.flatnonzero(comp == c)
        if len(members) == 1:
            labels[members] = offset
            offset += 1
            continue
        sub, sub_to_g, _ = induced_subgraph(g, members)
        res = run_punch(
            sub, U, config, rng, budget=budget, parallel=parallel, cut_cache=cut_cache
        )
        labels[sub_to_g] = res.partition.labels + offset
        offset += res.partition.num_cells
        total["time_tiny"] += res.time_tiny
        total["time_natural"] += res.time_natural
        total["time_assembly"] += res.time_assembly
        parts.append(res)
    partition = Partition(g, labels)
    assert parts, "a graph of isolated vertices has no component to partition"
    # per-component sub-runs already checked cost accounting; the merged
    # labeling still has to respect the bound and keep cells connected
    get_sanitizer().check_partition("punch.components", g, partition.labels, U=U)
    return PunchResult(
        partition=partition,
        U=U,
        filter_result=parts[-1].filter_result,
        assembly_stats=parts[-1].assembly_stats,
        parallel_report=parallel.report() if parallel is not None else {},
        supervisor_report=parallel.supervisor_report() if parallel is not None else {},
        components=parts,
        **total,
    )
