"""Incremental repartitioning: repair a PUNCH partition under graph deltas.

The paper's pipeline is batch-only — any edge change forces a full
filter→assembly rerun.  :class:`IncrementalUpdater` makes the partition
*live*: a :class:`~repro.updates.deltas.DeltaBatch` is materialized, its
dirty region computed (touched cells + BFS halo,
:func:`~repro.updates.journal.compute_dirty_region`), and only that region
is re-filtered and re-assembled — natural-cut detection and multistart
local search run on the induced dirty subgraph, reusing
:class:`~repro.perf.cut_cache.CutCache` entries whose contracted-network
fingerprints the deltas did not touch.  Clean cells keep their labels,
members, and (downstream) their overlay clique rows.

Correctness contract
--------------------
- **Weight-only batches** never change the partition; the patched overlay
  (:func:`~repro.crp.overlay.patch_overlay_weights`) is bit-identical to a
  from-scratch ``customize_overlay`` on the new metric.
- **Structural batches** produce a partition that satisfies every
  sanitizer invariant (size bound, size/cost accounting, connected cells),
  and the patched overlay answers queries exactly equal to a fresh build
  on the mutated graph.  Both are property-tested
  (``tests/test_property_updates.py``).

A *quality guard* bounds repair-induced degradation: when the repaired cut
exceeds ``quality_ratio`` × (previous cost + weight of batch-added edges),
or the dirty region exceeds ``max_dirty_fraction`` of the graph, the
updater falls back to a full PUNCH rebuild of the mutated graph — slower
but never worse than batch recomputation.  Fallbacks are counted in the
journal and surface through ``run_report()["updates"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..core.config import PunchConfig
from ..core.partition import Partition
from ..core.punch import run_punch
from ..core.result import PunchResult, sanitizer_section
from ..graph.graph import Graph
from ..graph.subgraph import induced_subgraph
from ..lint.sanitizer import get_sanitizer
from ..perf.cut_cache import CutCache
from .deltas import DeltaBatch, MutatedGraph, apply_delta_batch
from .journal import DirtyRegionJournal, UpdateRecord, compute_dirty_region

__all__ = ["UpdateConfig", "UpdateResult", "IncrementalUpdater"]


@dataclass(frozen=True)
class UpdateConfig:
    """Tunables of the incremental update engine.

    ``halo`` is the BFS depth of the dirty-region expansion over the
    cell-adjacency graph; ``quality_ratio`` is the repair degradation
    bound (fall back to a full rebuild when the repaired cut exceeds
    ``quality_ratio * (cost_before + added edge weight)``);
    ``max_dirty_fraction`` caps the dirty region's share of the graph
    before localized repair stops paying and the updater rebuilds.
    """

    halo: int = 1
    quality_ratio: float = 1.5
    max_dirty_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.halo < 0:
            raise ValueError("halo must be >= 0")
        if self.quality_ratio < 1.0:
            raise ValueError("quality_ratio must be >= 1 (1 = no degradation allowed)")
        if not (0.0 < self.max_dirty_fraction <= 1.0):
            raise ValueError("max_dirty_fraction must be in (0, 1]")


@dataclass
class UpdateResult:
    """Outcome of one applied batch.

    ``reusable`` maps each *new* cell id whose structure (members,
    internal edges, boundary, internal metric) is untouched to its *old*
    cell id — exactly the cells whose overlay clique rows can be copied
    instead of recomputed.  ``dirty_cells`` are the new cell ids that must
    be rebuilt.  ``eid_map`` remaps old undirected edge ids (``-1`` =
    removed).
    """

    graph: Graph
    partition: Partition
    mutated: MutatedGraph
    record: UpdateRecord
    mode: str  # "patched" | "rebuilt"
    reusable: Dict[int, int]
    dirty_cells: List[int]

    @property
    def structural(self) -> bool:
        return self.mutated.structural

    @property
    def eid_map(self) -> np.ndarray:
        return self.mutated.eid_map


class IncrementalUpdater:
    """Stateful repair engine over one evolving graph + partition.

    Owns the current :class:`~repro.core.partition.Partition`, a
    persistent :class:`~repro.perf.cut_cache.CutCache` shared across every
    localized re-filtering (entries whose fingerprints the deltas did not
    touch hit again), and the :class:`DirtyRegionJournal`.
    """

    def __init__(
        self,
        partition: Partition,
        U: int,
        config: Optional[UpdateConfig] = None,
        punch_config: Optional[PunchConfig] = None,
    ) -> None:
        if U < int(partition.graph.vsize.max(initial=1)):
            raise ValueError("U must be at least the largest vertex size")
        self.partition = partition
        self.graph = partition.graph
        self.U = int(U)
        self.config = config if config is not None else UpdateConfig()
        self.punch_config = punch_config if punch_config is not None else PunchConfig()
        self.cut_cache = CutCache()
        self.journal = DirtyRegionJournal()
        # PunchResult of the most recent repair/rebuild run (None for
        # weight-only updates): checkpoint-recovery and supervision
        # telemetry of the inner run, for tests and debugging
        self.last_punch_result: Optional[PunchResult] = None
        self._seq = 0

    # -- internals ---------------------------------------------------------

    def _derived_config(self) -> PunchConfig:
        """Per-update deterministic seed derivation (repair RNG isolation)."""
        base = self.punch_config.seed if self.punch_config.seed is not None else 0
        return self.punch_config.with_seed(int(base) + 1_000_003 * (self._seq + 1))

    def _full_rebuild(self, g2: Graph) -> Partition:
        res = run_punch(g2, self.U, self._derived_config(), cut_cache=self.cut_cache)
        self.last_punch_result = res
        return res.partition

    def _localized_repair(
        self, g2: Graph, dirty_vertices: np.ndarray
    ) -> "tuple[np.ndarray, int]":
        """Repartition the dirty region; returns ``(labels2, num_sub_cells)``.

        Clean vertices keep their old labels; dirty-region vertices (and
        batch-new vertices) get fresh labels past the old cell-id range, so
        the dense remap keeps clean cells in ascending old order followed
        by the repaired cells.
        """
        K = self.partition.num_cells
        sub, sub_to_g, _ = induced_subgraph(g2, dirty_vertices)
        if sub.m == 0:
            # edgeless region (isolated vertices): every vertex is a cell;
            # run_punch's per-component driver cannot represent this case
            sub_labels = np.arange(sub.n, dtype=np.int64)
            num_sub_cells = sub.n
        else:
            res = run_punch(sub, self.U, self._derived_config(), cut_cache=self.cut_cache)
            self.last_punch_result = res
            sub_labels = res.partition.labels
            num_sub_cells = res.partition.num_cells
        labels2 = np.empty(g2.n, dtype=np.int64)
        labels2[: self.graph.n] = self.partition.labels
        labels2[sub_to_g] = sub_labels + K
        return labels2, num_sub_cells

    # -- public API --------------------------------------------------------

    def apply(self, batch: DeltaBatch) -> UpdateResult:
        """Apply one delta batch; returns the repaired state.

        Weight-only batches keep the partition (CRP's customization
        contract); structural batches run the localized repair with the
        quality-guarded full-rebuild fallback.  The updater's own graph /
        partition advance to the result.
        """
        t0 = perf_counter()
        mut = apply_delta_batch(self.graph, batch)
        h0, m0 = self.cut_cache.counters()
        seq = self._seq

        if not mut.structural:
            result = self._apply_weight_only(mut, seq, len(batch))
        else:
            result = self._apply_structural(mut, seq, len(batch))

        h1, m1 = self.cut_cache.counters()
        result.record.cache_hits = h1 - h0
        result.record.cache_misses = m1 - m0
        result.record.latency_s = perf_counter() - t0
        self.journal.append(result.record)
        self.graph = result.graph
        self.partition = result.partition
        self._seq = seq + 1
        return result

    def _apply_weight_only(self, mut: MutatedGraph, seq: int, num_deltas: int) -> UpdateResult:
        g2 = mut.graph
        labels = self.partition.labels
        part2 = Partition(g2, labels)
        # overlay-dirty cells: both endpoints of a reweighted edge in the
        # same cell => that cell's clique distances may change
        rew = mut.reweighted_eids
        lu = labels[self.graph.edge_u[rew]]
        lv = labels[self.graph.edge_v[rew]]
        dirty = np.unique(lu[lu == lv])
        dirty_set = set(dirty.tolist())
        reusable = {c: c for c in range(part2.num_cells) if c not in dirty_set}
        record = UpdateRecord(
            seq=seq,
            kind="weight",
            mode="patched",
            num_deltas=num_deltas,
            dirty_cells=len(dirty_set),
            seed_cells=len(dirty_set),
            dirty_vertices=0,
            dirty_fraction=len(dirty_set) / max(1, part2.num_cells),
            latency_s=0.0,
            cost_before=self.partition.cost,
            cost_after=part2.cost,
        )
        return UpdateResult(
            graph=g2,
            partition=part2,
            mutated=mut,
            record=record,
            mode="patched",
            reusable=reusable,
            dirty_cells=sorted(dirty_set),
        )

    def _apply_structural(self, mut: MutatedGraph, seq: int, num_deltas: int) -> UpdateResult:
        g2 = mut.graph
        cfg = self.config
        region = compute_dirty_region(self.partition, mut, halo=cfg.halo)
        dirty_fraction = len(region.vertices) / max(1, g2.n)
        K = self.partition.num_cells
        clean_mask = np.ones(K, dtype=bool)
        clean_mask[region.cells] = False

        fallback = False
        reason = ""
        mode = "patched"
        labels2: Optional[np.ndarray] = None
        num_sub_cells = 0

        if dirty_fraction > cfg.max_dirty_fraction:
            fallback = True
            reason = (
                f"dirty region {dirty_fraction:.2f} of graph exceeds "
                f"max_dirty_fraction={cfg.max_dirty_fraction}"
            )
        else:
            labels2, num_sub_cells = self._localized_repair(g2, region.vertices)
            repaired = Partition(g2, labels2)
            bound = cfg.quality_ratio * (self.partition.cost + mut.added_edge_weight)
            if bound > 0 and repaired.cost > bound:
                fallback = True
                reason = (
                    f"repaired cut {repaired.cost:g} exceeds quality bound {bound:g}"
                )
                labels2 = None

        if fallback:
            mode = "rebuilt"
            part2 = self._full_rebuild(g2)
            reusable: Dict[int, int] = {}
            dirty_cells = list(range(part2.num_cells))
        else:
            assert labels2 is not None
            part2 = Partition(g2, labels2)
            # dense remap: clean old labels (ascending) come first, repaired
            # labels (all >= K) after them — recover both sides of the map
            clean_sorted = np.flatnonzero(clean_mask)
            reusable = {
                int(new): int(old)
                for new, old in enumerate(clean_sorted.tolist())
            }
            dirty_cells = list(range(len(clean_sorted), len(clean_sorted) + num_sub_cells))

        get_sanitizer().check_partition(
            "updates.repair", g2, part2.labels, U=self.U
        )
        record = UpdateRecord(
            seq=seq,
            kind="structural",
            mode=mode,
            num_deltas=num_deltas,
            dirty_cells=len(region.cells),
            seed_cells=len(region.seed_cells),
            dirty_vertices=len(region.vertices),
            dirty_fraction=dirty_fraction,
            latency_s=0.0,
            fallback=fallback,
            fallback_reason=reason,
            cost_before=self.partition.cost,
            cost_after=part2.cost,
        )
        return UpdateResult(
            graph=g2,
            partition=part2,
            mutated=mut,
            record=record,
            mode=mode,
            reusable=reusable,
            dirty_cells=dirty_cells,
        )

    # -- reporting ---------------------------------------------------------

    def run_report(self) -> dict:
        """The ``updates`` section (plus sanitizer state when armed)."""
        return sanitizer_section({"updates": self.journal.report()})
