"""Persistent high-throughput CRP query engine.

:class:`ServingEngine` wraps a two-level :class:`~repro.crp.overlay.Overlay`
into a long-lived server:

- **metric LRU** — each distinct weight vector is customized once
  (vectorized, through the retained :class:`~repro.crp.overlay.CellTopology`)
  and cached under its fingerprint, so switching back to a recently
  served traffic profile is O(1);
- **workspace queries** — point-to-point searches run over flattened
  adjacency (Python lists, one stamped
  :class:`~repro.serve.workspace.SearchWorkspace`) instead of per-query
  dicts/sets, relaxing exactly the same candidates in the same order as
  the scalar :func:`~repro.crp.query.crp_query` — answers are
  bit-identical (pinned in ``tests/test_serving.py``);
- **batched front end** — :meth:`ServingEngine.query_batch` amortizes
  setup across a batch.

The engine serves one caller at a time: queries, customizations and
updates share its workspace and active metric.  Counters (queries,
batches, customizations, LRU hits/misses/evictions) surface through
:meth:`ServingEngine.run_report` under a ``"serving"`` key.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import Partition
from ..crp.overlay import (
    Overlay,
    build_cell_topology,
    build_overlay,
    customize_overlay,
    patch_overlay,
    patch_overlay_weights,
)
from .metric_cache import MetricLRU, metric_fingerprint
from .workspace import SearchWorkspace

if TYPE_CHECKING:  # runtime import is deferred to enable_updates (no cycle)
    from ..updates.deltas import DeltaBatch
    from ..updates.engine import IncrementalUpdater, UpdateConfig, UpdateResult

__all__ = ["ServingConfig", "ServingEngine"]

_INF = float("inf")


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of a :class:`ServingEngine`.

    ``metric_cache_entries`` bounds the LRU of customized metrics.
    """

    metric_cache_entries: int = 8


@dataclass
class _FlatMetric:
    """One customized two-level metric, flattened for the query kernel."""

    overlay: Overlay
    half_w: List[float]  # per half-edge weights, native floats
    oadj: Dict[int, List[Tuple[int, float]]]  # the overlay adjacency


@dataclass
class _Counters:
    """Mutable serving counters (separate object so reset is one swap)."""

    queries: int = 0
    batches: int = 0
    batch_queries: int = 0
    customizations: int = 0
    customize_seconds: float = 0.0
    settled_total: int = 0
    updates: int = 0
    weight_updates: int = 0
    structural_updates: int = 0
    metrics_invalidated: int = 0


class ServingEngine:
    """Long-lived CRP query server over one partition.

    Construct from a prebuilt overlay or let :meth:`from_partition` build
    one.  The engine's *active metric* starts as the overlay's own;
    :meth:`customize` swaps it (through the LRU) and every subsequent
    :meth:`query` / :meth:`query_batch` answers under it.  The partition
    structure changes only through :meth:`apply_update` — otherwise only
    metrics change, which is exactly CRP's customization contract.  One
    caller at a time: the engine owns a single search workspace.
    """

    def __init__(self, overlay: Overlay, config: Optional[ServingConfig] = None) -> None:
        self.config = config if config is not None else ServingConfig()
        self.cache: MetricLRU[_FlatMetric] = MetricLRU(self.config.metric_cache_entries)
        self.counters = _Counters()

        self._graph = overlay.graph
        # Graph CSR and labels as native lists: the query kernels read one
        # element at a time, where list indexing avoids NumPy scalar boxing.
        # The partition is fixed between structural updates, so these
        # flatten once per structure, not per metric.
        g = self._graph
        self._xadj: List[int] = g.xadj.tolist()
        self._adjncy: List[int] = g.adjncy.tolist()
        if overlay.topology is None:  # reference-built overlays lack one
            overlay.topology = build_cell_topology(Partition(overlay.graph, overlay.labels))
        self._labels: List[int] = overlay.labels.tolist()
        self._ws = SearchWorkspace(g.n)
        # the base metric is pinned outside the LRU: it owns the topology
        # every later customization derives from, so it must never evict
        self._base = self._flatten(overlay)
        self._active = self._base
        self.cache.put(metric_fingerprint(g.ewgt), self._base)
        self._updater: Optional["IncrementalUpdater"] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_partition(
        cls, partition: Partition, config: Optional[ServingConfig] = None
    ) -> "ServingEngine":
        """Build an engine straight from a partition."""
        return cls(build_overlay(partition), config)

    # -- metric management -------------------------------------------------

    @staticmethod
    def _flatten(overlay: Overlay) -> _FlatMetric:
        return _FlatMetric(
            overlay=overlay,
            half_w=overlay.graph.half_edge_weights().tolist(),
            oadj=overlay.adj,
        )

    def customize(self, new_weights: np.ndarray) -> bool:
        """Make ``new_weights`` the active metric; returns True on LRU hit.

        A miss runs the vectorized customization
        (:func:`~repro.crp.overlay.customize_overlay`) against the base
        overlay's retained topology and installs the result in the LRU.
        Equal fingerprints imply byte-equal weight vectors, so a hit serves
        answers bit-identical to a fresh customization.
        """
        w = np.asarray(new_weights, dtype=np.float64)
        key = metric_fingerprint(w)
        entry = self.cache.get(key)
        if entry is not None:
            self._active = entry
            return True
        t0 = perf_counter()
        fresh = self._flatten(customize_overlay(self._base.overlay, w))
        self.counters.customizations += 1
        self.counters.customize_seconds += perf_counter() - t0
        self.cache.put(key, fresh)
        self._active = fresh
        return False

    # -- live updates ------------------------------------------------------

    def enable_updates(
        self,
        U: int,
        update_config: Optional["UpdateConfig"] = None,
        punch_config: Optional[Any] = None,
    ) -> "IncrementalUpdater":
        """Attach an incremental update engine to this server.

        Returns the :class:`~repro.updates.engine.IncrementalUpdater`
        bound to the engine's partition; feed delta batches through
        :meth:`apply_update` so the overlay, flattened CSR, and metric
        cache stay consistent with the repaired partition.
        """
        from ..updates.engine import IncrementalUpdater

        partition = Partition(self._graph, self._base.overlay.labels)
        self._updater = IncrementalUpdater(
            partition, U, config=update_config, punch_config=punch_config
        )
        return self._updater

    def apply_update(self, batch: "DeltaBatch") -> "UpdateResult":
        """Apply a delta batch to the live engine (repair + overlay patch).

        Weight-only batches patch the base overlay's dirty clique rows and
        *keep* every cached customized metric — the partition structure is
        unchanged, so a cached metric for weight vector ``w`` still
        answers exactly.  Structural batches repair the partition
        (:class:`~repro.updates.engine.IncrementalUpdater`), patch the
        overlay cell-by-cell, invalidate every cached metric (their weight
        vectors no longer index this graph), reflatten the engine's
        CSR/label state and grow the workspace to the new vertex count.
        Either way the patched overlay is bit-identical to a from-scratch
        build on the mutated graph, so no stale answer can be served.
        """
        if self._updater is None:
            raise RuntimeError("call enable_updates(U) before apply_update")
        result = self._updater.apply(batch)
        g2 = result.graph
        base_overlay = self._base.overlay
        invalidated = 0
        if not result.structural:
            new_overlay = patch_overlay_weights(
                base_overlay, g2.ewgt, result.dirty_cells
            )
        else:
            new_overlay = patch_overlay(
                base_overlay, result.partition, result.reusable, result.eid_map
            )
            invalidated = self.cache.clear()
            self._xadj = g2.xadj.tolist()
            self._adjncy = g2.adjncy.tolist()
            self._labels = result.partition.labels.tolist()
            self._ws.resize(g2.n)
        self._graph = g2
        self._base = self._flatten(new_overlay)
        self._active = self._base
        self.cache.put(metric_fingerprint(g2.ewgt), self._base)
        c = self.counters
        c.updates += 1
        if result.structural:
            c.structural_updates += 1
        else:
            c.weight_updates += 1
        c.metrics_invalidated += invalidated
        return result

    # -- query kernel ------------------------------------------------------

    def _search(self, s: int, t: int) -> Tuple[float, int]:
        """Two-level search; relaxation-for-relaxation mirror of crp_query.

        Same candidate filter (endpoint-cell interiors + overlay), same
        tie-breaking heap tuples, same float additions under the active
        metric — only the state containers differ (stamped lists vs
        dict/set), so distances and settled counts are bit-identical.
        """
        n = self._graph.n
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"query endpoints ({s}, {t}) out of range for n={n}")
        metric = self._active
        lab = self._labels
        cs, ct = lab[s], lab[t]
        xadj, adjncy, half_w = self._xadj, self._adjncy, metric.half_w
        oadj = metric.oadj

        ws = self._ws
        stamp = ws.begin_query()
        dist, dstamp, done = ws.dist, ws.dist_stamp, ws.done_stamp
        dist[s] = 0.0
        dstamp[s] = stamp
        heap = ws.heap
        heap.append((0.0, s))
        settled = 0
        while heap:
            d, v = heappop(heap)
            if done[v] == stamp:
                continue
            done[v] = stamp
            settled += 1
            if v == t:
                return d, settled
            lv = lab[v]
            if lv == cs or lv == ct:
                for i in range(xadj[v], xadj[v + 1]):
                    u = adjncy[i]
                    lu = lab[u]
                    if lu != cs and lu != ct and u not in oadj:
                        continue  # interior of a foreign cell
                    nd = d + half_w[i]
                    if dstamp[u] != stamp or nd < dist[u]:
                        dist[u] = nd
                        dstamp[u] = stamp
                        heappush(heap, (nd, u))
            row = oadj.get(v)
            if row is not None:
                for u, w in row:
                    nd = d + w
                    if dstamp[u] != stamp or nd < dist[u]:
                        dist[u] = nd
                        dstamp[u] = stamp
                        heappush(heap, (nd, u))
        return _INF, settled

    # -- public query API --------------------------------------------------

    def query(self, s: int, t: int) -> Tuple[float, int]:
        """Point-to-point distance under the active metric.

        Returns ``(distance, settled_count)`` — bit-identical to
        :func:`~repro.crp.query.crp_query` on the equivalent customized
        overlay.
        """
        out = self._search(int(s), int(t))
        c = self.counters
        c.queries += 1
        c.settled_total += out[1]
        return out

    def query_batch(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Distances for aligned source/target id sequences.

        The engine's workspace serves the whole batch in order, and each
        answer is bit-identical to serving that query alone.
        """
        src = [int(x) for x in sources]
        dst = [int(x) for x in targets]
        if len(src) != len(dst):
            raise ValueError("sources and targets must have equal length")
        k = len(src)
        out = np.full(k, np.inf, dtype=np.float64)
        settled_sum = 0
        search = self._search
        for i in range(k):
            d, n_settled = search(src[i], dst[i])
            out[i] = d
            settled_sum += n_settled
        c = self.counters
        c.batches += 1
        c.batch_queries += k
        c.queries += k
        c.settled_total += settled_sum
        return out

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot (queries, batches, customization, LRU)."""
        c = self.counters
        q = c.queries
        return {
            "n": int(self._graph.n),
            "queries": q,
            "batches": c.batches,
            "batch_queries": c.batch_queries,
            "settled_mean": (c.settled_total / q) if q else 0.0,
            "customizations": c.customizations,
            "customize_seconds": c.customize_seconds,
            "metric_cache": self.cache.stats(),
            "updates": {
                "applied": c.updates,
                "weight": c.weight_updates,
                "structural": c.structural_updates,
                "metrics_invalidated": c.metrics_invalidated,
                **(
                    {"journal": self._updater.journal.report()}
                    if self._updater is not None
                    else {}
                ),
            },
        }

    def run_report(self) -> dict:
        """Serving section for experiment reports (plus sanitizer state)."""
        from ..core.result import sanitizer_section

        return sanitizer_section({"serving": self.stats()})

    def reset_counters(self) -> None:
        """Zero the query/customization counters (cache contents kept)."""
        self.counters = _Counters()
        self.cache.reset_counters()
