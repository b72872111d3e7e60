"""Persistent high-throughput CRP query engine.

:class:`ServingEngine` wraps an :class:`~repro.crp.overlay.Overlay` (or a
:class:`~repro.crp.multilevel.MultiLevelOverlay`) into a long-lived server:

- **metric LRU** — each distinct weight vector is customized once
  (vectorized, through the retained :class:`~repro.crp.overlay.CellTopology`)
  and cached under its fingerprint, so switching back to a recently
  served traffic profile is O(1);
- **workspace queries** — point-to-point searches run over flattened
  adjacency (Python lists, stamped
  :class:`~repro.serve.workspace.SearchWorkspace` tables) instead of
  per-query dicts/sets, relaxing exactly the same candidates in the same
  order as the scalar :func:`~repro.crp.query.crp_query` /
  :func:`~repro.crp.multilevel.ml_query` — answers are bit-identical
  (pinned in ``tests/test_serving.py``);
- **batched front end** — :meth:`ServingEngine.query_batch` amortizes
  setup across a batch and can fan chunks out onto the pool of a threads
  :class:`~repro.parallel.pool.ParallelRuntime` (a processes runtime's
  workers cannot see the driver-resident overlay, so its batches degrade
  to inline serving, counted in the stats).

Counters (queries, batches, customizations, LRU hits/misses/evictions)
surface through :meth:`ServingEngine.run_report` under a ``"serving"``
key; ``collect_stats=False`` turns per-query bookkeeping off for the
overhead gate in ``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from threading import Lock
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import RuntimeConfig
from ..core.partition import Partition
from ..crp.multilevel import (
    MultiLevelOverlay,
    build_multilevel_overlay,
    customize_multilevel_overlay,
)
from ..crp.overlay import (
    Overlay,
    build_cell_topology,
    build_overlay,
    customize_overlay,
    patch_overlay,
    patch_overlay_weights,
)
from ..parallel.pool import ParallelRuntime, resilient_map
from .metric_cache import MetricLRU, metric_fingerprint
from .workspace import SearchWorkspace

if TYPE_CHECKING:  # runtime import is deferred to enable_updates (no cycle)
    from ..updates.deltas import DeltaBatch
    from ..updates.engine import IncrementalUpdater, UpdateConfig, UpdateResult

__all__ = ["ServingConfig", "ServingEngine"]

_INF = float("inf")

#: fan-out chunks get one pooled attempt; a chunk that fails there is served
#: again inline, which raises its error to the caller
_FANOUT_POLICY = RuntimeConfig(max_retries=0, backoff_base=0.0)


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of a :class:`ServingEngine`.

    ``metric_cache_entries`` bounds the LRU of customized metrics;
    ``collect_stats`` gates per-query counter updates (the serving-smoke
    CI job asserts the counters cost <= 5% throughput); ``fanout_chunk``
    is the number of queries per worker task when a batch is fanned out.
    """

    metric_cache_entries: int = 8
    collect_stats: bool = True
    fanout_chunk: int = 64


@dataclass
class _FlatMetric:
    """One customized two-level metric, flattened for the query kernel."""

    overlay: Overlay
    half_w: List[float]  # per half-edge weights, native floats
    oadj: Dict[int, List[Tuple[int, float]]]  # the overlay adjacency


@dataclass
class _MLMetric:
    """One customized multi-level metric, flattened for the query kernel."""

    mlo: MultiLevelOverlay
    half_w: List[float]
    level_adj: List[Dict[int, List[Tuple[int, float]]]]


@dataclass
class _Counters:
    """Mutable serving counters (separate object so reset is one swap)."""

    queries: int = 0
    batches: int = 0
    batch_queries: int = 0
    customizations: int = 0
    customize_seconds: float = 0.0
    fanout_batches: int = 0
    fanout_degraded: int = 0
    settled_total: int = 0
    updates: int = 0
    weight_updates: int = 0
    structural_updates: int = 0
    metrics_invalidated: int = 0


class ServingEngine:
    """Long-lived CRP query server over one partition.

    Construct from a prebuilt overlay (two-level or multi-level) or let
    :meth:`from_partition` build one.  The engine's *active metric* starts
    as the overlay's own; :meth:`customize` swaps it (through the LRU) and
    every subsequent :meth:`query` / :meth:`query_batch` answers under it.
    The partition structure is fixed for the engine's lifetime — only
    metrics change, which is exactly CRP's customization contract.
    """

    def __init__(
        self,
        overlay: Union[Overlay, MultiLevelOverlay],
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        self.cache: MetricLRU[Union[_FlatMetric, _MLMetric]] = MetricLRU(
            self.config.metric_cache_entries
        )
        self.counters = _Counters()
        self._ws_lock = Lock()
        self._ws_pool: List[SearchWorkspace] = []
        self._ws_created = 0

        self._multilevel = isinstance(overlay, MultiLevelOverlay)
        self._graph = overlay.graph
        # Graph CSR and labels as native lists: the query kernels read one
        # element at a time, where list indexing avoids NumPy scalar boxing.
        # The partition (hence every labels array) is fixed for the engine's
        # lifetime, so these flatten once, not per metric.
        g = self._graph
        self._xadj: List[int] = g.xadj.tolist()
        self._adjncy: List[int] = g.adjncy.tolist()
        if self._multilevel:
            assert isinstance(overlay, MultiLevelOverlay)
            for o in overlay.overlays:  # retain skeletons for every customize
                if o.topology is None:
                    o.topology = build_cell_topology(Partition(o.graph, o.labels))
            self._level_labels: List[List[int]] = [
                p.labels.tolist() for p in overlay.nested.levels
            ]
            self._labels: List[int] = self._level_labels[0] if self._level_labels else []
            base: Union[_FlatMetric, _MLMetric] = self._flatten_ml(overlay)
        else:
            assert isinstance(overlay, Overlay)
            if overlay.topology is None:  # reference-built overlays lack one
                overlay.topology = build_cell_topology(
                    Partition(overlay.graph, overlay.labels)
                )
            self._level_labels = []
            self._labels = overlay.labels.tolist()
            base = self._flatten_flat(overlay)
        # the base metric is pinned outside the LRU: it owns the topology
        # every later customization derives from, so it must never evict
        self._base = base
        self._active = base
        self.cache.put(metric_fingerprint(g.ewgt), base)
        self._updater: Optional["IncrementalUpdater"] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_partition(
        cls, partition: Partition, config: Optional[ServingConfig] = None
    ) -> "ServingEngine":
        """Build a two-level engine straight from a partition."""
        return cls(build_overlay(partition), config)

    @classmethod
    def from_nested(
        cls, nested: Any, config: Optional[ServingConfig] = None
    ) -> "ServingEngine":
        """Build a multi-level engine from a nested partition."""
        return cls(build_multilevel_overlay(nested), config)

    # -- metric management -------------------------------------------------

    @staticmethod
    def _flatten_flat(overlay: Overlay) -> _FlatMetric:
        return _FlatMetric(
            overlay=overlay,
            half_w=overlay.graph.half_edge_weights().tolist(),
            oadj=overlay.adj,
        )

    @staticmethod
    def _flatten_ml(mlo: MultiLevelOverlay) -> _MLMetric:
        return _MLMetric(
            mlo=mlo,
            half_w=mlo.graph.half_edge_weights().tolist(),
            level_adj=[o.adj for o in mlo.overlays],
        )

    def customize(self, new_weights: np.ndarray) -> bool:
        """Make ``new_weights`` the active metric; returns True on LRU hit.

        A miss runs the vectorized customization
        (:func:`~repro.crp.overlay.customize_overlay` or its multi-level
        analog) against the base overlay's retained topology and installs
        the result in the LRU.  Equal fingerprints imply byte-equal weight
        vectors, so a hit serves answers bit-identical to a fresh
        customization.
        """
        w = np.asarray(new_weights, dtype=np.float64)
        key = metric_fingerprint(w)
        entry = self.cache.get(key)
        if entry is not None:
            self._active = entry
            return True
        t0 = perf_counter()
        fresh: Union[_FlatMetric, _MLMetric]
        if isinstance(self._base, _MLMetric):
            fresh = self._flatten_ml(customize_multilevel_overlay(self._base.mlo, w))
        else:
            fresh = self._flatten_flat(customize_overlay(self._base.overlay, w))
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
        cache stay consistent with the repaired partition.  Multi-level
        engines are not supported (nested partitions would need per-level
        repair; see docs/UPDATES.md).
        """
        if self._multilevel:
            raise NotImplementedError(
                "live updates require a two-level engine; rebuild the "
                "multi-level overlay after graph changes instead"
            )
        from ..updates.engine import IncrementalUpdater

        assert isinstance(self._base, _FlatMetric)
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
        vectors no longer index this graph), and reflatten the engine's
        CSR/label state.  Either way the patched overlay is bit-identical
        to a from-scratch build on the mutated graph, so no stale answer
        can be served.  Not safe concurrently with in-flight queries.
        """
        if self._updater is None:
            raise RuntimeError("call enable_updates(U) before apply_update")
        assert isinstance(self._base, _FlatMetric)
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
            with self._ws_lock:
                self._ws_pool.clear()  # pooled workspaces are sized to the old n
        self._graph = g2
        self._base = self._flatten_flat(new_overlay)
        self._active = self._base
        self.cache.put(metric_fingerprint(g2.ewgt), self._base)
        if self.config.collect_stats:
            c = self.counters
            c.updates += 1
            if result.structural:
                c.structural_updates += 1
            else:
                c.weight_updates += 1
            c.metrics_invalidated += invalidated
        return result

    # -- workspace pool ----------------------------------------------------

    def _checkout_workspace(self) -> SearchWorkspace:
        with self._ws_lock:
            if self._ws_pool:
                return self._ws_pool.pop()
            self._ws_created += 1
        return SearchWorkspace(self._graph.n)

    def _return_workspace(self, ws: SearchWorkspace) -> None:
        with self._ws_lock:
            self._ws_pool.append(ws)

    # -- query kernels -----------------------------------------------------

    def _query_flat(
        self, metric: _FlatMetric, ws: SearchWorkspace, s: int, t: int
    ) -> Tuple[float, int]:
        """Two-level search; relaxation-for-relaxation mirror of crp_query.

        Same candidate filter (endpoint-cell interiors + overlay), same
        tie-breaking heap tuples, same float additions — only the state
        containers differ (stamped lists vs dict/set), so distances and
        settled counts are bit-identical.
        """
        lab = self._labels
        cs, ct = lab[s], lab[t]
        xadj, adjncy, half_w = self._xadj, self._adjncy, metric.half_w
        oadj = metric.oadj

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

    def _query_ml(
        self, metric: _MLMetric, ws: SearchWorkspace, s: int, t: int
    ) -> Tuple[float, int]:
        """Multi-level search; mirror of ml_query (same query-level rule)."""
        level_labels = self._level_labels
        level_adj = metric.level_adj
        L = len(level_labels)
        s_cell = [level_labels[i][s] for i in range(L)]
        t_cell = [level_labels[i][t] for i in range(L)]
        xadj, adjncy, half_w = self._xadj, self._adjncy, metric.half_w

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
            lvl = 0
            for i in range(L, 0, -1):  # coarsest level first
                c = level_labels[i - 1][v]
                if c != s_cell[i - 1] and c != t_cell[i - 1]:
                    lvl = i
                    break
            if lvl == 0:
                for i in range(xadj[v], xadj[v + 1]):
                    u = adjncy[i]
                    nd = d + half_w[i]
                    if dstamp[u] != stamp or nd < dist[u]:
                        dist[u] = nd
                        dstamp[u] = stamp
                        heappush(heap, (nd, u))
            else:
                for u, w in level_adj[lvl - 1].get(v, ()):
                    nd = d + w
                    if dstamp[u] != stamp or nd < dist[u]:
                        dist[u] = nd
                        dstamp[u] = stamp
                        heappush(heap, (nd, u))
        return _INF, settled

    def _run_query(self, ws: SearchWorkspace, s: int, t: int) -> Tuple[float, int]:
        g = self._graph
        if not (0 <= s < g.n and 0 <= t < g.n):
            raise ValueError(f"query endpoints ({s}, {t}) out of range for n={g.n}")
        metric = self._active
        if isinstance(metric, _MLMetric):
            return self._query_ml(metric, ws, s, t)
        return self._query_flat(metric, ws, s, t)

    # -- public query API --------------------------------------------------

    def query(self, s: int, t: int) -> Tuple[float, int]:
        """Point-to-point distance under the active metric.

        Returns ``(distance, settled_count)`` — bit-identical to
        :func:`~repro.crp.query.crp_query` (or ``ml_query``) on the
        equivalent customized overlay.
        """
        ws = self._checkout_workspace()
        try:
            out = self._run_query(ws, int(s), int(t))
        finally:
            self._return_workspace(ws)
        if self.config.collect_stats:
            c = self.counters
            c.queries += 1
            c.settled_total += out[1]
        return out

    def query_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        pool: Optional[ParallelRuntime] = None,
    ) -> np.ndarray:
        """Distances for aligned source/target id sequences.

        One workspace serves the whole batch inline; with a threads
        :class:`~repro.parallel.pool.ParallelRuntime` the batch is split
        into ``config.fanout_chunk``-sized contiguous chunks served by
        per-worker workspaces on the runtime's pool.  Results are written
        by position, so the answer array is independent of scheduling — and
        bit-identical to serving each query alone.
        """
        src = [int(x) for x in sources]
        dst = [int(x) for x in targets]
        if len(src) != len(dst):
            raise ValueError("sources and targets must have equal length")
        k = len(src)
        out = np.full(k, np.inf, dtype=np.float64)
        settled_sum = 0

        fan_out = pool is not None and pool.backend == "threads"
        if pool is not None and not fan_out and self.config.collect_stats:
            self.counters.fanout_degraded += 1
        if not fan_out or k <= self.config.fanout_chunk:
            ws = self._checkout_workspace()
            try:
                for i in range(k):
                    d, n_settled = self._run_query(ws, src[i], dst[i])
                    out[i] = d
                    settled_sum += n_settled
            finally:
                self._return_workspace(ws)
        else:
            chunk = self.config.fanout_chunk
            spans = [(lo, min(lo + chunk, k)) for lo in range(0, k, chunk)]

            def serve_span(span: Tuple[int, int]) -> List[Tuple[float, int]]:
                lo, hi = span
                ws = self._checkout_workspace()
                try:
                    return [self._run_query(ws, src[i], dst[i]) for i in range(lo, hi)]
                finally:
                    self._return_workspace(ws)

            served, report = resilient_map(
                serve_span, spans, parallel=pool, runtime=_FANOUT_POLICY
            )
            for span, answers in zip(spans, served):
                if answers is None:
                    answers = serve_span(span)
                for off, (d, n_settled) in enumerate(answers):
                    out[span[0] + off] = d
                    settled_sum += n_settled
            if self.config.collect_stats:
                if report.final_executor == "threads":
                    self.counters.fanout_batches += 1
                else:  # the runtime's pool is retired: served inline
                    self.counters.fanout_degraded += 1

        if self.config.collect_stats:
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
            "mode": "multilevel" if self._multilevel else "two-level",
            "n": int(self._graph.n),
            "queries": q,
            "batches": c.batches,
            "batch_queries": c.batch_queries,
            "settled_mean": (c.settled_total / q) if q else 0.0,
            "customizations": c.customizations,
            "customize_seconds": c.customize_seconds,
            "fanout_batches": c.fanout_batches,
            "fanout_degraded": c.fanout_degraded,
            "workspaces": self._ws_created,
            "stats_enabled": self.config.collect_stats,
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
