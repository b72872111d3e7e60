"""Unit tests for the incremental update engine (src/repro/updates/).

Covers the delta model (validation, materialization bookkeeping, JSON
round-trip), dirty-region computation, the repair engine's modes and
fallbacks, overlay patching, the serving-engine integration, and the
MetricLRU invalidation accounting (the stale-metric hazard regression).
The 50-instance equivalence properties live in
``tests/test_property_updates.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PunchConfig
from repro.core.punch import run_punch
from repro.crp.dijkstra import dijkstra
from repro.crp.overlay import (
    build_overlay,
    customize_overlay,
    patch_overlay,
    patch_overlay_weights,
)
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.metric_cache import MetricLRU, metric_fingerprint
from repro.updates import (
    DeltaBatch,
    EdgeAdd,
    EdgeRemove,
    EdgeReweight,
    IncrementalUpdater,
    UpdateConfig,
    VertexAdd,
    apply_delta_batch,
    compute_dirty_region,
    deltas_from_json,
    deltas_to_json,
    synthetic_delta_batch,
)

from .conftest import random_connected_graph


@pytest.fixture(scope="module")
def base():
    """One partitioned graph shared by the read-only scenarios."""
    g = random_connected_graph(150, 80, seed=11)
    res = run_punch(g, 25, PunchConfig(seed=3))
    return g, res.partition


# ---------------------------------------------------------------------------
# Delta model
# ---------------------------------------------------------------------------


class TestDeltaValidation:
    def test_empty_batch_rejected(self, base):
        g, _ = base
        with pytest.raises(ValueError, match="empty"):
            apply_delta_batch(g, DeltaBatch(()))

    def test_reweight_missing_edge(self, base):
        g, _ = base
        # find a non-edge pair
        nbrs = set(g.neighbors(0).tolist())
        v = next(x for x in range(1, g.n) if x not in nbrs)
        with pytest.raises(ValueError, match="missing edge"):
            apply_delta_batch(g, DeltaBatch((EdgeReweight(0, v, 2.0),)))

    def test_remove_missing_edge(self, base):
        g, _ = base
        nbrs = set(g.neighbors(0).tolist())
        v = next(x for x in range(1, g.n) if x not in nbrs)
        with pytest.raises(ValueError, match="missing edge"):
            apply_delta_batch(g, DeltaBatch((EdgeRemove(0, v),)))

    def test_add_duplicate_edge(self, base):
        g, _ = base
        u, v = g.edge_endpoints(0)
        with pytest.raises(ValueError, match="already exists"):
            apply_delta_batch(g, DeltaBatch((EdgeAdd(u, v, 1.0),)))

    def test_self_loop_rejected(self, base):
        g, _ = base
        with pytest.raises(ValueError, match="self-loop"):
            apply_delta_batch(g, DeltaBatch((EdgeAdd(3, 3, 1.0),)))

    def test_out_of_range_endpoint(self, base):
        g, _ = base
        with pytest.raises(ValueError, match="out of range"):
            apply_delta_batch(g, DeltaBatch((EdgeAdd(0, g.n + 5, 1.0),)))

    def test_nonpositive_weight_rejected(self, base):
        g, _ = base
        u, v = g.edge_endpoints(0)
        with pytest.raises(ValueError, match="positive"):
            apply_delta_batch(g, DeltaBatch((EdgeReweight(u, v, 0.0),)))

    def test_duplicate_pair_in_batch_rejected(self, base):
        g, _ = base
        u, v = g.edge_endpoints(0)
        with pytest.raises(ValueError, match="already edited"):
            apply_delta_batch(
                g, DeltaBatch((EdgeReweight(u, v, 2.0), EdgeRemove(v, u)))
            )

    def test_vertex_add_size_positive(self, base):
        g, _ = base
        with pytest.raises(ValueError, match="size"):
            apply_delta_batch(g, DeltaBatch((VertexAdd(size=0),)))


class TestDeltaMaterialization:
    def test_weight_only_bookkeeping(self, base):
        g, _ = base
        u, v = g.edge_endpoints(5)
        mut = apply_delta_batch(g, DeltaBatch((EdgeReweight(u, v, 99.0),)))
        assert not mut.structural and mut.weights_changed
        assert mut.graph.n == g.n and mut.graph.m == g.m
        # weight-only keeps the canonical edge order: identity eid_map
        assert np.array_equal(mut.eid_map, np.arange(g.m))
        assert mut.reweighted_eids.tolist() == [5]
        assert set(mut.touched_vertices.tolist()) == {u, v}
        assert mut.graph.ewgt[5] == 99.0

    def test_eid_map_remaps_weights_after_removal(self, base):
        g, _ = base
        u, v = g.edge_endpoints(0)
        mut = apply_delta_batch(g, DeltaBatch((EdgeRemove(u, v),)))
        assert mut.structural
        assert mut.graph.m == g.m - 1
        assert mut.eid_map[0] == -1
        surv = np.flatnonzero(mut.eid_map >= 0)
        assert np.array_equal(g.ewgt[surv], mut.graph.ewgt[mut.eid_map[surv]])

    def test_vertex_adds_append_ids(self, base):
        g, _ = base
        batch = DeltaBatch(
            (VertexAdd(size=2, edges=((0, 3.0),)), VertexAdd(size=1, edges=((g.n, 1.0),)))
        )
        mut = apply_delta_batch(g, batch)
        assert mut.graph.n == g.n + 2
        assert mut.new_vertices.tolist() == [g.n, g.n + 1]
        assert mut.graph.vsize[g.n] == 2
        # second new vertex connects to the first (same-batch reference)
        assert g.n in mut.graph.neighbors(g.n + 1).tolist()
        assert mut.added_edge_weight == 4.0

    def test_json_round_trip(self, base):
        g, _ = base
        batch = synthetic_delta_batch(g, kind="mixed", count=9, seed=4)
        again = deltas_from_json(deltas_to_json(batch))
        assert again == batch

    def test_json_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            deltas_from_json('[{"op": "teleport", "u": 0, "v": 1}]')


# ---------------------------------------------------------------------------
# Dirty region
# ---------------------------------------------------------------------------


class TestDirtyRegion:
    def test_seed_cells_are_touched_cells(self, base):
        g, part = base
        u, v = g.edge_endpoints(7)
        mut = apply_delta_batch(g, DeltaBatch((EdgeRemove(u, v),)))
        region = compute_dirty_region(part, mut, halo=0)
        expect = np.unique(part.labels[[u, v]])
        assert np.array_equal(region.seed_cells, expect)
        assert np.array_equal(region.cells, expect)

    def test_halo_expands_monotonically(self, base):
        g, part = base
        u, v = g.edge_endpoints(7)
        mut = apply_delta_batch(g, DeltaBatch((EdgeRemove(u, v),)))
        sizes = [
            len(compute_dirty_region(part, mut, halo=h).cells) for h in (0, 1, 2)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_vertices_cover_dirty_members_and_new(self, base):
        g, part = base
        batch = DeltaBatch((VertexAdd(size=1, edges=((0, 1.0),)),))
        mut = apply_delta_batch(g, batch)
        region = compute_dirty_region(part, mut, halo=1)
        assert g.n in region.vertices.tolist()
        for c in region.cells.tolist():
            members = np.flatnonzero(part.labels == c)
            assert np.isin(members, region.vertices).all()

    def test_negative_halo_rejected(self, base):
        g, part = base
        u, v = g.edge_endpoints(0)
        mut = apply_delta_batch(g, DeltaBatch((EdgeRemove(u, v),)))
        with pytest.raises(ValueError):
            compute_dirty_region(part, mut, halo=-1)


# ---------------------------------------------------------------------------
# The repair engine
# ---------------------------------------------------------------------------


class TestIncrementalUpdater:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            UpdateConfig(halo=-1)
        with pytest.raises(ValueError):
            UpdateConfig(quality_ratio=0.5)
        with pytest.raises(ValueError):
            UpdateConfig(max_dirty_fraction=0.0)

    def test_weight_only_keeps_partition(self, base):
        g, part = base
        upd = IncrementalUpdater(part, 25, punch_config=PunchConfig(seed=3))
        batch = synthetic_delta_batch(g, kind="reweight", count=6, seed=1)
        r = upd.apply(batch)
        assert r.mode == "patched" and not r.structural
        assert np.array_equal(r.partition.labels, part.labels)
        # every cell not overlay-dirty maps to itself
        for new, old in r.reusable.items():
            assert new == old

    def test_structural_repair_reuses_clean_cells(self, base):
        g, part = base
        upd = IncrementalUpdater(part, 25, punch_config=PunchConfig(seed=3))
        batch = synthetic_delta_batch(g, kind="mixed", count=8, seed=2)
        r = upd.apply(batch)
        assert r.structural
        if r.mode == "patched":
            assert r.reusable  # something survived
            for new, old in r.reusable.items():
                mo = np.flatnonzero(part.labels == old)
                mn = np.flatnonzero(r.partition.labels == new)
                assert np.array_equal(mo, mn)
        # invariants hold either way
        assert r.partition.labels.max() + 1 == r.partition.num_cells
        sizes = np.bincount(r.partition.labels, weights=r.graph.vsize)
        assert sizes.max() <= 25

    def test_updater_state_advances(self, base):
        g, part = base
        upd = IncrementalUpdater(part, 25, punch_config=PunchConfig(seed=3))
        b1 = synthetic_delta_batch(g, kind="grow", count=3, seed=5)
        r1 = upd.apply(b1)
        assert upd.graph is r1.graph and upd.partition is r1.partition
        b2 = synthetic_delta_batch(upd.graph, kind="reweight", count=4, seed=6)
        r2 = upd.apply(b2)
        assert r2.record.seq == 1
        assert len(upd.journal) == 2

    def test_max_dirty_fraction_forces_rebuild(self, base):
        g, part = base
        upd = IncrementalUpdater(
            part,
            25,
            config=UpdateConfig(max_dirty_fraction=1e-6),
            punch_config=PunchConfig(seed=3),
        )
        batch = synthetic_delta_batch(g, kind="mixed", count=6, seed=7)
        r = upd.apply(batch)
        assert r.mode == "rebuilt" and r.record.fallback
        assert "max_dirty_fraction" in r.record.fallback_reason
        assert r.reusable == {}
        assert r.dirty_cells == list(range(r.partition.num_cells))

    def test_quality_ratio_one_never_worsens_cost(self, base):
        """quality_ratio=1.0: any repair worse than (cost + added weight)
        falls back, so the final cost is bounded by the rebuild's."""
        g, part = base
        upd = IncrementalUpdater(
            part,
            25,
            config=UpdateConfig(quality_ratio=1.0),
            punch_config=PunchConfig(seed=3),
        )
        batch = synthetic_delta_batch(g, kind="mixed", count=10, seed=8)
        r = upd.apply(batch)
        bound = part.cost + r.mutated.added_edge_weight
        assert r.partition.cost <= bound

    def test_report_aggregates(self, base):
        g, part = base
        upd = IncrementalUpdater(part, 25, punch_config=PunchConfig(seed=3))
        upd.apply(synthetic_delta_batch(g, kind="reweight", count=4, seed=9))
        upd.apply(synthetic_delta_batch(upd.graph, kind="grow", count=2, seed=10))
        rep = upd.run_report()["updates"]
        assert rep["updates"] == 2
        assert rep["weight_updates"] == 1
        assert rep["structural_updates"] == 1
        assert rep["latency_s_median"] > 0

    def test_u_smaller_than_largest_vertex_rejected(self, base):
        _, part = base
        with pytest.raises(ValueError):
            IncrementalUpdater(part, 0)


# ---------------------------------------------------------------------------
# Overlay patching
# ---------------------------------------------------------------------------


def _assert_overlay_bitwise_equal(a, b):
    assert a.clique_edges == b.clique_edges
    assert a.cut_edges == b.cut_edges
    assert a.boundary_of_cell == b.boundary_of_cell
    assert list(a.adj.keys()) == list(b.adj.keys())
    for v in a.adj:
        assert a.adj[v] == b.adj[v]


class TestOverlayPatching:
    def test_weight_patch_matches_customize(self, base):
        g, part = base
        ov = build_overlay(part)
        upd = IncrementalUpdater(part, 25, punch_config=PunchConfig(seed=3))
        r = upd.apply(synthetic_delta_batch(g, kind="reweight", count=8, seed=12))
        patched = patch_overlay_weights(ov, r.graph.ewgt, r.dirty_cells)
        _assert_overlay_bitwise_equal(patched, customize_overlay(ov, r.graph.ewgt))

    def test_structural_patch_matches_full_build(self, base):
        g, part = base
        ov = build_overlay(part)
        upd = IncrementalUpdater(part, 25, punch_config=PunchConfig(seed=3))
        r = upd.apply(synthetic_delta_batch(g, kind="mixed", count=8, seed=13))
        patched = patch_overlay(ov, r.partition, r.reusable, r.eid_map)
        _assert_overlay_bitwise_equal(patched, build_overlay(r.partition))

    def test_patch_rejects_stale_reusable_claim(self, base):
        """A reusable mapping that lies about members must be caught, not
        silently produce a wrong overlay."""
        g, part = base
        ov = build_overlay(part)
        upd = IncrementalUpdater(
            part,
            25,
            # small cell count: widen the guards so the repair stays local
            config=UpdateConfig(halo=0, max_dirty_fraction=1.0, quality_ratio=10.0),
            punch_config=PunchConfig(seed=3),
        )
        r = upd.apply(synthetic_delta_batch(g, kind="mixed", count=8, seed=14))
        assert r.mode == "patched" and r.dirty_cells and r.reusable
        bad = dict(r.reusable)
        # claim a dirty cell is reusable as some clean cell's old id
        dirty_c = r.dirty_cells[0]
        bad[dirty_c] = next(iter(r.reusable.values()))
        with pytest.raises(AssertionError):
            patch_overlay(ov, r.partition, bad, r.eid_map)


# ---------------------------------------------------------------------------
# MetricLRU invalidation (stale-metric hazard regression)
# ---------------------------------------------------------------------------


class TestMetricLRUInvalidation:
    def test_invalidate_counts_separately_from_evictions(self):
        lru: MetricLRU[str] = MetricLRU(4)
        keys = [metric_fingerprint(np.array([float(i)])) for i in range(4)]
        for k in keys:
            lru.put(k, "m")
        removed = lru.invalidate(keys[:2])
        assert removed == 2
        assert lru.invalidations == 2
        assert lru.evictions == 0  # correctness removals are not evictions
        assert len(lru) == 2
        # invalidating absent keys is a no-op
        assert lru.invalidate(keys[:2]) == 0
        assert lru.invalidations == 2

    def test_clear_preserves_hit_miss_counters(self):
        lru: MetricLRU[str] = MetricLRU(4)
        k = metric_fingerprint(np.array([1.0]))
        lru.put(k, "m")
        assert lru.get(k) == "m"
        assert lru.get(metric_fingerprint(np.array([2.0]))) is None
        dropped = lru.clear()
        assert dropped == 1
        assert lru.hits == 1 and lru.misses == 1
        assert lru.invalidations == 1
        assert len(lru) == 0
        lru.reset_counters()
        assert lru.stats()["invalidations"] == 0

    def test_stale_metric_never_served_after_structural_update(self):
        """The regression this API exists for: customize a second metric,
        apply a structural update, and verify the old cached metrics are
        gone — a hit on them would serve distances of a dead graph."""
        g = random_connected_graph(120, 60, seed=21)
        res = run_punch(g, 25, PunchConfig(seed=3))
        eng = ServingEngine.from_partition(res.partition, ServingConfig())
        rng = np.random.default_rng(0)
        w2 = rng.integers(1, 50, size=g.m).astype(np.float64)
        eng.customize(w2)
        assert len(eng.cache) == 2  # base + w2

        eng.enable_updates(25, punch_config=PunchConfig(seed=3))
        r = eng.apply_update(synthetic_delta_batch(g, kind="mixed", count=6, seed=22))
        assert r.structural
        assert eng.cache.invalidations >= 2
        # the only cached entry is the new base; a lookup of w2 must miss
        # (its fingerprint indexes a weight vector of the old graph)
        assert len(eng.cache) == 1
        assert eng.cache.get(metric_fingerprint(w2)) is None
        # and served answers match fresh Dijkstra on the mutated graph
        g2 = eng._graph
        for s, t in [(0, g2.n - 1), (3, 7), (10, 50)]:
            d, _ = eng.query(s, t)
            ref, _ = dijkstra(g2, s, targets=[t])
            expected = ref.get(t, float("inf"))
            assert d == expected or (np.isinf(d) and np.isinf(expected))


# ---------------------------------------------------------------------------
# Serving-engine integration
# ---------------------------------------------------------------------------


class TestServingIntegration:
    def test_apply_update_requires_enable(self, base):
        _, part = base
        eng = ServingEngine.from_partition(part)
        with pytest.raises(RuntimeError, match="enable_updates"):
            eng.apply_update(DeltaBatch((VertexAdd(),)))

    def test_weight_update_keeps_other_cached_metrics(self):
        g = random_connected_graph(120, 60, seed=31)
        res = run_punch(g, 25, PunchConfig(seed=3))
        eng = ServingEngine.from_partition(res.partition)
        rng = np.random.default_rng(1)
        w2 = rng.integers(1, 50, size=g.m).astype(np.float64)
        eng.customize(w2)
        eng.enable_updates(25, punch_config=PunchConfig(seed=3))
        r = eng.apply_update(
            synthetic_delta_batch(g, kind="reweight", count=5, seed=32)
        )
        assert not r.structural
        # structure unchanged: the w2 customization is still valid and kept
        assert metric_fingerprint(w2) in eng.cache
        # serving w2 now answers on the *old* weights' structure with w2
        # metric — still exact vs Dijkstra on (structure, w2)
        eng.customize(w2)
        s, t = 2, g.n - 3
        from repro.graph import build_graph

        g_w2 = build_graph(g.n, g.edge_u, g.edge_v, weights=w2)
        ref, _ = dijkstra(g_w2, s, targets=[t])
        d, _ = eng.query(s, t)
        expected = ref.get(t, float("inf"))
        assert d == expected or (np.isinf(d) and np.isinf(expected))

    def test_stats_updates_section(self):
        g = random_connected_graph(100, 50, seed=33)
        res = run_punch(g, 25, PunchConfig(seed=3))
        eng = ServingEngine.from_partition(res.partition)
        eng.enable_updates(25, punch_config=PunchConfig(seed=3))
        eng.apply_update(synthetic_delta_batch(g, kind="reweight", count=4, seed=34))
        eng.apply_update(
            synthetic_delta_batch(eng._graph, kind="grow", count=2, seed=35)
        )
        st = eng.stats()["updates"]
        assert st["applied"] == 2
        assert st["weight"] == 1 and st["structural"] == 1
        assert st["journal"]["updates"] == 2

    def test_vertex_add_grows_query_range(self):
        g = random_connected_graph(100, 50, seed=36)
        res = run_punch(g, 25, PunchConfig(seed=3))
        eng = ServingEngine.from_partition(res.partition)
        eng.enable_updates(25, punch_config=PunchConfig(seed=3))
        batch = DeltaBatch((VertexAdd(size=1, edges=((0, 2.0), (1, 3.0))),))
        eng.apply_update(batch)
        g2 = eng._graph
        assert g2.n == g.n + 1
        d, _ = eng.query(g.n, 0)  # querying the new vertex must work
        ref, _ = dijkstra(g2, g.n, targets=[0])
        assert d == ref[0]
