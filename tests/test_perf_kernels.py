"""Equivalence and behavior tests for the perf layer.

Covers the bit-identical contract of every vectorized kernel against its
retained scalar reference, the CutCache (hits must never change a
partition), the phase profiler, and the local-search sampling fixes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assembly.cells import PartitionState
from repro.assembly.greedy import adjacency_of_graph, greedy_labels_for_graph
from repro.assembly.instance import build_aux_instance, build_aux_instance_reference
from repro.assembly.local_search import _RandomPairSet, local_search
from repro.core.config import PunchConfig
from repro.core.punch import run_punch
from repro.filtering.cut_problem import (
    build_cut_problem,
    build_cut_problem_reference,
    solve_cut_problem,
    solve_cut_problem_sides,
)
from repro.filtering.natural_cuts import detect_natural_cuts
from repro.filtering.paths import degree_two_labels, degree_two_labels_reference
from repro.flow.network import FlowNetwork
from repro.flow.push_relabel import _global_relabel, global_relabel_reference
from repro.graph.csr import gather_csr_rows, stable_unique
from repro.graph.traversal import (
    BFSWorkspace,
    bfs_order,
    bfs_order_reference,
    grow_bfs_region,
    grow_bfs_region_reference,
)
from repro.perf.cut_cache import CutCache
from repro.perf.timers import PhaseProfiler, get_profiler, set_profiler
from repro.synthetic import road_network

SEEDS = [0, 1, 7]


@pytest.fixture(scope="module")
def road():
    return road_network(n_target=900, seed=3)


def random_graph(rng, n=60, extra=80):
    """A connected-ish random graph with random weights and sizes."""
    from repro.graph.builder import build_graph

    u = np.concatenate([np.arange(n - 1), rng.integers(0, n, size=extra)])
    v = np.concatenate([np.arange(1, n), rng.integers(0, n, size=extra)])
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.integers(1, 10, size=len(u)).astype(np.float64)
    s = rng.integers(1, 5, size=n)
    return build_graph(n, u, v, weights=w, sizes=s)


class TestCsrPrimitives:
    def test_gather_csr_rows_matches_slices(self, road):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, road.n, size=50).astype(np.int64)
        got = gather_csr_rows(road.xadj, road.adjncy, rows)
        want = np.concatenate(
            [road.adjncy[road.xadj[r] : road.xadj[r + 1]] for r in rows]
        )
        assert np.array_equal(got, want)

    def test_gather_empty_rows(self, road):
        assert len(gather_csr_rows(road.xadj, road.adjncy, np.empty(0, np.int64))) == 0

    def test_stable_unique_keeps_first_occurrence_order(self):
        a = np.asarray([5, 3, 5, 9, 3, 1, 9], dtype=np.int64)
        assert stable_unique(a).tolist() == [5, 3, 9, 1]


class TestTraversalEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_grow_bfs_region_identical(self, road, seed):
        rng = np.random.default_rng(seed)
        ws_a, ws_b = BFSWorkspace(road.n), BFSWorkspace(road.n)
        for c in rng.integers(0, road.n, size=40):
            a = grow_bfs_region_reference(road, ws_a, int(c), 80, 8)
            b = grow_bfs_region(road, ws_b, int(c), 80, 8)
            assert np.array_equal(a.tree, b.tree)
            assert np.array_equal(a.ring, b.ring)
            assert a.core_count == b.core_count
            assert a.exhausted == b.exhausted

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bfs_order_identical(self, road, seed):
        rng = np.random.default_rng(seed)
        for c in rng.integers(0, road.n, size=10):
            assert np.array_equal(
                bfs_order_reference(road, int(c)), bfs_order(road, int(c))
            )

    def test_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = random_graph(rng)
            ws_a, ws_b = BFSWorkspace(g.n), BFSWorkspace(g.n)
            for c in rng.integers(0, g.n, size=8):
                a = grow_bfs_region_reference(g, ws_a, int(c), 30, 4)
                b = grow_bfs_region(g, ws_b, int(c), 30, 4)
                assert np.array_equal(a.tree, b.tree)
                assert np.array_equal(a.ring, b.ring)
                assert a.core_count == b.core_count


class TestTinyCutScanEquivalence:
    @pytest.mark.parametrize("U", [1, 5, 50, 10**9])
    def test_degree_two_labels_identical(self, road, U):
        la, sa = degree_two_labels(road, U)
        lb, sb = degree_two_labels_reference(road, U)
        assert np.array_equal(la, lb)
        assert sa == sb

    def test_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            g = random_graph(rng, n=40, extra=10)
            for U in (1, 3, 1000):
                la, sa = degree_two_labels(g, U)
                lb, sb = degree_two_labels_reference(g, U)
                assert np.array_equal(la, lb)
                assert sa == sb


class TestCutProblemEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_networks_identical(self, road, seed):
        rng = np.random.default_rng(seed)
        ws = BFSWorkspace(road.n)
        for c in rng.integers(0, road.n, size=30):
            region = grow_bfs_region(road, ws, int(c), 80, 8)
            if region.exhausted:
                continue
            a = build_cut_problem(road, region)
            b = build_cut_problem_reference(road, region)
            if a is None or b is None:
                assert a is None and b is None
                continue
            assert a.n_local == b.n_local
            assert np.array_equal(a.net_u, b.net_u)
            assert np.array_equal(a.net_v, b.net_v)
            assert np.array_equal(a.net_cap, b.net_cap)
            assert a.fingerprint() == b.fingerprint()
            # candidate arrays may be ordered differently but cover the
            # same edges with the same local endpoints
            ka = sorted(zip(a.cand_edges.tolist(), a.cand_lu.tolist(), a.cand_lv.tolist()))
            kb = sorted(zip(b.cand_edges.tolist(), b.cand_lu.tolist(), b.cand_lv.tolist()))
            assert ka == kb
            va, ea = solve_cut_problem(a)
            vb, eb = solve_cut_problem(b)
            assert va == vb
            assert np.array_equal(np.sort(ea), np.sort(eb))


class TestGlobalRelabelEquivalence:
    def test_zero_and_nonzero_flows(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            m = int(rng.integers(n, 3 * n))
            u = rng.integers(0, n, size=m)
            v = rng.integers(0, n, size=m)
            keep = u != v
            u, v = u[keep], v[keep]
            if len(u) == 0:
                continue
            cap = rng.integers(1, 10, size=len(u)).astype(np.float64)
            net = FlowNetwork(n, u, v, cap)
            zero = np.zeros(net.n_arcs)
            assert np.array_equal(
                _global_relabel(net, zero, 0, 1), global_relabel_reference(net, zero, 0, 1)
            )
            # random antisymmetric preflow within capacities
            f = rng.uniform(0, 1, size=net.n_arcs // 2) * net.arc_cap[0::2]
            flow = np.empty(net.n_arcs)
            flow[0::2] = f
            flow[1::2] = -f
            assert np.array_equal(
                _global_relabel(net, flow, 0, 1), global_relabel_reference(net, flow, 0, 1)
            )


class TestAuxInstanceEquivalence:
    @pytest.mark.parametrize("variant", ["L2", "L2+", "L2*"])
    def test_identical_including_edge_order(self, road, variant):
        labels = greedy_labels_for_graph(road, 60, np.random.default_rng(5))
        state = PartitionState(road, labels)
        pairs = state.adjacent_pairs()[:30]
        for R, S in pairs:
            a = build_aux_instance(state, R, S, variant)
            b = build_aux_instance_reference(state, R, S, variant)
            assert np.array_equal(a.unit_sizes, b.unit_sizes)
            assert np.array_equal(a.unit_cell, b.unit_cell)
            assert np.array_equal(a.uncontracted, b.uncontracted)
            assert a.unit_frags == b.unit_frags
            assert np.array_equal(a.edge_a, b.edge_a)
            assert np.array_equal(a.edge_b, b.edge_b)
            assert np.array_equal(a.edge_w, b.edge_w)
            assert a.adjacency() == b.adjacency()

    def test_cache_invalidation_after_replace(self, road):
        """Cached cell arrays must not survive the cells they describe."""
        rng = np.random.default_rng(9)
        labels = greedy_labels_for_graph(road, 60, rng)
        state = PartitionState(road, labels)
        local_search(state, 60, variant="L2+", phi_max=2, rng=rng, max_steps=30)
        state.check()
        assert state.cost == pytest.approx(state.recompute_cost())
        # cached adjacency of every live cell matches a cold rebuild from the
        # same labels (destroyed cells were evicted, survivors are intact)
        cold = PartitionState(road, state.labels.copy())
        relabel = {}
        for v, c in enumerate(state.labels.tolist()):
            relabel.setdefault(c, int(cold.labels[v]))
        for c in state.cells():
            mem, vv, loc, ys, ws = state.cell_adjacency(c)
            assert np.array_equal(mem, np.asarray(state.cell_members[c]))
            mem2, vv2, loc2, ys2, ws2 = cold.cell_adjacency(relabel[c])
            assert np.array_equal(np.sort(mem), np.sort(mem2))
            assert np.array_equal(loc, loc2) or len(loc) == len(loc2)
            assert ws.sum() == pytest.approx(ws2.sum())


class TestCutCache:
    def test_hit_returns_stored_result(self):
        cache = CutCache()
        side = np.asarray([True, False, True])
        cache.put(b"k1", 3.5, side)
        value, stored = cache.get(b"k1")
        assert value == 3.5 and np.array_equal(stored, side)
        assert cache.hits == 1 and cache.misses == 0
        assert cache.get(b"nope") is None
        assert cache.misses == 1

    def test_eviction_bound(self):
        cache = CutCache(max_entries=4)
        for i in range(10):
            cache.put(bytes([i]), float(i), np.asarray([bool(i % 2)]))
        assert len(cache) == 4
        assert cache.get(bytes([0])) is None  # evicted (FIFO)
        assert cache.get(bytes([9])) is not None

    def test_stored_side_is_frozen_copy(self):
        cache = CutCache()
        side = np.asarray([True, False])
        cache.put(b"k", 1.0, side)
        side[0] = False  # caller mutation must not reach the cache
        _, stored = cache.get(b"k")
        assert stored[0]
        with pytest.raises(ValueError):
            stored[0] = False

    def test_equal_fingerprints_reuse_is_identical(self, road):
        """A cache hit returns exactly what a fresh solve would."""
        rng = np.random.default_rng(2)
        ws = BFSWorkspace(road.n)
        problems = []
        for c in rng.integers(0, road.n, size=60):
            r = grow_bfs_region(road, ws, int(c), 80, 8)
            if not r.exhausted:
                problems.append(build_cut_problem(road, r))
        by_fp = {}
        for p in problems:
            by_fp.setdefault(p.fingerprint(), []).append(p)
        for group in by_fp.values():
            v0, s0 = solve_cut_problem_sides(group[0])
            for p in group[1:]:
                v, s = solve_cut_problem_sides(p)
                assert v == v0
                assert np.array_equal(s, s0)

    def test_cache_never_changes_cuts(self, road):
        ids_a, stats_a = detect_natural_cuts(
            road, 64, C=2, rng=np.random.default_rng(3), cut_cache=None
        )
        cache = CutCache()
        ids_b, stats_b = detect_natural_cuts(
            road, 64, C=2, rng=np.random.default_rng(3), cut_cache=cache
        )
        assert np.array_equal(ids_a, ids_b)
        assert stats_b.cache_hits == cache.hits
        assert stats_b.cache_hits + stats_b.cache_misses > 0


class TestPhaseProfiler:
    def test_disabled_records_nothing(self):
        prof = PhaseProfiler(enabled=False)
        with prof.span("x"):
            pass
        prof.count("c")
        assert prof.spans == {} and prof.counters == {}

    def test_enabled_aggregates_by_name(self):
        prof = PhaseProfiler(enabled=True)
        for _ in range(3):
            with prof.span("x"):
                pass
        prof.count("c", 2)
        prof.count("c")
        out = prof.export()
        assert out["spans"]["x"]["calls"] == 3
        assert out["spans"]["x"]["wall_s"] >= 0
        assert out["counters"]["c"] == 3
        assert "x" in prof.report()

    def test_span_records_on_exception(self):
        prof = PhaseProfiler(enabled=True)
        with pytest.raises(RuntimeError):
            with prof.span("boom"):
                raise RuntimeError("boom")
        assert prof.spans["boom"][2] == 1

    def test_set_profiler_swaps_global(self):
        prev = get_profiler()
        mine = PhaseProfiler(enabled=True)
        try:
            assert set_profiler(mine) is prev
            assert get_profiler() is mine
        finally:
            set_profiler(prev)

    def test_punch_run_populates_spans_when_enabled(self, road):
        prof = get_profiler()
        prof.reset()
        prof.enabled = True
        try:
            run_punch(road, 96, PunchConfig(seed=0))
        finally:
            prof.enabled = False
        names = set(prof.spans)
        prof.reset()
        assert {"filter.tiny_cuts", "filter.natural_cuts", "assembly.greedy"} <= names


class TestLocalSearchFixes:
    def test_sample_empty_raises_indexerror(self):
        s = _RandomPairSet()
        with pytest.raises(IndexError):
            s.sample(np.random.default_rng(0))

    def test_sample_after_discard_to_empty(self):
        s = _RandomPairSet()
        s.add((1, 2))
        s.discard((1, 2))
        assert len(s) == 0
        with pytest.raises(IndexError):
            s.sample(np.random.default_rng(0))

    def test_batch_search_survives_stale_only_pairs(self, road):
        """A round whose sampled pairs all turn stale must not crash."""
        rng = np.random.default_rng(4)
        labels = greedy_labels_for_graph(road, 60, rng)
        state = PartitionState(road, labels)
        stats = local_search(
            state, 60, variant="L2+", phi_max=4, rng=rng, max_steps=50, batch=8
        )
        state.check()
        # the cap is enforced per round, so a batched round may overshoot
        # by at most batch - 1 steps
        assert stats.steps <= 50 + 7


class TestGraphAccessors:
    def test_half_edge_weights_memoized(self, road):
        a = road.half_edge_weights()
        assert a is road.half_edge_weights()
        assert np.array_equal(a, road.ewgt[road.eid])

    def test_edges_arrays_matches_generator(self, road):
        eu, ev, ew = road.edges_arrays()
        gen = list(road.edges())
        assert len(gen) == road.m
        assert gen == list(zip(eu.tolist(), ev.tolist(), ew.tolist()))

    def test_adjacency_of_graph_order_and_values(self, road):
        adj = adjacency_of_graph(road)
        assert len(adj) == road.n
        for e in range(0, road.m, max(1, road.m // 50)):
            u, v = int(road.edge_u[e]), int(road.edge_v[e])
            assert adj[u][v] == adj[v][u] == float(road.ewgt[e])
