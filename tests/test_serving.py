"""Serving layer: metric LRU, workspace queries, batching, replay, CLI.

The load-bearing contract is bit-identity: everything the engine does —
stamped-workspace searches, batched serving, LRU-cached customizations —
must answer exactly what the scalar single-query path answers.  Speed may
change; bits may not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.punch import run_punch
from repro.crp import (
    build_overlay,
    build_overlay_reference,
    crp_query,
    customize_overlay,
    customize_overlay_reference,
)
from repro.serve import (
    MetricLRU,
    QueryLog,
    SearchWorkspace,
    ServingConfig,
    ServingEngine,
    metric_fingerprint,
    replay,
    synthetic_query_log,
)


@pytest.fixture(scope="module")
def served(road_small):
    res = run_punch(road_small, 48)
    overlay = build_overlay(res.partition)
    return road_small, res.partition, overlay


def _pairs(g, k, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, g.n, size=k), rng.integers(0, g.n, size=k)


def _same(a, b):
    return a == b or (np.isinf(a) and np.isinf(b))


# ---------------------------------------------------------------------------
# MetricLRU
# ---------------------------------------------------------------------------


class TestMetricLRU:
    def test_fingerprint_distinguishes_values_and_lengths(self):
        a = metric_fingerprint(np.array([1.0, 2.0]))
        assert a == metric_fingerprint(np.array([1.0, 2.0]))
        assert a != metric_fingerprint(np.array([1.0, 3.0]))
        assert a != metric_fingerprint(np.array([1.0, 2.0, 0.0]))

    def test_hit_miss_counters(self):
        lru: MetricLRU[str] = MetricLRU(2)
        assert lru.get(b"a") is None
        lru.put(b"a", "A")
        assert lru.get(b"a") == "A"
        assert (lru.hits, lru.misses, lru.evictions) == (1, 1, 0)

    def test_lru_eviction_order(self):
        lru: MetricLRU[int] = MetricLRU(2)
        lru.put(b"a", 1)
        lru.put(b"b", 2)
        assert lru.get(b"a") == 1  # refresh a; b is now least-recent
        lru.put(b"c", 3)
        assert b"b" not in lru and b"a" in lru and b"c" in lru
        assert lru.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MetricLRU(0)


# ---------------------------------------------------------------------------
# SearchWorkspace
# ---------------------------------------------------------------------------


class TestSearchWorkspace:
    def test_stamp_invalidation(self):
        ws = SearchWorkspace(4)
        s1 = ws.begin_query()
        ws.dist[2] = 5.0
        ws.dist_stamp[2] = s1
        s2 = ws.begin_query()
        assert s2 != s1 and ws.dist_stamp[2] != s2  # stale without clearing
        assert ws.reuses == 1

    def test_resize_grows_only(self):
        ws = SearchWorkspace(2)
        ws.resize(5)
        assert ws.n == 5 and len(ws.dist) == 5
        ws.resize(3)
        assert ws.n == 5


# ---------------------------------------------------------------------------
# Engine bit-identity
# ---------------------------------------------------------------------------


class TestEngineBitIdentity:
    def test_point_queries_match_crp_query(self, served):
        g, _, overlay = served
        eng = ServingEngine(overlay)
        S, T = _pairs(g, 80, 0)
        for s, t in zip(S, T):
            d_ref, n_ref = crp_query(overlay, int(s), int(t))
            d, n = eng.query(int(s), int(t))
            assert _same(d_ref, d) and n_ref == n

    def test_batch_matches_scalar(self, served):
        g, _, overlay = served
        eng = ServingEngine(overlay)
        S, T = _pairs(g, 120, 1)
        out = eng.query_batch(S, T)
        for i, (s, t) in enumerate(zip(S, T)):
            assert _same(crp_query(overlay, int(s), int(t))[0], float(out[i]))

    def test_cold_and_warm_cache_identical(self, served):
        g, _, overlay = served
        eng = ServingEngine(overlay, ServingConfig(metric_cache_entries=2))
        rng = np.random.default_rng(2)
        w = rng.integers(1, 10, g.m).astype(np.float64)
        S, T = _pairs(g, 40, 3)
        assert eng.customize(w) is False  # cold: vectorized customization
        cold = eng.query_batch(S, T)
        eng.customize(g.ewgt)  # displace, then come back
        assert eng.customize(w) is True  # warm: LRU hit
        warm = eng.query_batch(S, T)
        assert np.array_equal(cold, warm)
        ov = customize_overlay(overlay, w)
        for i, (s, t) in enumerate(zip(S, T)):
            assert _same(crp_query(ov, int(s), int(t))[0], float(cold[i]))


# ---------------------------------------------------------------------------
# Vectorized customization vs scalar reference
# ---------------------------------------------------------------------------


class TestVectorizedCustomization:
    def test_build_overlay_bit_identical_to_reference(self, served):
        g, partition, overlay = served
        ref = build_overlay_reference(partition)
        assert set(ref.adj) == set(overlay.adj)
        for v in ref.adj:
            assert ref.adj[v] == overlay.adj[v]  # entries, order, and bits
        assert ref.boundary_of_cell == overlay.boundary_of_cell
        assert (ref.clique_edges, ref.cut_edges) == (
            overlay.clique_edges,
            overlay.cut_edges,
        )

    def test_customize_bit_identical_to_reference(self, served):
        g, _, overlay = served
        rng = np.random.default_rng(7)
        w = rng.integers(1, 10, g.m).astype(np.float64)
        vec = customize_overlay(overlay, w)
        ref = customize_overlay_reference(overlay, w)
        assert set(ref.adj) == set(vec.adj)
        for v in ref.adj:
            assert ref.adj[v] == vec.adj[v]


# ---------------------------------------------------------------------------
# Counters and reporting
# ---------------------------------------------------------------------------


class TestCountersAndReport:
    def test_stats_and_run_report(self, served):
        g, _, overlay = served
        eng = ServingEngine(overlay, ServingConfig(metric_cache_entries=2))
        eng.query(0, 1)
        eng.query_batch([0, 1], [2, 3])
        rng = np.random.default_rng(10)
        eng.customize(rng.integers(1, 10, g.m).astype(np.float64))
        st = eng.stats()
        assert st["queries"] == 3 and st["batches"] == 1
        assert st["customizations"] == 1
        assert st["metric_cache"]["misses"] == 1
        rep = eng.run_report()
        assert rep["serving"]["queries"] == 3
        eng.reset_counters()
        assert eng.stats()["queries"] == 0

    def test_one_serving_path(self, served):
        """The engine has no fan-out, stats switch or multi-level mode: the
        config holds only the LRU size, a batch takes no pool, and the
        stats carry no mode, fan-out or workspace-pool keys."""
        g, _, overlay = served
        for removed in ("collect_stats", "fanout_chunk"):
            with pytest.raises(TypeError, match=removed):
                ServingConfig(**{removed: 1})
        eng = ServingEngine(overlay)
        with pytest.raises(TypeError, match="pool"):
            eng.query_batch([0], [1], pool=None)
        st = eng.stats()
        for key in ("mode", "fanout_batches", "fanout_degraded", "workspaces", "stats_enabled"):
            assert key not in st


# ---------------------------------------------------------------------------
# Replay harness
# ---------------------------------------------------------------------------


class TestReplay:
    def test_log_is_deterministic(self, road_small):
        a = synthetic_query_log(road_small, 100, batch_size=20, n_profiles=3, seed=1)
        b = synthetic_query_log(road_small, 100, batch_size=20, n_profiles=3, seed=1)
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.profiles, b.profiles)
        assert np.array_equal(a.batch_profile, b.batch_profile)
        assert a.batch_profile[0] == 0 and a.num_profiles == 3

    def test_replay_distances_bit_identical(self, served):
        g, _, overlay = served
        eng = ServingEngine(overlay, ServingConfig(metric_cache_entries=4))
        log = synthetic_query_log(g, 120, batch_size=30, n_profiles=2, seed=2)
        rr = replay(eng, log, batch_size=30)
        assert rr.queries == 120 and rr.batches == 4
        assert rr.qps > 0 and rr.latency_p99_ms >= rr.latency_p50_ms >= 0
        for b in range(rr.batches):
            ov = customize_overlay(overlay, log.profiles[int(log.batch_profile[b])])
            for i in range(b * 30, min((b + 1) * 30, 120)):
                d_ref, _ = crp_query(ov, int(log.sources[i]), int(log.targets[i]))
                assert _same(d_ref, float(rr.distances[i]))
        rep = rr.run_report()
        assert rep["serving"]["replay"]["queries"] == 120
        assert 0.0 <= rep["serving"]["replay"]["lru_hit_rate"] <= 1.0

    def test_replay_batch_mismatch_raises(self, served):
        g, _, overlay = served
        eng = ServingEngine(overlay)
        log = synthetic_query_log(g, 100, batch_size=20, n_profiles=2, seed=3)
        with pytest.raises(ValueError, match="batches"):
            replay(eng, log, batch_size=7)

    def test_log_validation(self, road_small):
        with pytest.raises(ValueError):
            synthetic_query_log(road_small, 0)
        with pytest.raises(ValueError):
            synthetic_query_log(road_small, 10, batch_size=0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_replay_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "replay.json"
    rc = main(
        [
            "replay",
            "--name",
            "mini_like",
            "-U",
            "32",
            "--queries",
            "60",
            "--batch",
            "20",
            "--seed",
            "1",
            "--json",
            str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "throughput" in text and "LRU hit rate" in text
    import json

    report = json.loads(out.read_text())
    assert report["serving"]["replay"]["queries"] == 60
