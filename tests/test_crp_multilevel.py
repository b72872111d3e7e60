"""Exactness and search-space tests for multi-level CRP."""

import numpy as np
import pytest

from repro import PunchConfig
from repro.core.config import AssemblyConfig
from repro.core.nested import run_nested_punch
from repro.crp import dijkstra
from repro.crp.multilevel import build_multilevel_overlay, ml_query

FAST = PunchConfig(assembly=AssemblyConfig(phi=4), seed=0)


@pytest.fixture(scope="module")
def setup():
    from repro.synthetic import road_network

    g = road_network(n_target=900, n_cities=6, seed=17)
    nested = run_nested_punch(g, [48, 192], FAST)
    mlo = build_multilevel_overlay(nested)
    return g, nested, mlo


class TestMultiLevelOverlay:
    def test_one_overlay_per_level(self, setup):
        g, nested, mlo = setup
        assert len(mlo.overlays) == 2
        # coarser level has fewer boundary vertices
        assert (
            mlo.overlays[1].num_boundary_vertices
            <= mlo.overlays[0].num_boundary_vertices
        )

    def test_query_exactness(self, setup):
        g, nested, mlo = setup
        rng = np.random.default_rng(2)
        for _ in range(30):
            s, t = rng.choice(g.n, size=2, replace=False)
            truth, _ = dijkstra(g, int(s), targets=[int(t)])
            d, _ = ml_query(mlo, int(s), int(t))
            assert d == pytest.approx(truth.get(int(t), float("inf")))

    def test_search_space_shrinks(self, setup):
        g, nested, mlo = setup
        rng = np.random.default_rng(3)
        base = 0
        ml = 0
        for _ in range(15):
            s, t = rng.choice(g.n, size=2, replace=False)
            _, n0 = dijkstra(g, int(s), targets=[int(t)])
            _, n2 = ml_query(mlo, int(s), int(t))
            base += n0
            ml += n2
        assert ml < base

    def test_same_finest_cell(self, setup):
        g, nested, mlo = setup
        labels = nested.levels[0].labels
        members = np.flatnonzero(labels == labels[0])
        if len(members) >= 2:
            s, t = int(members[0]), int(members[-1])
            truth, _ = dijkstra(g, s, targets=[t])
            d, _ = ml_query(mlo, s, t)
            assert d == pytest.approx(truth[t])

    def test_weighted_exactness(self):
        """Exact on a weighted copy of the network too."""
        from repro.graph.graph import Graph
        from repro.synthetic import road_network

        g0 = road_network(n_target=500, n_cities=4, seed=21)
        rng = np.random.default_rng(4)
        w = rng.integers(1, 9, size=g0.m).astype(float)
        g = Graph(g0.xadj, g0.adjncy, g0.eid, g0.edge_u, g0.edge_v, g0.vsize, w, coords=g0.coords)
        nested = run_nested_punch(g, [32, 128], FAST)
        mlo = build_multilevel_overlay(nested)
        for _ in range(15):
            s, t = rng.choice(g.n, size=2, replace=False)
            truth, _ = dijkstra(g, int(s), targets=[int(t)])
            d, _ = ml_query(mlo, int(s), int(t))
            assert d == pytest.approx(truth.get(int(t), float("inf")))


class TestMultiLevelAccessors:
    def test_total_clique_edges(self, setup):
        g, nested, mlo = setup
        assert mlo.total_clique_edges() == sum(o.clique_edges for o in mlo.overlays)
        assert mlo.total_clique_edges() > 0
