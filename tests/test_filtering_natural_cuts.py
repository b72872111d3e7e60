"""Unit tests for natural-cut detection and the cut subproblem builder."""

import numpy as np
import pytest

from repro.filtering import (
    build_cut_problem,
    collect_cut_problems,
    detect_natural_cuts,
    solve_cut_problem,
)
from repro.filtering.natural_cuts import NaturalCutStats
from repro.graph import BFSWorkspace, grow_bfs_region
from repro.synthetic import grid_with_walls, two_blobs

from .conftest import cycle_graph, make_graph


class TestBuildCutProblem:
    def test_exhausted_region_returns_none(self):
        g = cycle_graph(5)
        ws = BFSWorkspace(g.n)
        region = grow_bfs_region(g, ws, 0, max_size=100, core_size=10)
        assert build_cut_problem(g, region) is None

    def test_local_structure(self):
        gb, _ = two_blobs(60, bridge_len=3, seed=1)
        ws = BFSWorkspace(gb.n)
        region = grow_bfs_region(gb, ws, 3, max_size=70, core_size=7)
        prob = build_cut_problem(gb, region)
        assert prob is not None
        assert prob.n_local == 2 + len(region.tree) - region.core_count
        # s and t present in the merged network
        assert 0 in prob.net_u.tolist() + prob.net_v.tolist()
        assert 1 in prob.net_u.tolist() + prob.net_v.tolist()

    def test_solve_finds_bridge(self):
        gb, expected = two_blobs(60, bridge_len=3, seed=1)
        ws = BFSWorkspace(gb.n)
        region = grow_bfs_region(gb, ws, 3, max_size=70, core_size=7)
        prob = build_cut_problem(gb, region)
        value, cut_edges = solve_cut_problem(prob)
        assert value == pytest.approx(expected)
        assert len(cut_edges) == expected

    @pytest.mark.parametrize("solver", ["push_relabel", "dinic", "scipy"])
    def test_solvers_agree_on_value(self, solver):
        gb, _ = two_blobs(50, bridge_len=2, seed=3)
        ws = BFSWorkspace(gb.n)
        region = grow_bfs_region(gb, ws, 5, max_size=60, core_size=6)
        prob = build_cut_problem(gb, region)
        ref, _ = solve_cut_problem(prob, "edmonds_karp")
        value, _ = solve_cut_problem(prob, solver)
        assert value == pytest.approx(ref)

    def test_direct_core_ring_edges_forced(self):
        # star: center adjacent to everything; tiny core, ring everywhere
        g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        ws = BFSWorkspace(g.n)
        region = grow_bfs_region(g, ws, 1, max_size=2, core_size=1)
        prob = build_cut_problem(g, region)
        if prob is not None:
            value, cut = solve_cut_problem(prob)
            assert value > 0


class TestCollectCutProblems:
    def test_every_vertex_covered(self):
        g = grid_with_walls(8, 24, wall_cols=[7, 15])
        rng = np.random.default_rng(0)
        stats = NaturalCutStats()
        problems = collect_cut_problems(g, U=40, alpha=1.0, f=10.0, rng=rng, stats=stats)
        # coverage: the union of cores is everything
        total_core = sum(stats.core_sizes)
        assert total_core >= g.n  # cores are disjoint? no - but cover all
        assert stats.centers == len(stats.core_sizes)

    def test_small_component_produces_no_problem(self):
        g = cycle_graph(4)
        rng = np.random.default_rng(0)
        stats = NaturalCutStats()
        problems = collect_cut_problems(g, U=100, alpha=1.0, f=10.0, rng=rng, stats=stats)
        assert problems == []
        assert stats.exhausted_regions >= 1

    def test_core_smaller_than_tree(self):
        g = grid_with_walls(10, 30, wall_cols=[14])
        rng = np.random.default_rng(1)
        stats = NaturalCutStats()
        collect_cut_problems(g, U=60, alpha=1.0, f=10.0, rng=rng, stats=stats)
        for core, tree in zip(stats.core_sizes, stats.tree_sizes):
            assert core <= tree


class TestDetectNaturalCuts:
    def test_planted_wall_found(self):
        g = grid_with_walls(10, 40, wall_cols=[19], gap_rows=[5])
        cut_ids, stats = detect_natural_cuts(
            g, U=120, rng=np.random.default_rng(2)
        )
        # the single gap edge must be among the marked cut edges
        gap_edges = [
            e
            for e in range(g.m)
            if {int(g.edge_u[e]) % 40, int(g.edge_v[e]) % 40} == {19, 20}
        ]
        assert len(gap_edges) == 1
        assert gap_edges[0] in cut_ids.tolist()

    def test_bridge_found_in_blobs(self):
        gb, _ = two_blobs(80, bridge_len=1, seed=5)
        cut_ids, _ = detect_natural_cuts(gb, U=90, rng=np.random.default_rng(0))
        bridge = [e for e in range(gb.m) if set(gb.edge_endpoints(e)) == {0, 80}]
        assert bridge[0] in cut_ids.tolist()

    def test_coverage_increases_marks(self):
        g = grid_with_walls(10, 30, wall_cols=[14])
        c1, _ = detect_natural_cuts(g, U=60, C=1, rng=np.random.default_rng(7))
        c3, _ = detect_natural_cuts(g, U=60, C=3, rng=np.random.default_rng(7))
        assert len(c3) >= len(c1) * 0.8  # more sweeps, (statistically) more marks

    def test_stats_populated(self):
        g = grid_with_walls(8, 16, wall_cols=[7])
        _, stats = detect_natural_cuts(g, U=32, rng=np.random.default_rng(3))
        assert stats.centers > 0
        assert stats.problems_solved > 0
        assert stats.cut_edges_marked > 0
        assert len(stats.cut_values) == stats.problems_solved

    def test_executor_processes_equivalent_set(self):
        from repro.core.config import ParallelConfig
        from repro.parallel import ParallelRuntime

        g = grid_with_walls(8, 16, wall_cols=[7])
        a, _ = detect_natural_cuts(g, U=32, rng=np.random.default_rng(4))
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            b, stats = detect_natural_cuts(g, U=32, rng=np.random.default_rng(4), parallel=rt)
        assert np.array_equal(a, b)
        assert stats.final_executor == "processes"
