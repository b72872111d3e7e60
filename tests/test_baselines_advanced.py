"""Tests for the advanced baselines: FlowCutter and spectral."""

import numpy as np
import pytest

from repro.baselines import (
    fiedler_vector,
    flowcutter_bisect,
    flowcutter_partition,
    spectral_bisect,
    spectral_partition,
)
from repro.core import Partition
from repro.graph import cut_weight
from repro.synthetic import grid_with_walls

from .conftest import barbell, cycle_graph, make_graph, random_connected_graph


class TestFlowCutter:
    def test_finds_planted_wall(self):
        g = grid_with_walls(10, 30, wall_cols=[14], gap_rows=[5])
        mask, cut = flowcutter_bisect(g, s=0, t=g.n - 1, rng=np.random.default_rng(0))
        assert cut == 1.0
        assert min(mask.sum(), (~mask).sum()) == g.n // 2

    def test_barbell_bridge(self):
        g = barbell(10)
        mask, cut = flowcutter_bisect(g, s=1, t=12, rng=np.random.default_rng(0))
        assert cut == 1.0
        assert mask.sum() == 10

    def test_balance_goal_met_or_best_effort(self):
        for seed in range(3):
            g = random_connected_graph(60, 50, seed=seed)
            mask, cut = flowcutter_bisect(g, balance_goal=0.3, rng=np.random.default_rng(seed))
            small = min(mask.sum(), (~mask).sum())
            assert small >= 1
            # reported cut weight matches the mask
            assert cut == pytest.approx(cut_weight(g, mask.astype(np.int64)))

    def test_partition_k_cells(self):
        g = grid_with_walls(8, 32, wall_cols=[7, 15, 23])
        labels = flowcutter_partition(g, 4, rng=np.random.default_rng(1))
        p = Partition(g, labels)
        assert p.num_cells == 4
        assert p.cost <= 8  # three planted 1-edge walls + slack

    def test_tiny_graph(self):
        g = make_graph(2, [(0, 1)])
        mask, cut = flowcutter_bisect(g, s=0, t=1)
        assert cut == 1.0
        assert mask.sum() == 1

    def test_auto_terminal_selection(self):
        g = grid_with_walls(6, 18, wall_cols=[8])
        mask, cut = flowcutter_bisect(g, rng=np.random.default_rng(5))
        assert 0 < mask.sum() < g.n

    def test_balance_goal_met_in_vertex_size(self):
        # a quarter of the vertices carry size 10, the rest size 1, so a
        # split balanced by vertex count is far from one balanced by size
        base = random_connected_graph(80, 60, seed=7)
        rng = np.random.default_rng(7)
        sizes = np.where(np.arange(base.n) < base.n // 4, 10, 1)
        g = make_graph(
            base.n,
            list(zip(base.edge_u.tolist(), base.edge_v.tolist())),
            weights=rng.integers(1, 6, size=base.m).astype(np.float64),
            sizes=sizes,
        )
        for seed in range(6):
            mask, cut = flowcutter_bisect(g, balance_goal=0.3, rng=np.random.default_rng(seed))
            light = min(g.vsize[mask].sum(), g.vsize[~mask].sum())
            assert light >= 0.3 * g.vsize.sum()
            assert cut == pytest.approx(cut_weight(g, mask.astype(np.int64)))

    def test_same_seed_replays(self):
        g = random_connected_graph(120, 90, seed=3)
        first = flowcutter_bisect(g, rng=np.random.default_rng(11))
        again = flowcutter_bisect(g, rng=np.random.default_rng(11))
        assert np.array_equal(first[0], again[0]) and first[1] == again[1]
        labels = flowcutter_partition(g, 6, rng=np.random.default_rng(11))
        assert np.array_equal(labels, flowcutter_partition(g, 6, rng=np.random.default_rng(11)))


class TestSpectral:
    def test_fiedler_separates_barbell(self):
        g = barbell(8)
        f = fiedler_vector(g)
        # the two cliques get opposite signs
        left = f[:8]
        right = f[8:16]
        assert np.sign(np.median(left)) != np.sign(np.median(right))

    def test_bisect_balanced(self):
        g = random_connected_graph(50, 60, seed=2)
        mask = spectral_bisect(g)
        assert abs(int(mask.sum()) - g.n // 2) <= g.n // 4

    def test_partition_k(self):
        g = random_connected_graph(64, 70, seed=3)
        labels = spectral_partition(g, 8)
        p = Partition(g, labels)
        assert p.num_cells == 8

    def test_barbell_optimal(self):
        g = barbell(10)
        mask = spectral_bisect(g)
        assert cut_weight(g, mask.astype(np.int64)) == 1.0

    def test_tiny_graphs(self):
        assert len(spectral_bisect(make_graph(2, [(0, 1)]))) == 2
        assert len(spectral_bisect(cycle_graph(3))) == 3

    def test_same_input_same_labels(self):
        """The eigensolver starts from a fixed vector, so repeated runs on
        one graph give the same partition (a random start flipped signs
        and moved the median split between runs)."""
        from repro.synthetic import road_network

        g = road_network(n_target=500, n_cities=4, seed=9)
        first = spectral_partition(g, 4)
        for _ in range(3):
            assert np.array_equal(spectral_partition(g, 4), first)
