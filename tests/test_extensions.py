"""Tests for the Buffoon-style hybrid: PUNCH's filtering + multilevel assembly."""

import numpy as np

from repro.baselines.buffoon import buffoon_partition_U, buffoon_partition_k
from repro.core import Partition


class TestBuffoonHybrid:
    def test_U_mode_respects_bound(self, road_small):
        labels = buffoon_partition_U(road_small, 80, np.random.default_rng(0))
        p = Partition(road_small, labels)
        assert p.max_cell_size() <= 80
        assert p.num_cells >= -(-road_small.n // 80)

    def test_U_mode_competitive_with_raw_multilevel(self, road_small):
        from repro.baselines import multilevel_partition_U

        hybrid = Partition(
            road_small, buffoon_partition_U(road_small, 80, np.random.default_rng(1))
        )
        raw = Partition(
            road_small, multilevel_partition_U(road_small, 80, np.random.default_rng(1))
        )
        # filtering first should help (or at least not catastrophically hurt)
        assert hybrid.cost <= raw.cost * 1.5

    def test_k_mode_feasible(self, road_small):
        k = 4
        labels = buffoon_partition_k(road_small, k, 0.05, np.random.default_rng(2))
        p = Partition(road_small, labels)
        assert p.num_cells <= k
        bound = int(1.05 * -(-road_small.n // k))
        assert p.max_cell_size() <= bound
