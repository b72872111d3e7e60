"""Edge-case tests: buffoon failure paths and graph I/O error handling."""

import numpy as np
import pytest

from repro.graph.io import read_dimacs_gr


class TestBuffoonEdgeCases:
    def test_k_mode_single_cell(self, road_small):
        from repro.baselines import buffoon_partition_k

        labels = buffoon_partition_k(road_small, 1, 0.5, np.random.default_rng(0))
        assert len(np.unique(labels)) == 1

    def test_U_mode_huge_bound(self, road_small):
        from repro.baselines import buffoon_partition_U

        labels = buffoon_partition_U(road_small, road_small.n, np.random.default_rng(0))
        # everything can merge into one cell; the multilevel coarsening
        # collapses to few cells
        assert len(np.unique(labels)) <= 4


class TestIOErrorHandling:
    def test_dimacs_ignores_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("c hello\n\nc world\np sp 3 2\na 1 2 1\n\na 2 3 1\n")
        g = read_dimacs_gr(p)
        assert g.n == 3 and g.m == 2

    def test_dimacs_self_loop_dropped(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 2 2\na 1 1 1\na 1 2 1\n")
        g = read_dimacs_gr(p)
        assert g.m == 1

    def test_metis_inconsistent_header_tolerated(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("3 99\n2\n1 3\n2\n")  # header lies about edge count
        from repro.graph.io import read_metis

        g = read_metis(p)
        assert g.m == 2
