"""Unit tests for tiny-cut pass 2 (degree-2 chain contraction)."""

from repro.filtering import degree_two_labels
from repro.graph import contract
from repro.graph.builder import build_graph

from .conftest import cycle_graph, make_graph, path_graph


def apply_pass(g, U):
    labels, stats = degree_two_labels(g, U)
    cg, dense = contract(g, labels)
    return cg, dense, stats


class TestDegreeTwoLabels:
    def test_chain_between_anchors(self):
        # anchors 0 (deg 3) and 6 (deg 3): star-path-star
        edges = [(0, 1), (1, 2), (2, 3), (3, 6), (0, 4), (0, 5), (6, 7), (6, 8)]
        g = make_graph(9, edges)
        cg, dense, stats = apply_pass(g, U=10)
        assert stats.chains_found >= 1
        # the chain 1-2-3 collapses to one vertex
        assert dense[1] == dense[2] == dense[3]
        assert dense[0] != dense[1]

    def test_chain_too_large_skipped(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 6), (0, 4), (0, 5), (6, 7), (6, 8)]
        g = make_graph(9, edges)
        _, dense, stats = apply_pass(g, U=2)
        assert stats.chains_skipped >= 1
        assert len({int(dense[1]), int(dense[2]), int(dense[3])}) == 3

    def test_pure_cycle_component(self):
        g = cycle_graph(6)
        cg, _, stats = apply_pass(g, U=6)
        assert cg.n == 1
        assert cg.m == 0  # self-loop removed

    def test_cycle_exceeding_U_skipped(self):
        g = cycle_graph(6)
        cg, _, stats = apply_pass(g, U=5)
        assert cg.n == 6

    def test_path_graph_endpoints_are_degree_one(self):
        g = path_graph(5)  # interior 1,2,3 have degree 2
        _, dense, _ = apply_pass(g, U=5)
        assert dense[1] == dense[2] == dense[3]
        assert dense[0] != dense[1] and dense[4] != dense[1]

    def test_no_degree_two_vertices(self):
        from .conftest import complete_graph

        g = complete_graph(5)
        cg, _, stats = apply_pass(g, U=5)
        assert cg.n == 5
        assert stats.chains_found == 0

    def test_respects_vertex_sizes(self):
        g = build_graph(5, [0, 1, 2, 3], [1, 2, 3, 4], sizes=[1, 3, 3, 3, 1])
        _, dense, stats = apply_pass(g, U=6)
        # chain 1-2-3 has size 9 > 6 -> skipped
        assert len({int(dense[1]), int(dense[2]), int(dense[3])}) == 3

    def test_single_degree2_vertices_noop(self):
        # vertices 1 and 3 have degree 2, each a singleton chain between
        # the anchors 0 and 2
        g = make_graph(4, [(0, 1), (1, 2), (0, 3), (2, 3), (0, 2)])
        cg, dense, stats = apply_pass(g, U=4)
        assert stats.chains_found == 2
        assert cg.n == g.n  # contracting singletons changes nothing

    def test_two_adjacent_chains_merge_via_shared_anchor(self):
        # theta graph: two parallel chains between anchors 0 and 3
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3), (0, 3)])
        _, dense, stats = apply_pass(g, U=6)
        assert dense[1] == dense[2]
        assert dense[4] == dense[5]
        assert dense[1] != dense[4]
