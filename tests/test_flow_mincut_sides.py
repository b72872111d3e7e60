"""Direct unit tests for residual-graph side extraction in ``flow/mincut.py``.

The backends pin *different* canonical min cuts when several exist:

- ``dinic`` / ``edmonds_karp`` / ``scipy`` return the **source-minimal**
  cut — the set of vertices reachable from ``s`` in the residual graph
  (a BFS from ``s``), which is the same for every maximum flow;
- ``push_relabel`` returns the **source-maximal** cut — the complement of
  the set that can still reach ``t`` in the residual graph.

By the min-cut lattice property the source-minimal side is contained in
every min-cut source side, which is contained in the source-maximal side.
These conventions are deterministic per solver (this is the tie-breaking
order the suite pins), but they differ *across* solvers whenever the min
cut is not unique.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow.mincut import SOLVERS, min_st_cut

try:  # the scipy backend is optional at runtime
    import scipy  # noqa: F401

    _SOLVERS = SOLVERS
except ImportError:  # pragma: no cover - scipy is in the base image
    _SOLVERS = tuple(s for s in SOLVERS if s != "scipy")

#: backends whose side is the residual BFS from s (source-minimal cut)
_MINIMAL_SIDE_SOLVERS = tuple(s for s in _SOLVERS if s != "push_relabel")


def _mask(n, true_ids):
    m = np.zeros(n, dtype=bool)
    m[list(true_ids)] = True
    return m


@pytest.mark.parametrize("solver", _SOLVERS)
class TestUniqueCutSideExtraction:
    """Instances with a unique min cut: every backend must agree exactly."""

    def test_path_bottleneck_middle(self, solver):
        # s(0) -3- a(1) -1- b(2) -2- t(3): the middle edge is the unique
        # min cut; both adjacent edges keep residual capacity, so the side
        # is {s, a} under either extraction convention
        res = min_st_cut(4, [0, 1, 2], [1, 2, 3], [3.0, 1.0, 2.0], 0, 3, solver=solver)
        assert res.value == pytest.approx(1.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1]))
        assert res.cut_edges.tolist() == [1]

    def test_two_edge_cut_with_bypass(self, solver):
        # s -5- a -2- b -5- t plus s -1- b: max flow 3 saturates (a,b) and
        # (s,b); the unique min cut side is {s, a}
        res = min_st_cut(
            4,
            [0, 1, 2, 0],
            [1, 2, 3, 2],
            [5.0, 2.0, 5.0, 1.0],
            0,
            3,
            solver=solver,
        )
        assert res.value == pytest.approx(3.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1]))
        assert sorted(res.cut_edges.tolist()) == [1, 3]

    def test_disconnected_sink_zero_cut(self, solver):
        # t unreachable: value 0, the side is s's whole component (nothing
        # can reach t; everything in the component is reachable from s)
        res = min_st_cut(4, [0, 2], [1, 3], [1.0, 1.0], 0, 3, solver=solver)
        assert res.value == pytest.approx(0.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1]))
        assert res.cut_edges.size == 0

    def test_cut_edges_match_side_mask(self, solver):
        # cut_edges is derived from the mask: exactly the crossing edges,
        # and their capacities sum to the flow value (min-cut certificate)
        u = np.array([0, 0, 1, 1, 2, 3])
        v = np.array([1, 2, 2, 3, 4, 4])
        cap = np.array([3.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        res = min_st_cut(5, u, v, cap, 0, 4, solver=solver)
        expect = np.flatnonzero(res.source_side[u] != res.source_side[v])
        assert np.array_equal(res.cut_edges, expect)
        assert res.value == pytest.approx(cap[res.cut_edges].sum())


class TestTieBreakingConventions:
    """Instances with several min cuts: pin each backend's canonical pick."""

    # diamond s->a->t / s->b->t, all caps 1: {s} and {s,a,b} are both min
    # cuts of value 2
    DIAMOND = (4, [0, 0, 1, 2], [1, 2, 3, 3], [1.0, 1.0, 1.0, 1.0], 0, 3)
    # s -2- a -2- b -2- t: every single edge is a min cut of value 2
    UNIFORM_PATH = (4, [0, 1, 2], [1, 2, 3], [2.0, 2.0, 2.0], 0, 3)

    @pytest.mark.parametrize("solver", _MINIMAL_SIDE_SOLVERS)
    def test_bfs_solvers_take_source_minimal_diamond(self, solver):
        # both source edges saturate, so the residual BFS from s stops
        # immediately: the pinned side is {s}, cut edges are the s-edges
        res = min_st_cut(*self.DIAMOND, solver=solver)
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0]))
        assert sorted(res.cut_edges.tolist()) == [0, 1]

    def test_push_relabel_takes_source_maximal_diamond(self):
        # push-relabel keeps everything that cannot reach t: the pinned
        # side is {s, a, b}, cut edges are the t-edges — same value
        res = min_st_cut(*self.DIAMOND, solver="push_relabel")
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1, 2]))
        assert sorted(res.cut_edges.tolist()) == [2, 3]

    @pytest.mark.parametrize("solver", _MINIMAL_SIDE_SOLVERS)
    def test_bfs_solvers_take_leftmost_uniform_path(self, solver):
        res = min_st_cut(*self.UNIFORM_PATH, solver=solver)
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0]))
        assert res.cut_edges.tolist() == [0]

    def test_push_relabel_takes_rightmost_uniform_path(self):
        res = min_st_cut(*self.UNIFORM_PATH, solver="push_relabel")
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1, 2]))
        assert res.cut_edges.tolist() == [2]


def _random_network(rng, n):
    """Random connected multigraph with small integer capacities (the
    scipy backend needs integers; small values make ties plentiful)."""
    u = list(range(0, n - 1))
    v = list(range(1, n))
    for _ in range(2 * n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            u.append(int(a))
            v.append(int(b))
    cap = rng.integers(1, 4, size=len(u)).astype(np.float64)
    return u, v, cap


class TestCrossSolverSideProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_bfs_solvers_identical_masks(self, seed):
        # all source-minimal backends extract the same (unique) set — the
        # residual-reachable closure of s is independent of which max flow
        # the solver happened to find
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        u, v, cap = _random_network(rng, n)
        results = {
            s: min_st_cut(n, u, v, cap, 0, n - 1, solver=s)
            for s in _MINIMAL_SIDE_SOLVERS
        }
        base = results[_MINIMAL_SIDE_SOLVERS[0]]
        for s, res in results.items():
            assert res.value == pytest.approx(base.value), s
            assert np.array_equal(res.source_side, base.source_side), s
            assert np.array_equal(res.cut_edges, base.cut_edges), s

    @pytest.mark.parametrize("seed", range(10))
    def test_lattice_nesting_and_equal_values(self, seed):
        # min-cut lattice: the source-minimal side (BFS solvers) is nested
        # inside push-relabel's source-maximal side, and both are min-cut
        # certificates of the same value
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(6, 14))
        u, v, cap = _random_network(rng, n)
        ua, va = np.asarray(u), np.asarray(v)
        lo = min_st_cut(n, u, v, cap, 0, n - 1, solver="edmonds_karp")
        hi = min_st_cut(n, u, v, cap, 0, n - 1, solver="push_relabel")
        assert hi.value == pytest.approx(lo.value)
        assert np.all(hi.source_side[lo.source_side]), "minimal ⊆ maximal violated"
        for res in (lo, hi):
            assert bool(res.source_side[0]) and not bool(res.source_side[n - 1])
            crossing = res.source_side[ua] != res.source_side[va]
            assert res.value == pytest.approx(cap[crossing].sum())

    @pytest.mark.parametrize("solver", _SOLVERS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_deterministic_replay(self, solver, seed):
        rng = np.random.default_rng(200 + seed)
        n = 10
        u, v, cap = _random_network(rng, n)
        a = min_st_cut(n, u, v, cap, 0, n - 1, solver=solver)
        b = min_st_cut(n, u, v, cap, 0, n - 1, solver=solver)
        assert a.value == b.value
        assert np.array_equal(a.source_side, b.source_side)
        assert np.array_equal(a.cut_edges, b.cut_edges)
