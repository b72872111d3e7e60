"""Direct unit tests for residual-graph side extraction in ``flow/mincut.py``.

Every backend — scipy's C max flow, push-relabel, Dinic, Edmonds-Karp —
reads its side with the one extractor
:func:`repro.flow.network.source_maximal_side`: the complement of the set
of vertices that can still reach ``t`` in the residual graph.  That is the
**source-maximal** minimum cut, which is unique, so when several minimum
cuts exist every backend still returns the same mask.

By the min-cut lattice property the source-minimal side (the residual BFS
from ``s``, computed here by the tests themselves) is contained in every
min-cut source side, so it is contained in the side the backends return.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow import FlowNetwork, edmonds_karp
from repro.flow.mincut import SOLVERS, min_st_cut

try:  # the scipy backend is optional at runtime
    import scipy  # noqa: F401

    _SOLVERS = SOLVERS
except ImportError:  # pragma: no cover - scipy is in the base image
    _SOLVERS = tuple(s for s in SOLVERS if s != "scipy")

#: backends built on BFS augmenting paths (scipy's C Dinic among them)
_BFS_SOLVERS = tuple(s for s in _SOLVERS if s != "push_relabel")


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
    """Instances with several min cuts: every backend takes the source-maximal one."""

    # diamond s->a->t / s->b->t, all caps 1: {s} and {s,a,b} are both min
    # cuts of value 2
    DIAMOND = (4, [0, 0, 1, 2], [1, 2, 3, 3], [1.0, 1.0, 1.0, 1.0], 0, 3)
    # s -2- a -2- b -2- t: every single edge is a min cut of value 2
    UNIFORM_PATH = (4, [0, 1, 2], [1, 2, 3], [2.0, 2.0, 2.0], 0, 3)

    @pytest.mark.parametrize("solver", _BFS_SOLVERS)
    def test_bfs_solvers_take_source_maximal_diamond(self, solver):
        # whichever flow the solver found, only t's own edges still carry
        # residual capacity towards t: the side is {s, a, b}, the cut edges
        # are the t-edges — push-relabel's side
        res = min_st_cut(*self.DIAMOND, solver=solver)
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1, 2]))
        assert sorted(res.cut_edges.tolist()) == [2, 3]

    def test_push_relabel_takes_source_maximal_diamond(self):
        # push-relabel keeps everything that cannot reach t: the pinned
        # side is {s, a, b}, cut edges are the t-edges — same value
        res = min_st_cut(*self.DIAMOND, solver="push_relabel")
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1, 2]))
        assert sorted(res.cut_edges.tolist()) == [2, 3]

    @pytest.mark.parametrize("solver", _BFS_SOLVERS)
    def test_bfs_solvers_take_rightmost_uniform_path(self, solver):
        res = min_st_cut(*self.UNIFORM_PATH, solver=solver)
        assert res.value == pytest.approx(2.0)
        assert np.array_equal(res.source_side, _mask(4, [0, 1, 2]))
        assert res.cut_edges.tolist() == [2]

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


def _source_minimal_side(n, u, v, cap):
    """The residual BFS from s under one maximum flow: the source-minimal
    min-cut side, the bottom of the min-cut lattice."""
    net = FlowNetwork(n, u, v, cap)
    _, flow, _ = edmonds_karp(net, 0, n - 1)
    side = np.zeros(n, dtype=bool)
    side[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for a in net.arcs_of(x):
            w = int(net.arc_to[a])
            if not side[w] and net.arc_cap[a] - flow[a] > 0:
                side[w] = True
                stack.append(w)
    return side


class TestCrossSolverSideProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_bfs_solvers_identical_masks(self, seed):
        # the BFS-based backends extract the same (unique) set — the
        # residual closure of t is independent of which max flow the
        # solver happened to find
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        u, v, cap = _random_network(rng, n)
        results = {
            s: min_st_cut(n, u, v, cap, 0, n - 1, solver=s)
            for s in _BFS_SOLVERS
        }
        base = results[_BFS_SOLVERS[0]]
        for s, res in results.items():
            assert res.value == pytest.approx(base.value), s
            assert np.array_equal(res.source_side, base.source_side), s
            assert np.array_equal(res.cut_edges, base.cut_edges), s

    @pytest.mark.parametrize("seed", range(10))
    def test_every_backend_returns_the_same_side(self, seed):
        # one side convention: every backend, and the default "auto"
        # routing, returns the same value, mask and cut edges
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(6, 14))
        u, v, cap = _random_network(rng, n)
        base = min_st_cut(n, u, v, cap, 0, n - 1, solver="push_relabel")
        for s in _SOLVERS + ("auto",):
            res = min_st_cut(n, u, v, cap, 0, n - 1, solver=s)
            assert res.value == base.value, s
            assert np.array_equal(res.source_side, base.source_side), s
            assert np.array_equal(res.cut_edges, base.cut_edges), s

    @pytest.mark.parametrize("seed", range(10))
    def test_lattice_nesting_and_equal_values(self, seed):
        # min-cut lattice: the source-minimal side is nested inside the
        # source-maximal side every backend returns, and both are min-cut
        # certificates of the same value
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(6, 14))
        u, v, cap = _random_network(rng, n)
        ua, va = np.asarray(u), np.asarray(v)
        lo = _source_minimal_side(n, u, v, cap)
        hi = min_st_cut(n, u, v, cap, 0, n - 1, solver="edmonds_karp")
        assert np.all(hi.source_side[lo]), "minimal ⊆ maximal violated"
        assert cap[lo[ua] != lo[va]].sum() == pytest.approx(hi.value)
        assert bool(hi.source_side[0]) and not bool(hi.source_side[n - 1])
        crossing = hi.source_side[ua] != hi.source_side[va]
        assert hi.value == pytest.approx(cap[crossing].sum())

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
