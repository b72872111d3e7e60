"""Differential property suite: FlowCutter's Pareto front vs the min cut.

Runs :func:`repro.flow.pareto.pareto_front` (the front behind the
FlowCutter baseline) and the push-relabel min-cut engine over a pool of 50
real contracted subproblems drawn from structurally different synthetic
graphs, and pins the relationships the FlowCutter construction guarantees:

- the cheapest front point equals the exact min s-t cut value the
  push-relabel engine computes (the first enumerated cut *is* a min cut);
- no front point is ever below the true min cut (each is a valid cut);
- the pruned front is monotone — sorted by balance, capacities strictly
  increase and smaller-side sizes are pairwise distinct.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cutengine import PushRelabelEngine
from repro.filtering.cut_problem import CutProblem
from repro.filtering.natural_cuts import collect_cut_problems
from repro.flow.network import FlowNetwork
from repro.flow.pareto import pareto_front
from repro.synthetic import grid_with_walls, road_network

N_INSTANCES = 50


def front_of(problem):
    """The front of one contracted instance: unit weights, bisection goal."""
    n = problem.n_local
    net = FlowNetwork(n, problem.net_u, problem.net_v, problem.net_cap)
    return pareto_front(net, 0, 1, np.ones(n), 0.5, np.random.default_rng(0))


def crossing_capacity(problem, side) -> float:
    crosses = side[problem.net_u] != side[problem.net_v]
    return float(problem.net_cap[crosses].sum())


def _instance_pool():
    """50 contracted subproblems from road, grid-with-walls, and blob graphs."""
    sources = [
        (road_network(n_target=500, seed=11), 64),
        (road_network(n_target=400, n_cities=3, seed=23), 48),
        (grid_with_walls(10, 30, wall_cols=[9, 19]), 40),
        (road_network(n_target=350, seed=57), 32),
    ]
    probs = []
    for i, (g, U) in enumerate(sources):
        probs.extend(collect_cut_problems(g, U, 1.0, 10.0, np.random.default_rng(i)))
    assert len(probs) >= N_INSTANCES
    # spread the selection across all sources instead of exhausting the first
    idx = np.linspace(0, len(probs) - 1, N_INSTANCES).astype(int)
    return [probs[i] for i in idx]


@pytest.fixture(scope="module")
def pool():
    problems = _instance_pool()
    engine = PushRelabelEngine()
    solved = []
    for prob in problems:
        min_value, _ = engine.solve_chain(prob)[0](prob)
        solved.append((prob, min_value, front_of(prob)))
    return solved


class TestDifferentialFlowCutterVsPushRelabel:
    def test_pool_size(self, pool):
        assert len(pool) == N_INSTANCES

    def test_front_minimum_equals_exact_min_cut(self, pool):
        # the first enumerated cut is the min s-t cut; after pruning it is
        # still the cheapest front point, and its value must match the
        # push-relabel engine exactly (both sum the same capacities)
        for prob, min_value, front in pool:
            assert min(p.value for p in front) == pytest.approx(min_value, rel=1e-12)

    def test_no_front_point_below_min_cut(self, pool):
        # every front point is a genuine cut, so none can beat the min cut
        for prob, min_value, front in pool:
            for p in front:
                assert p.value >= min_value - 1e-9 * max(1.0, min_value)

    def test_front_points_are_valid_cuts(self, pool):
        for prob, _, front in pool:
            for p in front:
                assert bool(p.side[0]) and not bool(p.side[1])
                assert p.value == pytest.approx(
                    crossing_capacity(prob, p.side), rel=1e-12
                )
                assert p.source_size == int(p.side.sum())
                assert p.total_size == prob.n_local

    def test_front_monotone_in_balance(self, pool):
        # Pareto property: along the balance axis, capacity strictly
        # increases and no smaller-side size repeats
        for prob, _, front in pool:
            ordered = sorted(front, key=lambda p: p.balance)
            sizes = [p.small_side for p in ordered]
            values = [p.value for p in ordered]
            assert len(set(sizes)) == len(sizes)
            assert sizes == sorted(sizes)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_front_deterministic_replay(self, pool):
        # the same piercing seed replays the same front
        for prob, _, front in pool:
            again = front_of(prob)
            assert len(again) == len(front)
            for p, q in zip(front, again):
                assert p.value == q.value
                assert np.array_equal(p.side, q.side)


class TestPiercing:
    def test_lighter_sink_side_is_pierced(self):
        # path s=0 -5- 2 -5- 3 -5- 4 -2- 5 -1- 6 -5- 7 -5- t=1: the min cut
        # (edge 5-6) leaves 3 vertices on the sink side and 5 on the source
        # side, so the sink side is the one to pierce.  Its only candidate
        # is vertex 5, whatever the seed; pulling it into the sink set moves
        # the cut to edge 4-5: capacity 2, an even 4 | 4 split.  Piercing
        # the source side instead would pull in vertex 6 and move the cut to
        # capacity 5 at a worse balance.
        u = np.array([0, 2, 3, 4, 5, 6, 7])
        v = np.array([2, 3, 4, 5, 6, 7, 1])
        cap = np.array([5.0, 5.0, 5.0, 2.0, 1.0, 5.0, 5.0])
        prob = CutProblem(8, u, v, cap, np.arange(7), u, v)
        front = front_of(prob)
        assert [p.value for p in front] == [1.0, 2.0]
        assert np.flatnonzero(front[0].side).tolist() == [0, 2, 3, 4, 5]
        assert np.flatnonzero(front[1].side).tolist() == [0, 2, 3, 4]
        assert front[1].balance == 0.5
