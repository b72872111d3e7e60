"""Conformance suite for the natural-cut min-cut engine.

:class:`repro.cutengine.PushRelabelEngine` is held to the contract
natural-cut detection relies on: every attempt of its solve chain returns a
*valid* s-t cut with the exact crossing capacity as its value, solves are
pure deterministic functions of the problem, survive cache round-trips
bit-identically, agree across executors, and run sanitizer-clean.  The
suite parametrizes over :data:`ENGINES`, so another engine added there is
held to the same checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cutengine import PushRelabelEngine
from repro.filtering.cut_problem import solve_cut_problem_sides
from repro.filtering.natural_cuts import collect_cut_problems, detect_natural_cuts
from repro.perf.cut_cache import CutCache
from repro.synthetic import road_network

#: the engines under test, with the ids their results are reported under
ENGINES = [pytest.param(PushRelabelEngine(), id="push_relabel")]


def solve(engine, problem):
    """The primary attempt of ``engine``'s solve chain."""
    return engine.solve_chain(problem)[0](problem)


def crossing_capacity(problem, side) -> float:
    """Total merged-network capacity crossing the given side mask."""
    crosses = side[problem.net_u] != side[problem.net_v]
    return float(problem.net_cap[crosses].sum())


def assert_valid_cut(problem, value, side) -> None:
    """The base contract: a genuine s-t cut whose value matches exactly."""
    side = np.asarray(side)
    assert side.dtype == np.bool_
    assert side.shape == (problem.n_local,)
    assert bool(side[0]), "contracted core (s) must be on the source side"
    assert not bool(side[1]), "contracted ring (t) must be on the sink side"
    assert value == pytest.approx(crossing_capacity(problem, side), rel=1e-12)


@pytest.fixture(scope="module")
def problems():
    """A pool of real contracted subproblems from a synthetic road network."""
    g = road_network(n_target=600, seed=1)
    probs = collect_cut_problems(g, 64, 1.0, 10.0, np.random.default_rng(0))
    assert len(probs) >= 20
    return probs[:20]


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineConformance:
    """Contract checks applied uniformly to every engine under test."""

    def test_returns_valid_cut(self, engine, problems):
        for prob in problems:
            value, side = solve(engine, prob)
            assert_valid_cut(prob, value, side)
            assert value > 0

    def test_sides_disjoint_and_exhaustive(self, engine, problems):
        # the mask partitions the local vertices: no vertex unassigned, and
        # recovering cut edges never yields an edge internal to one side
        for prob in problems:
            _, side = solve(engine, prob)
            cut = prob.cut_edges_of_side(side)
            lu = prob.cand_lu[np.isin(prob.cand_edges, cut)]
            lv = prob.cand_lv[np.isin(prob.cand_edges, cut)]
            assert np.all(side[lu] != side[lv])

    def test_deterministic_replay(self, engine, problems):
        # solves are pure functions of the problem: bit-identical on replay
        for prob in problems:
            v1, s1 = solve(engine, prob)
            v2, s2 = solve(engine, prob)
            assert v1 == v2
            assert np.array_equal(s1, s2)

    def test_cache_round_trip_bit_identical(self, engine, problems):
        cache = CutCache(1024)
        for prob in problems:
            key = prob.fingerprint()
            assert cache.get(key) is None
            value, side = solve(engine, prob)
            cache.put(key, value, side)
            entry = cache.get(key)
            assert entry is not None
            assert entry[0] == value
            assert np.array_equal(entry[1], side)

    def test_solve_chain_every_link_valid(self, engine, problems):
        # the resilience chain: the primary attempt first, and every
        # fallback independently produces a valid cut of the same instance
        prob = problems[0]
        chain = engine.solve_chain(prob)
        assert len(chain) >= 2, "every engine needs at least one fallback"
        for attempt in chain:
            value, side = attempt(prob)
            assert_valid_cut(prob, value, side)

    def test_executor_parity(self, engine):
        # inline ≡ processes: the detected cut-edge set is bit-identical
        from contextlib import nullcontext

        from repro.core.config import ParallelConfig
        from repro.parallel import ParallelRuntime

        g = road_network(n_target=400, seed=9)
        runs = []
        for pooled in (False, True):
            runtime = ParallelRuntime(ParallelConfig(workers=2)) if pooled else nullcontext()
            with runtime as rt:
                cut_ids, _ = detect_natural_cuts(
                    g, 48, C=1, rng=np.random.default_rng(3), parallel=rt
                )
            runs.append(np.sort(cut_ids))
        assert np.array_equal(runs[0], runs[1])

    def test_sanitizer_clean(self, engine):
        # a full run under the runtime sanitizer records zero violations
        from repro import PunchConfig, run_punch
        from repro.lint.sanitizer import get_sanitizer

        san = get_sanitizer()
        was_enabled = san.enabled
        san.reset()
        san.enabled = True
        try:
            g = road_network(n_target=300, seed=5)
            res = run_punch(g, 48, PunchConfig(seed=0))
            assert res.partition.max_cell_size() <= 48
            assert not san.violations, [
                f"[{v.phase}] {v.kind}: {v.message}" for v in san.violations
            ]
        finally:
            san.reset()
            san.enabled = was_enabled


class TestSolveChain:
    def test_chain_is_the_constant_min_cut_chain(self, problems):
        # the C max flow or push-relabel, chosen from the capacities, then
        # the independent BFS-based fallbacks
        chain = PushRelabelEngine().solve_chain(problems[0])
        solvers = [attempt.keywords["solver"] for attempt in chain]
        assert solvers == ["auto", "dinic", "edmonds_karp"]

    def test_chain_looked_up_once_per_subproblem(self, monkeypatch):
        # detection asks the class for its chain at solve time, so wrapping
        # PushRelabelEngine.solve_chain sees every fresh solve
        calls = []
        original = PushRelabelEngine.solve_chain

        def counting(self, problem):
            calls.append(problem.center)
            return original(self, problem)

        monkeypatch.setattr(PushRelabelEngine, "solve_chain", counting)
        g = road_network(n_target=300, seed=2)
        _, stats = detect_natural_cuts(g, 48, C=1, rng=np.random.default_rng(0))
        assert stats.problems_solved > 0
        assert len(calls) == stats.problems_solved


@pytest.fixture(scope="module")
def mini_sweep():
    """Every subproblem of one mini_like coverage sweep at U=160."""
    from repro.synthetic.instances import instance

    return collect_cut_problems(instance("mini_like"), 160, 1.0, 10.0, np.random.default_rng(0))


def _rescaled(g, scale):
    """``g`` with every edge weight multiplied by ``scale`` (a number or one
    factor per edge)."""
    from repro.graph.builder import build_graph

    return build_graph(
        g.n, g.edge_u, g.edge_v, weights=g.ewgt * scale, sizes=g.vsize, coords=g.coords
    )


class TestBackendRouting:
    """One side for every backend, and the C / push-relabel choice."""

    def test_every_backend_same_value_and_side(self, mini_sweep):
        # the differential check behind "a fallback marks the same cut"
        assert len(mini_sweep) >= 50
        for prob in mini_sweep:
            ref_value, ref_side = solve_cut_problem_sides(prob, "scipy")
            for solver in ("auto", "push_relabel", "dinic", "edmonds_karp"):
                value, side = solve_cut_problem_sides(prob, solver)
                assert value == ref_value, (prob.center, solver)
                assert np.array_equal(side, ref_side), (prob.center, solver)

    # 2**-40 makes every integral weight non-integral; 2**30 pushes every
    # network's total past int32.  Both are powers of two, so the scaled
    # solve runs in exact float arithmetic.
    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**30], ids=["non_integral", "above_int32"])
    def test_capacities_c_cannot_take_go_to_push_relabel(self, monkeypatch, scale):
        import repro.flow.mincut as mincut

        calls = {"c": 0, "push_relabel": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(mincut, "_c_max_flow", spy("c", mincut._c_max_flow))
        monkeypatch.setattr(mincut, "max_preflow", spy("push_relabel", mincut.max_preflow))
        g = _rescaled(road_network(n_target=300, seed=2), 1.0)
        scaled = _rescaled(g, scale)

        cut_ids, stats = detect_natural_cuts(scaled, 48, C=1, rng=np.random.default_rng(0))
        assert stats.problems_solved > 0
        assert stats.solver_fallbacks == 0
        assert calls == {"c": 0, "push_relabel": stats.problems_solved}

        # scaling every capacity by one positive constant keeps the
        # source-maximal side: the same cuts as the C path on the integers
        ref_ids, ref_stats = detect_natural_cuts(g, 48, C=1, rng=np.random.default_rng(0))
        assert calls["c"] == ref_stats.problems_solved
        assert ref_stats.solver_fallbacks == 0
        assert np.array_equal(cut_ids, ref_ids)
        assert stats.total_cut_value == pytest.approx(ref_stats.total_cut_value * scale)

    def test_fallbacks_match_push_relabel_on_float_capacities(self):
        # non-integral weights go to push-relabel; a Dinic or Edmonds-Karp
        # fallback must still mark the same minimum cut, although float
        # rounding leaves residues on the arcs their pushes saturate
        g0 = road_network(n_target=600, seed=4)
        rng = np.random.default_rng(1)
        g = _rescaled(g0, rng.uniform(0.3, 3.0, g0.m))
        for prob in collect_cut_problems(g, 64, 1.0, 10.0, np.random.default_rng(0)):
            value, side = solve_cut_problem_sides(prob, "push_relabel")
            assert crossing_capacity(prob, side) == pytest.approx(value, rel=1e-9)
            for solver in ("dinic", "edmonds_karp"):
                v, s = solve_cut_problem_sides(prob, solver)
                assert v == pytest.approx(value, rel=1e-9), (prob.center, solver)
                assert np.array_equal(s, side), (prob.center, solver)

    def test_c_solvable_bounds(self):
        from repro.flow.mincut import c_solvable

        assert c_solvable(np.array([1.0, 2.0, 3.0]))
        assert not c_solvable(np.array([1.0, 2.5]))
        limit = float(np.iinfo(np.int32).max // 2)
        assert c_solvable(np.array([limit]))
        assert not c_solvable(np.array([limit, 1.0]))
        assert not c_solvable(np.array([np.nan]))
        assert not c_solvable(np.array([np.inf]))
