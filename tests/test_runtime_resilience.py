"""Integration and property tests for the resilient pipeline runtime.

Covers the graceful-degradation guarantees of docs/RESILIENCE.md: any
partition returned under an expired deadline or injected faults still
satisfies the cell-size bound (and, for the balanced driver, the epsilon
balance constraint); fault-injected runs complete without raising and the
run report accounts for every retry, skip, fallback, and degradation; and
a killed run resumed from a checkpoint never ends worse than it was at
kill time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultPlan, PunchConfig, RuntimeConfig, RunBudget, run_punch
from repro.balanced.driver import run_balanced_punch
from repro.core.config import BalancedConfig
from repro.filtering.natural_cuts import collect_cut_problems, detect_natural_cuts
from repro.runtime.checkpoint import load_checkpoint
from repro.synthetic.instances import instance

from .conftest import TickClock


@pytest.fixture(scope="module")
def tiny_road():
    from repro.synthetic import road_network

    return road_network(n_target=500, n_cities=4, seed=9)


SEEDS = [0, 1, 2, 3]


class TestFaultedNaturalCuts:
    def test_heavy_flow_faults_complete_with_fallbacks(self, tiny_road):
        """>= 20% of subproblems fail their primary solver; the run must
        complete, stay valid, and count every fallback (acceptance box)."""
        g = tiny_road
        plan = FaultPlan(seed=11, failure_rate=0.5, max_attempt=0, sites=("flow",))
        rng = np.random.default_rng(0)
        injected = sum(
            plan.should_fail("flow", p.center, 0)
            for p in collect_cut_problems(g, 64, 1.0, 10.0, rng)
        )
        rng = np.random.default_rng(0)
        n_problems = len(collect_cut_problems(g, 64, 1.0, 10.0, rng))
        assert injected >= 0.2 * n_problems  # the plan really hits >= 20%

        runtime = RuntimeConfig(fault_plan=plan, backoff_base=0.0)
        cut_ids, stats = detect_natural_cuts(
            g, 64, rng=np.random.default_rng(0), runtime=runtime
        )
        assert stats.solver_fallbacks > 0
        assert stats.skipped == 0  # the fallback solver rescued every solve
        assert stats.problems_solved > 0
        assert len(cut_ids) == stats.cut_edges_marked

    @pytest.mark.parametrize("U", [64, 96])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solver_fallbacks_keep_the_labels(self, U, seed):
        """Half the primary solves fail: a subproblem rescued by a fallback
        solver marks the same cut, because every link of the solve chain
        returns the source-maximal side — the labels equal the fault-free
        run's, and the report counts the fallbacks."""
        g = instance("mini_like")
        plan = FaultPlan(seed=5, failure_rate=0.5, max_attempt=0, sites=("flow",))
        clean = run_punch(g, U, PunchConfig(seed=seed))
        faulted = run_punch(
            g,
            U,
            PunchConfig(seed=seed, runtime=RuntimeConfig(fault_plan=plan, backoff_base=0.0)),
        )
        assert faulted.run_report()["solver_fallbacks"] > 0
        assert np.array_equal(faulted.partition.labels, clean.partition.labels)

    def test_unrecoverable_faults_skip_but_finish(self, tiny_road):
        # every solver in the chain fails for the selected problems: they
        # are skipped, counted, and detection still returns cuts
        plan = FaultPlan(seed=13, failure_rate=0.3, max_attempt=99, sites=("flow",))
        runtime = RuntimeConfig(fault_plan=plan, max_retries=1, backoff_base=0.0)
        cut_ids, stats = detect_natural_cuts(
            tiny_road, 64, rng=np.random.default_rng(0), runtime=runtime
        )
        assert stats.skipped > 0
        assert stats.problems_solved > 0
        assert stats.error_samples


class TestGracefulDegradationProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_punch_valid_under_faults(self, tiny_road, seed):
        U = 96
        plan = FaultPlan(seed=seed, failure_rate=0.4, max_attempt=0)
        cfg = PunchConfig(
            runtime=RuntimeConfig(fault_plan=plan, backoff_base=0.0), seed=seed
        )
        res = run_punch(tiny_road, U, cfg)
        assert res.partition.max_cell_size() <= U
        assert len(res.partition.labels) == tiny_road.n
        assert (res.partition.labels >= 0).all()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_punch_valid_under_expired_deadline(self, tiny_road, seed):
        U = 96
        cfg = PunchConfig(seed=seed)
        budget = RunBudget(5.0, clock=TickClock(1.0))  # expires after 5 ticks
        res = run_punch(tiny_road, U, cfg, budget=budget)
        assert budget.expired()
        assert res.partition.max_cell_size() <= U
        assert len(res.partition.labels) == tiny_road.n
        report = res.run_report()
        assert report.get("deadline_expired") or report.get("tiny_deadline_expired")

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_balanced_valid_under_deadline(self, tiny_road, seed):
        k, eps = 4, 0.1
        cfg = BalancedConfig(
            seed=seed,
            rebalance_attempts=3,
            starts_numerator=8,
        )
        # enough ticks for filtering + the first rebalance success, then expiry
        budget = RunBudget(400.0, clock=TickClock(1.0))
        res = run_balanced_punch(tiny_road, k, eps, cfg, budget=budget)
        assert res.partition.num_cells <= k
        assert res.partition.max_cell_size() <= res.U_star
        assert res.feasible()

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_balanced_valid_under_faults(self, tiny_road, seed):
        k, eps = 4, 0.1
        plan = FaultPlan(seed=seed, failure_rate=0.4, max_attempt=0, sites=("flow",))
        cfg = BalancedConfig(
            seed=seed,
            rebalance_attempts=3,
            starts_numerator=4,
            runtime=RuntimeConfig(fault_plan=plan, backoff_base=0.0),
        )
        res = run_balanced_punch(tiny_road, k, eps, cfg)
        assert res.feasible()
        assert res.partition.max_cell_size() <= res.U_star


class TestMultistartCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tiny_road, tmp_path):
        """Kill a 6-start run with its budget after 2 starts, resume: the
        final result must be bit-identical to an uninterrupted run (the
        resume reruns the starts that never returned, from the stored seed
        schedule).  Resuming requires the original seed — a different one
        is rejected by the entry-state checksum (see
        test_supervisor_chaos.py)."""
        from repro.assembly.multistart import multistart
        from repro.core.config import AssemblyConfig
        from repro.filtering.pipeline import run_filtering

        frag = run_filtering(tiny_road, 64, rng=np.random.default_rng(0)).fragment_graph
        ck = tmp_path / "ms.ckpt"

        straight, _ = multistart(
            frag, 96, AssemblyConfig(multistart=6), np.random.default_rng(7)
        )

        # killed run: the budget's 5th clock read (before the 3rd start)
        # trips it; every returned start is checkpointed
        part1, stats1 = multistart(
            frag, 96, AssemblyConfig(multistart=6), np.random.default_rng(7),
            runtime=RuntimeConfig(checkpoint_path=str(ck), checkpoint_every=1),
            budget=RunBudget(3.5, clock=TickClock(1.0)),
        )
        assert stats1.deadline_expired
        assert stats1.checkpoints_written == 2
        cost_at_kill = part1.cost

        resumed, stats2 = multistart(
            frag, 96, AssemblyConfig(multistart=6), np.random.default_rng(7),
            runtime=RuntimeConfig(checkpoint_path=str(ck), checkpoint_every=1, resume=True),
        )
        assert stats2.resumed_at == 2
        assert resumed.cost <= cost_at_kill
        assert resumed.cost == straight.cost
        assert np.array_equal(resumed.labels, straight.labels)

    def test_resume_wrong_graph_rejected(self, tiny_road, tmp_path):
        from repro.assembly.multistart import multistart
        from repro.core.config import AssemblyConfig
        from repro.filtering.pipeline import run_filtering
        from repro.runtime.checkpoint import CheckpointError

        frag = run_filtering(tiny_road, 64, rng=np.random.default_rng(0)).fragment_graph
        other = run_filtering(tiny_road, 32, rng=np.random.default_rng(0)).fragment_graph
        ck = tmp_path / "ms.ckpt"
        multistart(
            frag, 96, AssemblyConfig(multistart=2), np.random.default_rng(7),
            runtime=RuntimeConfig(checkpoint_path=str(ck), checkpoint_every=1),
        )
        with pytest.raises(CheckpointError, match="graph"):
            multistart(
                other, 96, AssemblyConfig(multistart=4), np.random.default_rng(7),
                runtime=RuntimeConfig(checkpoint_path=str(ck), checkpoint_every=1, resume=True),
            )


class TestBalancedCheckpointResume:
    def test_killed_run_resumes_no_worse(self, tiny_road, tmp_path):
        """Acceptance box: a killed balanced run resumed from its checkpoint
        produces a final cost <= the cost at kill time."""
        k, eps = 4, 0.1
        ck = tmp_path / "bal.ckpt"

        # the "killed" run: deadline expires shortly after the first
        # feasible solution; every step checkpoints
        cfg_kill = BalancedConfig(
            seed=3,
            rebalance_attempts=3,
            starts_numerator=8,
            runtime=RuntimeConfig(checkpoint_path=str(ck), checkpoint_every=1),
        )
        budget = RunBudget(450.0, clock=TickClock(1.0))
        killed = run_balanced_punch(tiny_road, k, eps, cfg_kill, budget=budget)
        assert ck.exists()
        state = load_checkpoint(ck, "balanced")
        cost_at_kill = state["best_cost"]
        assert cost_at_kill == killed.cost

        cfg_resume = BalancedConfig(
            seed=3,
            rebalance_attempts=3,
            starts_numerator=8,
            runtime=RuntimeConfig(
                checkpoint_path=str(ck), checkpoint_every=1, resume=True
            ),
        )
        resumed = run_balanced_punch(tiny_road, k, eps, cfg_resume)
        assert resumed.resumed_at >= 0
        assert resumed.cost <= cost_at_kill
        assert resumed.feasible()


class TestRunReportSurface:
    def test_punch_report_counts_incidents(self, tiny_road):
        plan = FaultPlan(seed=5, failure_rate=0.5, max_attempt=0, sites=("flow",))
        cfg = PunchConfig(runtime=RuntimeConfig(fault_plan=plan, backoff_base=0.0), seed=0)
        res = run_punch(tiny_road, 96, cfg)
        report = res.run_report()
        assert report["solver_fallbacks"] > 0
        assert "solver_fallbacks" in res.summary()

    def test_clean_run_reports_nothing(self, tiny_road):
        res = run_punch(tiny_road, 96, PunchConfig(seed=0))
        report = res.run_report()
        # the cut-cache counters and filtering section are informational,
        # not incidents
        cache = report.pop("cut_cache", None)
        filtering = report.pop("filtering", None)
        assert report == {}
        assert cache is not None and cache["misses"] > 0
        assert filtering is not None and filtering["problems_solved"] > 0
        assert "resilience" not in res.summary()

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_lost_starts_are_reported(self, max_retries):
        """Every multistart start fails its first attempt: with no retry
        all 4 are lost (the inline fallback start is the one iteration),
        with one retry all 4 are retried — and the run report says so."""
        from repro.core.config import AssemblyConfig
        from repro.synthetic import instance

        plan = FaultPlan(seed=1, failure_rate=1.0, max_attempt=0, sites=("worker",))
        cfg = PunchConfig(
            assembly=AssemblyConfig(multistart=4),
            runtime=RuntimeConfig(
                fault_plan=plan, max_retries=max_retries, backoff_base=0.0
            ),
            seed=3,
        )
        res = run_punch(instance("mini_like"), 64, cfg)
        report = res.run_report()
        if max_retries == 0:
            assert res.assembly_stats.iterations == 1
            assert report["assembly_skipped"] == 4
        else:
            assert res.assembly_stats.iterations == 4
            assert report["assembly_retries"] == 4
        assert "assembly_" in res.summary()

    @staticmethod
    def _two_copies():
        """mini_like and two disjoint copies of it."""
        from repro.graph import build_graph
        from repro.synthetic import instance

        g = instance("mini_like")
        n = g.n
        two = build_graph(
            2 * n,
            np.concatenate([g.edge_u, g.edge_u + n]),
            np.concatenate([g.edge_v, g.edge_v + n]),
            weights=np.concatenate([g.ewgt, g.ewgt]),
            sizes=np.concatenate([g.vsize, g.vsize]),
        )
        return g, two

    def test_disconnected_input_reports_every_component(self):
        """Two disjoint copies of one graph: the fragment count and the
        run-report counters cover both components, not just the last."""
        g, two = self._two_copies()
        one = run_punch(g, 64, PunchConfig(seed=0))
        res = run_punch(two, 64, PunchConfig(seed=0))
        parts = res.components
        assert len(parts) == 2
        # the first component starts from the same RNG state as a lone run
        assert parts[0].num_fragments == one.num_fragments
        assert res.num_fragments == sum(p.num_fragments for p in parts)
        assert res.num_fragments > one.num_fragments
        assert res.cost == sum(p.cost for p in parts)
        solved = res.run_report()["filtering"]["problems_solved"]
        assert solved == sum(
            p.filter_result.natural_stats.problems_solved for p in parts
        )
        assert solved > one.run_report()["filtering"]["problems_solved"]

    def test_disconnected_input_assembly_stats_cover_every_component(self):
        """On two disjoint copies, ``assembly_stats`` sums the components'
        counters and per-iteration costs: with one start,
        ``min(iteration_costs)`` is the partition's cost."""
        _, two = self._two_copies()
        res = run_punch(two, 64, PunchConfig(seed=0))
        parts = [p.assembly_stats for p in res.components]
        stats = res.assembly_stats
        assert len(parts) == 2
        assert res.cost == 85.0
        assert stats.iteration_costs == [res.cost]
        assert min(stats.iteration_costs) == res.cost
        assert stats.iterations == 1
        for key in (
            "ls_steps",
            "ls_improvements",
            "ls_instances_built",
            "ls_instances_reused",
            "combinations",
        ):
            assert getattr(stats, key) == sum(getattr(p, key) for p in parts), key
        assert stats.ls_steps > max(p.ls_steps for p in parts)
        assert stats.ls_instances_built + stats.ls_instances_reused == stats.ls_steps

    def test_stats_fields_present(self, tiny_road):
        res = run_punch(tiny_road, 96, PunchConfig(seed=0))
        ns = res.filter_result.natural_stats
        assert ns.retries == 0
        assert ns.skipped == 0
        assert ns.executor_degradations == 0
        assert ns.final_executor == "serial"


class TestRuntimeConfigValidation:
    def test_defaults_inert(self):
        rt = RuntimeConfig()
        assert rt.time_budget is None
        assert rt.fault_plan is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(time_budget=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(subproblem_timeout=0)
        with pytest.raises(ValueError):
            RuntimeConfig(checkpoint_every=0)
        with pytest.raises(ValueError):
            RuntimeConfig(resume=True)  # resume without a checkpoint path


class TestCliRuntimeFlags:
    def test_partition_flags(self, tmp_path, tiny_road, capsys):
        from repro.cli import main
        from repro.graph.io import write_dimacs_gr

        gr = tmp_path / "g.gr"
        write_dimacs_gr(tiny_road, gr)
        ck = tmp_path / "cli.ckpt"
        assert (
            main(
                [
                    "partition", str(gr), "-U", "96", "--seed", "0",
                    "--time-budget", "3600", "--max-retries", "1",
                    "--checkpoint", str(ck), "--multistart", "2",
                ]
            )
            == 0
        )
        assert ck.exists()
        assert "cells=" in capsys.readouterr().out

    def test_balanced_resume_flag(self, tmp_path, tiny_road, capsys):
        from repro.cli import main
        from repro.graph.io import write_dimacs_gr

        gr = tmp_path / "g.gr"
        write_dimacs_gr(tiny_road, gr)
        ck = tmp_path / "bal.ckpt"
        args = [
            "balanced", str(gr), "-k", "4", "--epsilon", "0.1",
            "--seed", "0", "--rebalances", "2", "--checkpoint", str(ck),
        ]
        assert main(args) == 0
        assert ck.exists()
        assert main(args + ["--resume"]) == 0
        assert "cells=" in capsys.readouterr().out
