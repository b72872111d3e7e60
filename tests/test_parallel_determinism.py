"""The determinism contract: inline = threads = processes, bit for bit.

Enabling the parallel runtime must never change the answer.  These tests
pin (1) natural-cut detection: every backend produces exactly the inline
cut-edge set, (2) the end-to-end drivers: partitions are bit-identical
with no runtime and on either backend, with and without checkpointing, and
(3) resume: a run killed by its budget and resumed from its checkpoint
ends with the uninterrupted run's labels.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    AssemblyConfig,
    BalancedConfig,
    ParallelConfig,
    PunchConfig,
    RuntimeConfig,
)
from repro.core.punch import run_punch
from repro.filtering.natural_cuts import detect_natural_cuts
from repro.parallel import ParallelRuntime
from repro.synthetic import instance

from .conftest import TickClock

#: None = no runtime (every task inline), the reference for both pools
BACKENDS = (None, "threads", "processes")


def _parallel(backend):
    return None if backend is None else ParallelConfig(backend=backend, workers=2)


def _small_balanced(backend=None, **runtime) -> BalancedConfig:
    """3 starts of 4 rebalances at low phi: the whole loop in about a second."""
    return BalancedConfig(
        seed=1,
        epsilon=0.1,
        starts_numerator=12,
        rebalance_attempts=4,
        phi_unbalanced=16,
        phi_rebalance=16,
        runtime=RuntimeConfig(checkpoint_every=1, **runtime),
        parallel=_parallel(backend),
    )


def _runtime(backend):
    """The run's executor for ``backend`` (``None`` = no runtime at all)."""
    return nullcontext() if backend is None else ParallelRuntime(_parallel(backend))


@pytest.fixture(scope="module")
def lux():
    return instance("luxembourg_like")


class TestNaturalCutDeterminism:
    def test_backends_match_legacy_cut_edges(self, lux):
        ids0, stats0 = detect_natural_cuts(lux, 150, rng=np.random.default_rng(3))
        for backend in BACKENDS[1:]:
            with ParallelRuntime(ParallelConfig(backend=backend, workers=2)) as rt:
                ids, stats = detect_natural_cuts(
                    lux, 150, rng=np.random.default_rng(3), parallel=rt
                )
            assert np.array_equal(ids, ids0), backend
            assert stats.problems_solved == stats0.problems_solved, backend

    def test_worker_count_does_not_matter(self, lux):
        """Batch geometry (1 vs 3 workers) must not change the cut set."""
        outs = []
        for workers in (1, 3):
            with ParallelRuntime(ParallelConfig(backend="processes", workers=workers)) as rt:
                ids, _ = detect_natural_cuts(
                    lux, 150, rng=np.random.default_rng(3), parallel=rt
                )
            outs.append(ids)
        assert np.array_equal(outs[0], outs[1])


class TestEndToEndDeterminism:
    def test_run_punch_bit_identical_across_backends(self, lux):
        """Multistart: the inline run and both pools return the same
        partition."""
        self._check_run_punch(lux, combination=False)

    def test_combination_bit_identical_across_backends(self, lux):
        """Multistart with combination rounds: same partition everywhere."""
        self._check_run_punch(lux, combination=True)

    @staticmethod
    def _check_run_punch(lux, combination: bool) -> None:
        labels = {}
        costs = {}
        for backend in BACKENDS:
            cfg = PunchConfig(
                assembly=AssemblyConfig(multistart=4, use_combination=combination),
                seed=7,
                parallel=_parallel(backend),
            )
            res = run_punch(lux, 150, cfg)
            labels[backend] = res.partition.labels
            costs[backend] = res.cost
        assert np.array_equal(labels[None], labels["threads"])
        assert np.array_equal(labels[None], labels["processes"])
        assert costs[None] == costs["threads"] == costs["processes"]

    def test_balanced_bit_identical_across_backends(self, lux):
        from repro.balanced.driver import run_balanced_punch

        labels = {}
        for backend in BACKENDS:
            cfg = BalancedConfig(seed=11, parallel=_parallel(backend))
            res = run_balanced_punch(lux, 8, 0.05, cfg)
            assert res.feasible()
            labels[backend] = res.partition.labels
        assert np.array_equal(labels[None], labels["threads"])
        assert np.array_equal(labels[None], labels["processes"])

    def test_checkpointing_does_not_change_balanced_labels(self, tmp_path):
        """Turning on checkpoint_path selects no other loop: inline and
        pooled balanced runs give the same labels with and without it."""
        from repro.balanced.driver import run_balanced_punch
        from repro.synthetic import instance as named

        g = named("mini_like")
        runs = {}
        for backend in (None, "threads"):
            for ckpt in (None, str(tmp_path / f"{backend}.ckpt")):
                cfg = _small_balanced(backend, checkpoint_path=ckpt)
                runs[backend, ckpt is not None] = run_balanced_punch(g, 4, None, cfg)
        assert (tmp_path / "threads.ckpt").exists()
        base = runs[None, False]
        assert len(base.unbalanced_costs) == 3
        for res in runs.values():
            assert np.array_equal(res.partition.labels, base.partition.labels)

    def test_parallel_report_present_only_when_parallel(self, lux):
        cfg = PunchConfig(seed=7)
        res = run_punch(lux, 150, cfg)
        assert res.parallel_report == {}
        assert "parallel" not in res.run_report()

        cfg = PunchConfig(seed=7, parallel=ParallelConfig(backend="threads", workers=2))
        res = run_punch(lux, 150, cfg)
        assert res.parallel_report.get("backend") == "threads"
        assert res.run_report()["parallel"]["backend"] == "threads"


class TestParallelCheckpointResume:
    """Checkpoint/resume at the assembly level, on a fixed fragment graph.

    (A whole-run budget also truncates *filtering*, which changes the
    fragment graph and thus invalidates the multistart checkpoint — so the
    resume contract is exercised where it is defined: on one graph.)
    """

    @pytest.fixture()
    def frag(self, lux):
        from repro.core.config import FilterConfig
        from repro.filtering.pipeline import run_filtering

        return run_filtering(
            lux, 150, FilterConfig(), np.random.default_rng(3)
        ).fragment_graph

    def test_interrupted_run_resumes_from_wave_checkpoint(self, frag, tmp_path):
        """A budget-expired parallel multistart leaves a resumable checkpoint."""
        from repro.assembly.multistart import multistart
        from repro.runtime.budget import RunBudget

        ckpt = tmp_path / "ms.ckpt"
        cfg = AssemblyConfig(multistart=6)

        with ParallelRuntime(ParallelConfig(backend="threads", workers=2)) as rt:
            best1, stats1 = multistart(
                frag,
                150,
                cfg,
                np.random.default_rng(13),
                runtime=RuntimeConfig(checkpoint_path=str(ckpt)),
                budget=RunBudget(1e-6),
                parallel=rt,
            )
        assert best1 is not None  # anytime guarantee held
        assert stats1.deadline_expired
        assert ckpt.exists()

        with ParallelRuntime(ParallelConfig(backend="threads", workers=2)) as rt:
            best2, stats2 = multistart(
                frag,
                150,
                cfg,
                np.random.default_rng(13),
                runtime=RuntimeConfig(checkpoint_path=str(ckpt), resume=True),
                parallel=rt,
            )
        assert stats2.resumed_at >= 0
        assert not stats2.deadline_expired
        assert best2.cost <= best1.cost

    @pytest.mark.parametrize("backend", [None, "threads"])
    def test_budget_kill_in_first_wave_resumes_bit_identical(
        self, frag, backend, tmp_path
    ):
        """A budget that expires inside the first wave checkpoints only the
        starts that returned; the resume reruns the rest and ends with the
        uninterrupted run's labels."""
        from repro.assembly.multistart import multistart
        from repro.runtime.budget import RunBudget

        ckpt = tmp_path / "ms.ckpt"
        cfg = AssemblyConfig(multistart=6)
        with _runtime(backend) as rt:
            straight, _ = multistart(frag, 150, cfg, np.random.default_rng(13), parallel=rt)
            # the 5th clock read trips the budget: inline (one read per
            # start) after 2 starts, on a pool (two reads) after 1
            killed, stats1 = multistart(
                frag,
                150,
                cfg,
                np.random.default_rng(13),
                runtime=RuntimeConfig(checkpoint_path=str(ckpt), checkpoint_every=1),
                budget=RunBudget(350.0, clock=TickClock(100.0)),
                parallel=rt,
            )
            assert stats1.deadline_expired
            assert stats1.iterations == (2 if backend is None else 1)
            assert stats1.dispatch.deadline_skipped == 6 - stats1.iterations
            resumed, stats2 = multistart(
                frag,
                150,
                cfg,
                np.random.default_rng(13),
                runtime=RuntimeConfig(checkpoint_path=str(ckpt), resume=True),
                parallel=rt,
            )
        assert stats2.resumed_at == stats1.iterations
        assert stats2.iterations == 6 - stats1.iterations
        assert resumed.cost <= killed.cost
        assert np.array_equal(resumed.labels, straight.labels)


class TestBalancedBudgetKillResume:
    @pytest.mark.parametrize("backend", [None, "threads"])
    def test_kill_between_rebalances_resumes_bit_identical(self, backend, tmp_path):
        """A balanced run killed between rebalance attempts resumes to the
        uninterrupted run's labels, inline and on a pool.  The budget is
        handed to the rebalancing steps only, so filtering is unchanged."""
        from repro.balanced.driver import balanced_cell_bound, balanced_from_fragments
        from repro.core.config import FilterConfig
        from repro.filtering.pipeline import run_filtering
        from repro.runtime.budget import RunBudget
        from repro.synthetic import instance as named

        g = named("mini_like")
        U_star = balanced_cell_bound(g.total_size(), 4, 0.1)
        filt = run_filtering(g, U_star // 3, FilterConfig(), np.random.default_rng(1))
        ckpt = tmp_path / "bal.ckpt"

        def run(budget=None, **runtime):
            with _runtime(backend) as rt:
                return balanced_from_fragments(
                    g, filt.fragment_graph, filt.map, 4, U_star,
                    _small_balanced(**runtime), np.random.default_rng(5),
                    budget=budget, parallel=rt,
                )

        straight = run()
        assert straight.attempts == 12  # no start ends early
        # the 3 starts take at most 6 clock reads; the budget trips at the
        # 11th, a few rebalance checks later
        killed = run(budget=RunBudget(100.0, clock=TickClock(10.0)), checkpoint_path=str(ckpt))
        assert killed.deadline_expired
        assert killed.assembly_report == {}  # no start was lost
        assert 0 < killed.attempts < straight.attempts
        resumed = run(checkpoint_path=str(ckpt), resume=True)
        assert resumed.resumed_at >= 0
        assert resumed.cost <= killed.cost
        assert resumed.attempts == straight.attempts
        assert np.array_equal(resumed.partition.labels, straight.partition.labels)


class TestCheckpointMismatch:
    """A resume under another start schedule raises, like a wrong graph."""

    @pytest.fixture()
    def written(self, tmp_path):
        from repro.assembly.multistart import multistart
        from repro.synthetic import instance as named
        from repro.filtering.pipeline import run_filtering

        frag = run_filtering(named("mini_like"), 32, rng=np.random.default_rng(0)).fragment_graph
        ckpt = tmp_path / "ms.ckpt"
        multistart(
            frag, 32, AssemblyConfig(multistart=3), np.random.default_rng(7),
            runtime=RuntimeConfig(checkpoint_path=str(ckpt), checkpoint_every=1),
        )
        return frag, ckpt

    @pytest.mark.parametrize("M", [1, 2, 6])
    def test_other_start_count_rejected(self, written, M):
        from repro.assembly.multistart import multistart
        from repro.runtime.checkpoint import CheckpointError

        frag, ckpt = written
        with pytest.raises(CheckpointError, match="3 starts"):
            multistart(
                frag, 32, AssemblyConfig(multistart=M), np.random.default_rng(7),
                runtime=RuntimeConfig(checkpoint_path=str(ckpt), resume=True),
            )

    def test_checkpoint_without_schedule_rejected(self, written):
        from repro.assembly.multistart import multistart
        from repro.runtime.checkpoint import (
            CheckpointError,
            load_checkpoint,
            save_checkpoint,
        )

        frag, ckpt = written
        state = load_checkpoint(ckpt, "multistart")
        del state["start_seeds"], state["starts"]
        save_checkpoint(ckpt, "multistart", state)
        with pytest.raises(CheckpointError, match="no start schedule"):
            multistart(
                frag, 32, AssemblyConfig(multistart=3), np.random.default_rng(7),
                runtime=RuntimeConfig(checkpoint_path=str(ckpt), resume=True),
            )

    def test_balanced_other_start_count_rejected(self, tmp_path):
        from repro.balanced.driver import run_balanced_punch
        from repro.runtime.checkpoint import CheckpointError
        from repro.synthetic import instance as named

        g = named("mini_like")
        ckpt = str(tmp_path / "bal.ckpt")

        run_balanced_punch(g, 4, None, _small_balanced(checkpoint_path=ckpt))
        more = replace(
            _small_balanced(checkpoint_path=ckpt, resume=True), starts_numerator=16
        )
        with pytest.raises(CheckpointError, match="3 starts"):
            run_balanced_punch(g, 4, None, more)
