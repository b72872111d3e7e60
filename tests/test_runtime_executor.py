"""Tests for resilient_map: inline runs, the runtime's pool, pool -> inline."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.core.config import ParallelConfig, RuntimeConfig
from repro.parallel import ParallelRuntime, resilient_map
from repro.parallel.pool import DEGRADATION_ORDER
from repro.runtime import FaultPlan, RunBudget

from .test_runtime_budget import FakeClock


def double(x):
    return x * 2


def slow_if_odd(x):
    if x % 2:
        time.sleep(5.0)
    return x


def fail_item_three_once(arg):
    """Item 3 raises on its first attempt; every call leaves a mark file.

    Pool workers are separate processes, so attempts are counted through
    the file system rather than in a parent-side counter.
    """
    x, root = arg
    calls = len(list(root.glob(f"{x}-*")))
    (root / f"{x}-{calls}").touch()
    if x == 3 and calls == 0:
        raise ValueError("first attempt fails")
    return x


def _runtime(workers):
    return ParallelRuntime(ParallelConfig(workers=workers))


def _policy(plan=None, max_retries=2):
    """A retry policy without backoff sleeps."""
    return RuntimeConfig(fault_plan=plan, max_retries=max_retries, backoff_base=0.0)


class TestMapSubproblemsEdgeCases:
    """Edge cases of a subproblem map: empty input, worker counts.

    A map runs inline or on the run's one process pool, whose worker
    count comes from :class:`ParallelConfig`, so that is where bad values
    are rejected.
    """

    def test_empty_items_short_circuit(self):
        # an empty map dispatches nothing, whatever runtime it is handed
        assert resilient_map(double, [])[0] == []
        with _runtime(1) as rt:
            results, report = resilient_map(double, [], parallel=rt)
            assert results == []
            assert report.items == 0
            assert report.final_executor == "processes"
            assert rt.pool_breaks == 0

    def test_workers_zero_rejected(self):
        # 0 does not mean "all cores"; only None does
        with pytest.raises(ValueError, match="workers"):
            ParallelConfig(workers=0)
        assert ParallelConfig(workers=None).workers is None

    def test_workers_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelConfig(workers=-3)

    def test_unknown_executor_rejected(self):
        # there is no executor kind to pick: processes are the only pool
        for kind in ("gpu", "threads"):
            with pytest.raises(TypeError, match="backend"):
                ParallelConfig(backend=kind)


class TestResilientMapSerial:
    def test_clean_run(self):
        results, report = resilient_map(double, list(range(10)))
        assert results == [2 * i for i in range(10)]
        assert report.succeeded == 10
        assert report.final_executor == "serial"
        assert not report.any_incident()

    def test_empty_items(self):
        results, report = resilient_map(double, [])
        assert results == []
        assert report.items == 0

    def test_retry_then_succeed(self):
        plan = FaultPlan(seed=1, failure_rate=0.5, max_attempt=0)
        results, report = resilient_map(double, list(range(30)), runtime=_policy(plan))
        assert results == [2 * i for i in range(30)]
        assert report.retries > 0
        assert report.skipped == 0

    def test_exhausted_retries_skip(self):
        plan = FaultPlan(seed=1, failure_rate=0.5, max_attempt=5)
        results, report = resilient_map(
            double, list(range(30)), runtime=_policy(plan, max_retries=1)
        )
        n_none = sum(r is None for r in results)
        assert n_none > 0
        assert report.skipped == n_none
        assert report.succeeded == 30 - n_none
        assert report.error_samples  # bounded sample retained

    def test_deterministic_reports(self):
        plan = FaultPlan(seed=2, failure_rate=0.4, max_attempt=0)
        _, r1 = resilient_map(double, list(range(20)), runtime=_policy(plan))
        _, r2 = resilient_map(double, list(range(20)), runtime=_policy(plan))
        assert (r1.retries, r1.skipped, r1.failures) == (r2.retries, r2.skipped, r2.failures)

    def test_deadline_skips_remaining(self):
        clock = FakeClock()
        budget = RunBudget(10.0, clock=clock)

        def work(x):
            clock.advance(3.0)
            return x

        results, report = resilient_map(work, list(range(10)), budget=budget)
        assert report.succeeded + report.deadline_skipped == 10
        assert report.deadline_skipped > 0
        assert results[-1] is None

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(max_retries=-1)
        # the runtime is read duck-typed, so the map checks it again
        bad = SimpleNamespace(max_retries=-1, backoff_base=0.0, fault_plan=None)
        with pytest.raises(ValueError, match="max_retries"):
            resilient_map(double, [1], runtime=bad)


class TestResilientMapPooled:
    def test_processes_clean(self):
        with _runtime(4) as rt:
            results, report = resilient_map(double, list(range(16)), parallel=rt)
        assert results == [2 * i for i in range(16)]
        assert report.final_executor == "processes"

    def test_timeout_counts_and_skips(self):
        # leaving the block waits for the sleepers, so no stray worker is
        # busy when a later test builds a pool
        with _runtime(6) as rt:
            # start the workers first, so only the sleepers can time out
            assert resilient_map(double, list(range(6)), parallel=rt)[1].succeeded == 6
            results, report = resilient_map(
                slow_if_odd, list(range(6)), parallel=rt,
                runtime=_policy(max_retries=0), timeout=0.5,
            )
        assert [results[i] for i in range(0, 6, 2)] == [0, 2, 4]
        assert all(results[i] is None for i in range(1, 6, 2))
        assert report.timeouts == 3
        assert report.skipped == 3

    def test_processes_unpicklable_degrades(self):
        # a lambda cannot cross a process boundary: every result is computed
        # inline instead, and the healthy pool stays in service
        with _runtime(2) as rt:
            results, report = resilient_map(lambda x: x + 1, list(range(8)), parallel=rt)
            assert rt.pool_breaks == 0
            assert resilient_map(double, [4], parallel=rt)[1].final_executor == "processes"
        assert results == [i + 1 for i in range(8)]
        assert report.executor_degradations == 1
        assert report.final_executor == "serial"

    def test_processes_crash_degrades(self):
        # ~40% of first-attempt workers call os._exit -> BrokenProcessPool
        plan = FaultPlan(seed=3, crash_rate=0.4, max_attempt=0, sites=("process",))
        with _runtime(2) as rt:
            results, report = resilient_map(
                double, list(range(12)), parallel=rt, runtime=_policy(plan, max_retries=1)
            )
            assert rt.pool_breaks == 1
            assert rt.executor() is None  # retired: no restart without supervision
        assert results == [2 * i for i in range(12)]
        assert report.executor_degradations == 1
        assert report.final_executor == "serial"

    def test_worker_faults_in_processes_retry(self):
        plan = FaultPlan(seed=4, failure_rate=0.5, max_attempt=0)
        with _runtime(4) as rt:
            results, report = resilient_map(
                double, list(range(20)), parallel=rt, runtime=_policy(plan)
            )
        assert results == [2 * i for i in range(20)]
        assert report.retries > 0
        assert report.final_executor == "processes"

    def test_failing_task_reruns_only_itself(self, tmp_path):
        """A raising task is retried alone; the items that succeeded are
        not run a second time."""
        with _runtime(2) as rt:
            results, report = resilient_map(
                fail_item_three_once,
                [(x, tmp_path) for x in range(8)],
                parallel=rt,
                runtime=_policy(),
            )
        assert results == list(range(8))
        assert report.retries == 1
        assert report.final_executor == "processes"
        calls = {x: len(list(tmp_path.glob(f"{x}-*"))) for x in range(8)}
        assert calls == {x: 2 if x == 3 else 1 for x in range(8)}

    def test_degradation_order_constant(self):
        assert DEGRADATION_ORDER == ("processes", "serial")
