"""Tests for resilient_map: inline runs, the runtime's pool, pool -> inline."""

from __future__ import annotations

import threading
import time
from collections import Counter
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


def _runtime(kind, workers):
    return ParallelRuntime(ParallelConfig(backend=kind, workers=workers))


def _policy(plan=None, max_retries=2):
    """A retry policy without backoff sleeps."""
    return RuntimeConfig(fault_plan=plan, max_retries=max_retries, backoff_base=0.0)


class TestMapSubproblemsEdgeCases:
    """Edge cases of a subproblem map: empty input, worker counts, backends.

    A map runs inline or on the run's one pool, whose backend and worker
    count come from :class:`ParallelConfig`, so that is where bad values
    are rejected.
    """

    def test_empty_items_short_circuit(self):
        # an empty map dispatches nothing, whatever runtime it is handed
        assert resilient_map(double, [])[0] == []
        for kind in ("threads", "processes"):
            with _runtime(kind, 1) as rt:
                results, report = resilient_map(double, [], parallel=rt)
                assert results == []
                assert report.items == 0
                assert report.final_executor == kind
                assert rt.pool_breaks == 0

    def test_workers_zero_rejected(self):
        # 0 does not mean "all cores"; only None does
        with pytest.raises(ValueError, match="workers"):
            ParallelConfig(backend="threads", workers=0)
        assert ParallelConfig(backend="threads", workers=None).workers is None

    def test_workers_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelConfig(backend="processes", workers=-3)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="gpu")


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
    def test_threads_clean(self):
        with _runtime("threads", 4) as rt:
            results, report = resilient_map(double, list(range(16)), parallel=rt)
        assert results == [2 * i for i in range(16)]
        assert report.final_executor == "threads"

    def test_timeout_counts_and_skips(self):
        # leaving the block waits for the sleepers, so no stray thread is
        # alive when a later test forks a process pool
        with _runtime("threads", 6) as rt:
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
        with _runtime("processes", 2) as rt:
            results, report = resilient_map(lambda x: x + 1, list(range(8)), parallel=rt)
            assert rt.pool_breaks == 0
            assert resilient_map(double, [4], parallel=rt)[1].final_executor == "processes"
        assert results == [i + 1 for i in range(8)]
        assert report.executor_degradations == 1
        assert report.final_executor == "serial"

    def test_processes_crash_degrades(self):
        # ~40% of first-attempt workers call os._exit -> BrokenProcessPool
        plan = FaultPlan(seed=3, crash_rate=0.4, max_attempt=0, sites=("process",))
        with _runtime("processes", 2) as rt:
            results, report = resilient_map(
                double, list(range(12)), parallel=rt, runtime=_policy(plan, max_retries=1)
            )
            assert rt.pool_breaks == 1
            assert rt.executor() is None  # retired: no restart without supervision
        assert results == [2 * i for i in range(12)]
        assert report.executor_degradations == 1
        assert report.final_executor == "serial"

    def test_worker_faults_in_threads_retry(self):
        plan = FaultPlan(seed=4, failure_rate=0.5, max_attempt=0)
        with _runtime("threads", 4) as rt:
            results, report = resilient_map(
                double, list(range(20)), parallel=rt, runtime=_policy(plan)
            )
        assert results == [2 * i for i in range(20)]
        assert report.retries > 0
        assert report.final_executor == "threads"

    def test_failing_task_reruns_only_itself(self):
        """A raising task is retried alone; the items that succeeded are
        not run a second time."""
        calls = Counter()
        lock = threading.Lock()

        def flaky(x):
            with lock:
                calls[x] += 1
                first = calls[x] == 1
            if x == 3 and first:
                raise ValueError("first attempt fails")
            return x

        with _runtime("threads", 2) as rt:
            results, report = resilient_map(
                flaky, list(range(8)), parallel=rt, runtime=_policy()
            )
        assert results == list(range(8))
        assert report.retries == 1
        assert calls == Counter({x: 2 if x == 3 else 1 for x in range(8)})

    def test_degradation_order_constant(self):
        assert DEGRADATION_ORDER == ("processes", "serial")
