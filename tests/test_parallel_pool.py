"""The runtime's pool, LPT scheduling, ParallelRuntime lifecycle, degradation."""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

import repro.parallel
from repro.core.config import ParallelConfig, PunchConfig, RuntimeConfig
from repro.parallel import ParallelRuntime, lpt_batches, resilient_map
from repro.runtime.faults import FaultPlan

from .conftest import random_connected_graph


def _probe_item(arg):
    """Module-level task (stays picklable): the graph travels by value."""
    x, g = arg
    return int(g.n) + x


def _square(x):
    return x * x


def _plus_one(x):
    return x + 1


def _double(x):
    return x * 2


def _wait_for_no_new_children(before: set, seconds: float = 5.0) -> list:
    """PIDs of child processes not in ``before`` still alive after ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        extra = [p.pid for p in mp.active_children() if p.pid not in before]
        if not extra or time.monotonic() >= deadline:
            return extra
        time.sleep(0.05)


class TestLptBatches:
    def test_partitions_all_indices(self):
        costs = [5, 1, 9, 2, 7, 3, 8]
        batches = lpt_batches(costs, 3)
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(len(costs)))

    def test_largest_first_balanced(self):
        costs = [10, 10, 10, 1, 1, 1]
        batches = lpt_batches(costs, 3)
        loads = sorted(sum(costs[i] for i in b) for b in batches)
        assert loads == [11, 11, 11]

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        costs = rng.integers(1, 100, size=40).tolist()
        assert lpt_batches(costs, 5) == lpt_batches(costs, 5)

    def test_drops_empty_batches(self):
        assert lpt_batches([3.0, 1.0], 8) == [[0], [1]]

    def test_empty_input(self):
        assert lpt_batches([], 4) == []

    def test_invalid_batch_count(self):
        with pytest.raises(ValueError):
            lpt_batches([1.0], 0)


class TestWorkerPool:
    """The pool a :class:`ParallelRuntime` builds, reuses and retires."""

    def test_map_preserves_order(self):
        with ParallelRuntime(ParallelConfig(workers=4)) as rt:
            out, report = resilient_map(_square, list(range(20)), parallel=rt)
        assert out == [i * i for i in range(20)]
        assert report.final_executor == "processes"

    def test_invalid_kind(self):
        # processes are the only pool: there is no backend to choose
        for kind in ("threads", "fibers"):
            with pytest.raises(TypeError, match="backend"):
                ParallelConfig(backend=kind)

    def test_invalid_worker_count(self):
        # 0 used to slip through as "all cores"; only None means that
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                ParallelConfig(workers=workers)
        with ParallelRuntime(ParallelConfig(workers=None)) as rt:
            assert rt.report()["workers"] >= 1

    def test_mark_broken_fires_callback_once(self):
        """Retiring the pool counts one break, however often it is called."""
        with ParallelRuntime(ParallelConfig(workers=1)) as rt:
            assert rt.executor() is not None
            rt.mark_broken()
            rt.mark_broken()
            assert rt.pool_breaks == 1
            assert rt.executor() is None

    def test_mark_broken_concurrent_callers_elect_one_winner(self):
        """Regression: mark_broken can race in from several failure sites
        (harvest loop, watchdog); exactly one caller may run the shutdown
        and count the break."""
        import threading

        barrier = threading.Barrier(17)
        rt = ParallelRuntime(ParallelConfig(workers=1))
        assert rt.executor() is not None

        def storm():
            barrier.wait()
            rt.mark_broken()

        threads = [threading.Thread(target=storm) for _ in range(16)]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert rt.pool_breaks == 1
        assert rt.executor() is None
        rt.close()


class TestParallelRuntime:
    def test_serial_backend_is_rejected(self):
        """A run without a pool is ``parallel=None``; there is no serial
        backend."""
        with pytest.raises(TypeError, match="backend"):
            ParallelConfig(backend="serial")

    def test_no_shared_memory_surface(self):
        """Tasks carry values: the package exports no shared-memory graph
        or graph registry, and the runtime has nothing to share."""
        for name in ("SharedGraph", "SharedGraphHandle", "resolve_graph", "register_graph"):
            assert not hasattr(repro.parallel, name), name
        assert not hasattr(ParallelRuntime, "share")

    def test_close_is_idempotent(self):
        before = {p.pid for p in mp.active_children()}
        rt = ParallelRuntime(ParallelConfig(workers=1))
        assert rt.executor() is not None
        rt.close()
        rt.close()
        # a closed runtime hands out no pool, and its workers are gone
        assert rt.executor() is None
        assert _wait_for_no_new_children(before) == []

    def test_report_counters(self):
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            rt.note_batch({})
            rt.note_batch(None)
            report = rt.report()
        assert "backend" not in report
        assert report == {"workers": 2, "batches": 2}

    def test_worker_profiler_counters_reach_parent(self):
        """Counters bumped inside process-pool workers are shipped with each
        task's stats and folded into the parent profiler, so a processes run
        reports the same counters as an inline one."""
        from repro.core.config import AssemblyConfig
        from repro.core.punch import run_punch
        from repro.perf.timers import PhaseProfiler, set_profiler
        from repro.synthetic import instance

        g = instance("mini_like")
        counters = {}
        for parallel in (None, ParallelConfig(workers=2)):
            cfg = PunchConfig(seed=0, assembly=AssemblyConfig(multistart=2), parallel=parallel)
            prof = PhaseProfiler(enabled=True)
            prev = set_profiler(prof)
            try:
                run_punch(g, 32, cfg)
            finally:
                set_profiler(prev)
            counters[parallel is not None] = prof.counters
        assert counters[False]["assembly.ls_instances_built"] > 0
        assert counters[False]["assembly.ls_instances_reused"] > 0
        assert counters[True] == counters[False]

    def test_pool_reuse_same_object(self):
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            assert rt.executor() is rt.executor()

    def test_sweep_after_retirement_runs_inline(self):
        """Once the process pool is retired with no restart left, later
        sweeps run their batches inline and find the same cuts."""
        from repro.filtering.natural_cuts import detect_natural_cuts

        g = random_connected_graph(120, 60, seed=4)
        serial_ids, _ = detect_natural_cuts(g, 30, rng=np.random.default_rng(3))
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            rt.mark_broken()
            assert rt.executor() is None
            ids, stats = detect_natural_cuts(
                g, 30, rng=np.random.default_rng(3), parallel=rt
            )
            assert rt.report()["batches"] >= 1
        assert np.array_equal(ids, serial_ids)
        assert stats.final_executor == "serial"


class TestResilientMapPooling:
    def test_pooled_map_runs_on_runtime_pool(self):
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            results, report = resilient_map(_plus_one, list(range(10)), parallel=rt)
        assert results == list(range(1, 11))
        assert report.final_executor == "processes"

    def test_broken_pool_runs_inline(self):
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            rt.mark_broken()
            results, report = resilient_map(_double, [1, 2, 3], parallel=rt)
        assert results == [2, 4, 6]
        assert report.final_executor == "serial"
        # a pool retired before the map is not a new degradation
        assert report.executor_degradations == 0


class TestDegradation:
    def test_worker_crash_degrades_and_releases_segments(self):
        """A dying pool worker retires the pool and the map finishes inline.

        crash_rate=1 on the "process" site hard-kills workers on first
        attempt; resilient_map marks the pool broken and reruns the
        unfinished items inline on the same by-value inputs, and the
        retired pool releases its worker processes.
        """
        g = random_connected_graph(40, 30, seed=3)
        plan = FaultPlan(seed=1, crash_rate=1.0, sites=("process",))
        before = {p.pid for p in mp.active_children()}
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            results, report = resilient_map(
                _probe_item,
                [(x, g) for x in range(6)],
                parallel=rt,
                runtime=RuntimeConfig(fault_plan=plan),
            )
            # results are still correct, computed inline
            assert results == [40 + x for x in range(6)]
            assert report.final_executor == "serial"
            assert report.executor_degradations == 1
            assert rt.pool_breaks == 1
            # the retired pool's workers are stopped...
            assert _wait_for_no_new_children(before) == []
            # ...and the runtime never hands the retired pool out again
            assert rt.executor() is None

    def test_broken_pool_without_supervisor_finishes_inline(self, monkeypatch):
        """A process pool broken before the run, with no supervisor to
        respawn it: every later map (natural cuts and multistart assembly)
        runs inline, no executor is built, and the labels are those of a
        run without a runtime."""
        import concurrent.futures
        import sys

        from repro.core.config import AssemblyConfig
        from repro.core.punch import run_punch

        g = random_connected_graph(120, 60, seed=4)
        asm = AssemblyConfig(multistart=4)
        serial = run_punch(g, 30, PunchConfig(seed=7, assembly=asm))
        cfg = PunchConfig(seed=7, assembly=asm, parallel=ParallelConfig(workers=2))
        with ParallelRuntime(cfg.parallel) as rt:
            rt.mark_broken()

            # count executor constructions wherever repro looks the classes
            # up: modules that bound them, and the package later imports read
            built = []

            def counting(base):
                class Counting(base):
                    def __init__(self, *args, **kwargs):
                        built.append(base.__name__)
                        super().__init__(*args, **kwargs)

                return Counting

            for base in (
                concurrent.futures.ProcessPoolExecutor,
                concurrent.futures.ThreadPoolExecutor,
            ):
                counting_cls = counting(base)
                monkeypatch.setattr(concurrent.futures, base.__name__, counting_cls)
                for name, module in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(module, base.__name__, None) is base:
                        monkeypatch.setattr(module, base.__name__, counting_cls)

            res = run_punch(g, 30, cfg, parallel=rt)

        assert built == []
        assert res.filter_result.natural_stats.final_executor == "serial"
        assert res.parallel_report["pool_breaks"] == 1
        assert np.array_equal(res.partition.labels, serial.partition.labels)

    def test_run_punch_survives_crashing_workers_without_leaks(self):
        """End-to-end: crash faults during a parallel run leave no worker
        processes behind."""
        from repro.core.punch import run_punch

        before = {p.pid for p in mp.active_children()}
        g = random_connected_graph(120, 60, seed=4)
        cfg = PunchConfig(
            seed=9,
            parallel=ParallelConfig(workers=2),
            runtime=RuntimeConfig(
                fault_plan=FaultPlan(seed=2, crash_rate=1.0, sites=("process",))
            ),
        )
        rt = ParallelRuntime(cfg.parallel)
        try:
            res = run_punch(g, 30, cfg, parallel=rt)
        finally:
            rt.close()
        assert res.partition.num_cells >= 1
        assert rt.pool_breaks >= 1
        assert _wait_for_no_new_children(before) == []


class TestDriverCutCache:
    """The driver's one cut cache answers hits before any dispatch, so a
    pooled run counts exactly what an inline run counts."""

    def test_pooled_run_reports_inline_cache_counters(self):
        from repro.core.punch import run_punch

        g = random_connected_graph(200, 100, seed=6)
        reports = {}
        for parallel in (None, ParallelConfig(workers=2)):
            res = run_punch(g, 30, PunchConfig(seed=0, parallel=parallel))
            reports[parallel is not None] = res.run_report()["cut_cache"]
        assert reports[False]["hits"] > 0
        assert reports[True] == reports[False]

    def test_updater_on_pool_hits_its_persistent_cache(self):
        from repro.core.punch import run_punch
        from repro.updates import IncrementalUpdater, synthetic_delta_batch

        g = random_connected_graph(130, 70, seed=5)
        part = run_punch(g, 30, PunchConfig(seed=7)).partition
        counters = {}
        for parallel in (None, ParallelConfig(workers=2)):
            upd = IncrementalUpdater(part, 30, punch_config=PunchConfig(seed=7, parallel=parallel))
            for seed in range(3):
                upd.apply(synthetic_delta_batch(upd.graph, kind="mixed", count=6, seed=seed))
            counters[parallel is not None] = upd.cut_cache.counters()
        assert counters[False][0] > 0
        assert counters[True] == counters[False]
