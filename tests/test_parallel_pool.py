"""The runtime's pool, LPT scheduling, ParallelRuntime lifecycle, degradation."""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.config import ParallelConfig, PunchConfig, RuntimeConfig
from repro.parallel import ParallelRuntime, lpt_batches, resilient_map, resolve_graph
from repro.parallel.shared_graph import registered_tokens
from repro.runtime.faults import FaultPlan

from .conftest import make_graph, random_connected_graph


def _probe_item(arg):
    """Module-level task (stays picklable): resolve the graph, do some work."""
    x, handle = arg
    g = resolve_graph(handle)
    return int(g.n) + x


def _segment_exists(name: str) -> bool:
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


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

    def test_threads_map_preserves_order(self):
        with ParallelRuntime(ParallelConfig(backend="threads", workers=4)) as rt:
            out, report = resilient_map(lambda x: x * x, list(range(20)), parallel=rt)
        assert out == [i * i for i in range(20)]
        assert report.final_executor == "threads"

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="fibers")

    def test_invalid_worker_count(self):
        # 0 used to slip through as "all cores"; only None means that
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                ParallelConfig(backend="threads", workers=workers)
        with ParallelRuntime(ParallelConfig(backend="threads", workers=None)) as rt:
            assert rt.report()["workers"] >= 1

    def test_mark_broken_fires_callback_once(self):
        """Retiring the pool counts one break and releases the exports
        once, however often it is called."""
        g = random_connected_graph(30, 20, seed=5)
        with ParallelRuntime(ParallelConfig(backend="processes", workers=1)) as rt:
            rt.share(g)
            assert rt.executor() is not None
            rt.mark_broken()
            rt.mark_broken()
            assert rt.pool_breaks == 1
            assert rt.active_segment_names() == []
            assert rt.executor() is None

    def test_mark_broken_concurrent_callers_elect_one_winner(self):
        """Regression: mark_broken can race in from several failure sites
        (harvest loop, watchdog); exactly one caller may run the shutdown
        and count the break."""
        import threading

        barrier = threading.Barrier(17)
        rt = ParallelRuntime(ParallelConfig(backend="threads", workers=1))
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
        backend, and a graph passed as its own handle resolves to itself."""
        with pytest.raises(ValueError, match="threads"):
            ParallelConfig(backend="serial")
        g = make_graph(3, [(0, 1), (1, 2)])
        assert resolve_graph(g) is g

    def test_share_is_memoized(self):
        g = random_connected_graph(30, 20, seed=1)
        with ParallelRuntime(ParallelConfig(backend="processes", workers=1)) as rt:
            h1 = rt.share(g)
            h2 = rt.share(g)
            assert h1 is h2
            assert h1.is_shared
            # the driver resolves its own handle to the original object
            assert resolve_graph(h1) is g

    def test_close_unlinks_and_unregisters(self):
        g = random_connected_graph(30, 20, seed=2)
        rt = ParallelRuntime(ParallelConfig(backend="processes", workers=1))
        handle = rt.share(g)
        names = rt.active_segment_names()
        assert names and all(_segment_exists(n) for n in names)
        rt.close()
        assert not any(_segment_exists(n) for n in names)
        # the registry entry is gone and the segments are unlinked, so the
        # handle is dead in every process
        with pytest.raises(FileNotFoundError):
            resolve_graph(handle)
        rt.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            rt.share(g)

    def test_report_counters(self):
        with ParallelRuntime(ParallelConfig(backend="threads", workers=2)) as rt:
            rt.note_batch({"cache_hits": 3, "cache_misses": 5})
            rt.note_batch(None)
            report = rt.report()
        assert report["backend"] == "threads"
        assert report["workers"] == 2
        assert report["batches"] == 2
        assert report["worker_cache_hits"] == 3
        assert report["worker_cache_misses"] == 5

    def test_pool_reuse_same_object(self):
        with ParallelRuntime(ParallelConfig(backend="threads", workers=2)) as rt:
            assert rt.executor() is rt.executor()

    def test_share_after_retirement_stays_local(self, monkeypatch, tmp_path):
        """Once the process pool is retired with no restart left, no worker
        will read an export again: share() makes a local handle only, and
        later sweeps run inline on it."""
        from repro.filtering.natural_cuts import detect_natural_cuts

        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
        g = random_connected_graph(120, 60, seed=4)
        serial_ids, _ = detect_natural_cuts(g, 30, rng=np.random.default_rng(3))
        with ParallelRuntime(ParallelConfig(backend="processes", workers=2)) as rt:
            rt.mark_broken()
            assert rt.executor() is None
            before = rt.shared_bytes
            handle = rt.share(g)
            assert not handle.is_shared
            assert rt.active_segment_names() == []
            assert registered_tokens() == []
            assert rt.shared_bytes == before
            ids, stats = detect_natural_cuts(
                g, 30, rng=np.random.default_rng(3), parallel=rt
            )
        assert np.array_equal(ids, serial_ids)
        assert stats.final_executor == "serial"


class TestResilientMapPooling:
    def test_pooled_map_runs_on_runtime_pool(self):
        with ParallelRuntime(ParallelConfig(backend="threads", workers=2)) as rt:
            results, report = resilient_map(
                lambda x: x + 1, list(range(10)), parallel=rt
            )
        assert results == list(range(1, 11))
        assert report.final_executor == "threads"

    def test_broken_pool_runs_inline(self):
        with ParallelRuntime(ParallelConfig(backend="threads", workers=2)) as rt:
            rt.mark_broken()
            results, report = resilient_map(lambda x: x * 2, [1, 2, 3], parallel=rt)
        assert results == [2, 4, 6]
        assert report.final_executor == "serial"
        # a pool retired before the map is not a new degradation
        assert report.executor_degradations == 0


class TestDegradation:
    def test_worker_crash_degrades_and_releases_segments(self):
        """A dying pool worker must not leak /dev/shm segments.

        crash_rate=1 on the "process" site hard-kills workers on first
        attempt; resilient_map marks the pool broken and finishes inline,
        and the runtime unlinks every export while the registry keeps
        resolving handles for the inline fallback.
        """
        g = random_connected_graph(40, 30, seed=3)
        plan = FaultPlan(seed=1, crash_rate=1.0, sites=("process",))
        with ParallelRuntime(ParallelConfig(backend="processes", workers=2)) as rt:
            handle = rt.share(g)
            names = rt.active_segment_names()
            assert names

            results, report = resilient_map(
                _probe_item,
                [(x, handle) for x in range(6)],
                parallel=rt,
                runtime=RuntimeConfig(fault_plan=plan),
            )
            # results are still correct, computed inline
            assert results == [40 + x for x in range(6)]
            assert report.final_executor == "serial"
            assert report.executor_degradations == 1
            # the broken pool released every shared segment...
            assert rt.pool_breaks == 1
            assert rt.active_segment_names() == []
            for name in names:
                assert not _segment_exists(name)
            # ...including its reapable ownership record
            assert handle.token not in registered_tokens()
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
        cfg = PunchConfig(
            seed=7, assembly=asm, parallel=ParallelConfig(backend="processes", workers=2)
        )
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

    def test_run_punch_survives_crashing_workers_without_leaks(
        self, monkeypatch, tmp_path
    ):
        """End-to-end: crash faults during a parallel run leave no segments
        and no ownership records."""
        from repro.core.punch import run_punch

        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
        g = random_connected_graph(120, 60, seed=4)
        cfg = PunchConfig(
            seed=9,
            parallel=ParallelConfig(backend="processes", workers=2),
            runtime=RuntimeConfig(
                fault_plan=FaultPlan(seed=2, crash_rate=1.0, sites=("process",))
            ),
        )
        rt = ParallelRuntime(cfg.parallel)
        try:
            res = run_punch(g, 30, cfg, parallel=rt)
            names_during = rt.active_segment_names()
        finally:
            rt.close()
        assert res.partition.num_cells >= 1
        assert rt.pool_breaks >= 1
        assert not any(_segment_exists(n) for n in names_during)
        assert rt.active_segment_names() == []
        assert registered_tokens() == []
