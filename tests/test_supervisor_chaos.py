"""Chaos suite: supervised runs under deterministic hard faults.

Every scenario follows the same acceptance shape: inject a hard fault
(SIGKILLed worker, corrupted checkpoint, cache pressure) on a seeded
:class:`~repro.runtime.chaos.ChaosPlan` schedule, let the run complete, and assert the partition is bit-identical
to the fault-free serial baseline.  Supervision (the watchdog and restart
budget of :class:`~repro.parallel.pool.ParallelRuntime`) may only change
*where* work runs and *which* checkpoint generation is trusted — never the
answer.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.core.config import (
    AssemblyConfig,
    ParallelConfig,
    PunchConfig,
    RuntimeConfig,
)
from repro.core.punch import run_punch
from repro.assembly.multistart import multistart
from repro.parallel import pool as pool_mod
from repro.parallel.pool import ParallelRuntime, in_worker, resilient_map
from repro.runtime import CheckpointError, load_checkpoint
from repro.runtime.chaos import ChaosPlan

from .conftest import random_connected_graph


def _sleep_task(seconds):
    time.sleep(seconds)
    return seconds


def _sleep_in_worker(x):
    """Wedges a pool worker for far longer than any test waits; inline it
    returns at once."""
    if in_worker():
        time.sleep(60.0)
    return 2 * x


def _supervised(workers=1, **runtime):
    return ParallelRuntime(
        ParallelConfig(workers=workers),
        RuntimeConfig(supervise=True, **runtime),
    )


# ---------------------------------------------------------------------------
# Watchdog: liveness scans, heartbeats, restart budget
# ---------------------------------------------------------------------------


class TestSupervisorWatchdog:
    """The watchdog and restart budget a supervised runtime applies."""

    @pytest.fixture
    def probe_every_check(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "HEARTBEAT_INTERVAL", 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(heartbeat_timeout=0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_pool_restarts=-1)

    def test_heartbeat_ok_on_healthy_pool(self, probe_every_check):
        with _supervised(heartbeat_timeout=30.0) as rt:
            ex = rt.executor()
            assert rt._healthy(ex) is True
            assert rt._healthy(ex) is True
            assert rt.heartbeats_ok == 2
            assert rt.supervisor_report()["heartbeats_ok"] == 2

    def test_heartbeat_interval_throttles_probes(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "HEARTBEAT_INTERVAL", 3600.0)
        with _supervised(heartbeat_timeout=30.0) as rt:
            ex = rt.executor()
            assert rt._healthy(ex) is True  # first probe always runs
            assert rt._healthy(ex) is True  # within the interval: no probe
            assert rt.heartbeats_ok == 1

    def test_dead_worker_detected(self, probe_every_check):
        with _supervised(heartbeat_timeout=30.0) as rt:
            ex = rt.executor()
            wpid, _ = ex.submit(pool_mod._heartbeat_probe, 0).result(timeout=30)
            procs = pool_mod._worker_processes(ex)
            os.kill(wpid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and all(p.is_alive() for p in procs):
                time.sleep(0.02)
            assert rt._healthy(ex) is False
            assert rt.dead_workers_detected == 1
            assert rt.pool_breaks == 1

    def test_hung_pool_detected_by_heartbeat_timeout(self, probe_every_check):
        with _supervised(heartbeat_timeout=0.2) as rt:
            ex = rt.executor()
            # occupy the only worker so the sentinel queues behind it
            ex.submit(_sleep_task, 30.0)
            assert rt._healthy(ex) is False
            assert rt.hung_pools_detected == 1

    def test_health_check_marks_pool_broken(self, probe_every_check):
        with _supervised(heartbeat_timeout=0.2, max_pool_restarts=0) as rt:
            ex = rt.executor()
            ex.submit(_sleep_task, 30.0)
            assert rt._healthy(ex) is False
            assert rt.pool_breaks == 1
            assert rt.executor() is None
            # a retired pool is never probed again: the map runs inline
            results, report = resilient_map(_sleep_task, [0.0], parallel=rt)
            assert results == [0.0] and report.final_executor == "serial"
            assert rt.hung_pools_detected == 1

    def test_restart_budget(self):
        with _supervised(max_pool_restarts=2) as rt:
            for _ in range(3):
                assert rt.executor() is not None
                rt.mark_broken()
            assert rt.executor() is None
            assert rt.pool_restarts == 2
            # one count, reported in both run-report sections
            assert rt.supervisor_report()["pool_restarts"] == 2
            assert rt.report()["pool_restarts"] == 2

    def test_supervised_runtime_respawns_pool_once(self):
        with _supervised(workers=2, max_pool_restarts=1) as rt:
            first = rt.executor()
            assert first is not None
            rt.mark_broken()
            assert rt.pool_breaks == 1
            # budget of 1: the next dispatch gets a fresh pool...
            second = rt.executor()
            assert second is not None and second is not first
            assert rt.pool_restarts == 1
            # ...but a second collapse retires the tier for good
            rt.mark_broken()
            assert rt.executor() is None

    def test_default_supervised_map_declares_stalled_pool_hung(self):
        """A supervised map with no budget, timeout or fault plan still
        watches its futures: a wedged pool is declared hung after a few
        heartbeat slices, the work finishes inline, and the retired pool's
        workers are stopped rather than left to run out their task."""
        before = {p.pid for p in mp.active_children()}
        with _supervised(workers=2, heartbeat_timeout=0.2) as rt:
            t0 = time.monotonic()
            results, report = resilient_map(_sleep_in_worker, [0, 1, 2], parallel=rt)
            elapsed = time.monotonic() - t0
            assert elapsed < 20.0  # a pool worker would sleep 60 s
            assert results == [0, 2, 4]
            assert report.executor_degradations == 1
            assert report.final_executor == "serial"
            assert rt.supervisor_report()["hung_pools_detected"] == 1
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                p.pid not in before for p in mp.active_children()
            ):
                time.sleep(0.05)
            assert [p.pid for p in mp.active_children() if p.pid not in before] == []


# ---------------------------------------------------------------------------
# ChaosPlan: seeded schedule semantics
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(kill_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(checkpoint_corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosPlan(checkpoint_corrupt_mode="shred")
        with pytest.raises(ValueError):
            ChaosPlan(cache_pressure_cap=0)

    def test_kills_are_exclusive_to_the_process_site(self):
        plan = ChaosPlan(seed=0, kill_rate=1.0)
        assert plan.should_kill("process", 0) is True
        assert plan.should_kill("worker", 0) is False
        assert plan.should_kill("flow", 0) is False

    def test_decisions_are_deterministic(self):
        a = ChaosPlan(seed=9, kill_rate=0.5, cache_pressure_rate=0.5, sites=())
        b = ChaosPlan(seed=9, kill_rate=0.5, cache_pressure_rate=0.5, sites=())
        for key in range(32):
            assert a.should_kill("process", key) == b.should_kill("process", key)
            assert a.cache_pressure(key) == b.cache_pressure(key)

    def test_sites_filter_applies_to_new_families(self):
        plan = ChaosPlan(
            seed=0,
            sites=("process",),
            checkpoint_corrupt_rate=1.0,
            cache_pressure_rate=1.0,
        )
        assert plan.cache_pressure(0) is None
        assert plan.corrupt_checkpoint.__self__ is plan  # method exists
        # checkpoint site filtered out: no corruption happens
        assert plan._active("checkpoint", 0) is False

    def test_corrupt_checkpoint_truncate_and_bitflip(self, tmp_path):
        for mode in ("truncate", "bitflip"):
            plan = ChaosPlan(
                seed=3, checkpoint_corrupt_rate=1.0, checkpoint_corrupt_mode=mode
            )
            path = tmp_path / f"ckpt-{mode}"
            original = bytes(range(256)) * 8
            path.write_bytes(original)
            assert plan.corrupt_checkpoint(path, key=1) == mode
            assert path.read_bytes() != original
            # deterministic: corrupting the same content again gives the
            # same damaged bytes
            damaged = path.read_bytes()
            path.write_bytes(original)
            plan.corrupt_checkpoint(path, key=1)
            assert path.read_bytes() == damaged

    def test_cache_pressure_cap(self):
        plan = ChaosPlan(seed=1, cache_pressure_rate=1.0, cache_pressure_cap=3)
        assert plan.cache_pressure(0) == 3
        assert ChaosPlan(seed=1).cache_pressure(0) is None


# ---------------------------------------------------------------------------
# End-to-end chaos: each fault family, bit-identical to the serial baseline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_graph():
    return random_connected_graph(120, 60, seed=4)


@pytest.fixture(scope="module")
def serial_baseline(chaos_graph):
    """Fault-free run without a runtime; every chaos scenario must
    reproduce it exactly."""
    cfg = PunchConfig(assembly=AssemblyConfig(multistart=4), seed=7)
    return run_punch(chaos_graph, 30, cfg)


class TestChaosEndToEnd:
    def test_sigkill_storm_is_bit_identical(self, chaos_graph, serial_baseline):
        """Every process-pool task SIGKILLs its worker; the supervised run
        degrades, respawns once, degrades again — and still produces the
        exact partition of the fault-free serial baseline."""
        plan = ChaosPlan(seed=3, sites=("process",), kill_rate=1.0)
        cfg = PunchConfig(
            assembly=AssemblyConfig(multistart=4),
            runtime=RuntimeConfig(
                supervise=True, max_pool_restarts=1, fault_plan=plan
            ),
            parallel=ParallelConfig(workers=2),
            seed=7,
        )
        res = run_punch(chaos_graph, 30, cfg)
        assert np.array_equal(
            res.partition.labels, serial_baseline.partition.labels
        )
        assert res.partition.cost == serial_baseline.partition.cost
        report = res.run_report()
        assert report["supervisor"]["enabled"] is True
        assert res.parallel_report.get("pool_breaks", 0) >= 1

    def test_cache_pressure_is_bit_identical(self, chaos_graph, serial_baseline):
        plan = ChaosPlan(
            seed=2, sites=("memory",), cache_pressure_rate=1.0, cache_pressure_cap=1
        )
        cfg = PunchConfig(
            assembly=AssemblyConfig(multistart=4),
            runtime=RuntimeConfig(fault_plan=plan),
            seed=7,
        )
        res = run_punch(chaos_graph, 30, cfg)
        assert np.array_equal(
            res.partition.labels, serial_baseline.partition.labels
        )
        stats = res.filter_result.natural_stats
        assert stats.cache_pressure_events >= 1


# ---------------------------------------------------------------------------
# Checkpoint corruption mid-multistart: generation fallback + fresh start
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def frag_graph():
    return random_connected_graph(60, 30, seed=2)


def _run_multistart(g, *, runtime=None, seed=5, M=6):
    cfg = AssemblyConfig(multistart=M)
    rng = np.random.default_rng(seed)
    return multistart(g, 15, cfg, rng, runtime=runtime)


class TestCheckpointCorruptionMidMultistart:
    def test_corrupt_newest_generation_recovers_older_one(self, frag_graph, tmp_path):
        best_base, _ = _run_multistart(frag_graph)

        ck = tmp_path / "run.ckpt"
        rt = RuntimeConfig(
            checkpoint_path=str(ck), checkpoint_every=2, checkpoint_generations=3
        )
        _run_multistart(frag_graph, runtime=rt)
        assert ck.exists() and (tmp_path / "run.ckpt.bak1").exists()

        # torn write on the newest generation (as a crash mid-flush would)
        ck.write_bytes(ck.read_bytes()[:40])

        rt_resume = RuntimeConfig(
            checkpoint_path=str(ck),
            checkpoint_every=2,
            checkpoint_generations=3,
            resume=True,
        )
        with pytest.warns(RuntimeWarning, match="degraded to generation"):
            best, stats = _run_multistart(frag_graph, runtime=rt_resume)
        assert stats.resumed_at == 4  # .bak1 carries iteration 4 of 6
        assert stats.checkpoint_recovery["recovered_from"] == "run.ckpt.bak1"
        assert stats.checkpoint_recovery["discarded"]
        # replaying iterations 4..6 from the stored RNG state reproduces
        # the uninterrupted run exactly
        assert best.cost == best_base.cost
        assert np.array_equal(best.labels, best_base.labels)

    def test_all_generations_corrupt_degrades_to_fresh_start(
        self, frag_graph, tmp_path
    ):
        best_base, _ = _run_multistart(frag_graph)

        ck = tmp_path / "run.ckpt"
        rt = RuntimeConfig(
            checkpoint_path=str(ck), checkpoint_every=2, checkpoint_generations=2
        )
        _run_multistart(frag_graph, runtime=rt)
        for path in (ck, tmp_path / "run.ckpt.bak1"):
            path.write_bytes(b"\x00" * 16)

        rt_resume = RuntimeConfig(
            checkpoint_path=str(ck),
            checkpoint_every=2,
            checkpoint_generations=2,
            resume=True,
        )
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            best, stats = _run_multistart(frag_graph, runtime=rt_resume)
        assert stats.resumed_at == -1
        assert stats.checkpoint_recovery["fresh_start"] is True
        # a fresh start under the same seed is just the baseline run
        assert best.cost == best_base.cost
        assert np.array_equal(best.labels, best_base.labels)

    def test_chaos_plan_corrupts_every_write(self, frag_graph, tmp_path):
        """checkpoint_corrupt_rate=1.0: every generation on disk is damaged;
        the resume survives as a fresh start and the result is unchanged."""
        best_base, _ = _run_multistart(frag_graph)

        ck = tmp_path / "run.ckpt"
        plan = ChaosPlan(
            seed=1,
            sites=("checkpoint",),
            checkpoint_corrupt_rate=1.0,
            checkpoint_corrupt_mode="bitflip",
        )
        rt = RuntimeConfig(
            checkpoint_path=str(ck),
            checkpoint_every=2,
            checkpoint_generations=2,
            fault_plan=plan,
        )
        best_chaos, stats = _run_multistart(frag_graph, runtime=rt)
        assert stats.checkpoints_written >= 2
        # corruption happens after the loop consumed the state: the chaos
        # run's own answer is untouched
        assert np.array_equal(best_chaos.labels, best_base.labels)
        with pytest.raises(CheckpointError):
            load_checkpoint(ck, "multistart")

        rt_resume = RuntimeConfig(
            checkpoint_path=str(ck),
            checkpoint_every=2,
            checkpoint_generations=2,
            resume=True,
        )
        with pytest.warns(RuntimeWarning):
            best, stats2 = _run_multistart(frag_graph, runtime=rt_resume)
        assert stats2.checkpoint_recovery  # degraded (older gen or fresh)
        assert best.cost == best_base.cost
        assert np.array_equal(best.labels, best_base.labels)

    def test_resume_with_different_seed_rejected(self, frag_graph, tmp_path):
        ck = tmp_path / "run.ckpt"
        rt = RuntimeConfig(checkpoint_path=str(ck), checkpoint_every=2)
        _run_multistart(frag_graph, runtime=rt, seed=5)

        rt_resume = RuntimeConfig(
            checkpoint_path=str(ck), checkpoint_every=2, resume=True
        )
        with pytest.raises(CheckpointError, match="seed configuration"):
            _run_multistart(frag_graph, runtime=rt_resume, seed=6)
        # the original seed still resumes cleanly
        best, stats = _run_multistart(frag_graph, runtime=rt_resume, seed=5)
        assert stats.resumed_at == 6  # final checkpoint: nothing left to do
        assert best is not None
