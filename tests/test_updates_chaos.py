"""Chaos interaction: incremental updates under deterministic hard faults.

Same acceptance shape as ``test_supervisor_chaos.py``: inject a fault on a
seeded :class:`~repro.runtime.chaos.ChaosPlan` schedule *during an
incremental update*, let it complete, and assert the repaired partition —
and therefore the patched overlay — is bit-identical to the fault-free
run.  A SIGKILL mid-update must recover through the supervisor (worker
respawn) or the rotated-generation (v2) checkpoint path, and the overlay
served afterwards must never be stale: it must equal a from-scratch build
on the mutated graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    AssemblyConfig,
    ParallelConfig,
    PunchConfig,
    RuntimeConfig,
)
from repro.core.punch import run_punch
from repro.crp.overlay import build_overlay, patch_overlay
from repro.runtime.chaos import ChaosPlan
from repro.updates import IncrementalUpdater, UpdateConfig, synthetic_delta_batch

from .conftest import random_connected_graph

U = 30
SEED = 7


@pytest.fixture(scope="module")
def start():
    """Initial graph + partition every scenario updates from."""
    g = random_connected_graph(130, 70, seed=5)
    res = run_punch(g, U, PunchConfig(seed=SEED))
    return g, res.partition


def _apply(partition, batch, punch_cfg, update_cfg=None):
    upd = IncrementalUpdater(
        partition,
        U,
        config=update_cfg or UpdateConfig(max_dirty_fraction=1.0),
        punch_config=punch_cfg,
    )
    return upd, upd.apply(batch)


def test_sigkill_storm_mid_update_is_bit_identical(start, monkeypatch, tmp_path):
    """Every process-pool task of the localized repair SIGKILLs its worker;
    the supervised update degrades, respawns, and still repairs to the
    exact fault-free partition — so the patched overlay cannot be stale."""
    monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
    g, part = start
    batch = synthetic_delta_batch(g, kind="mixed", count=8, seed=1)

    base_cfg = PunchConfig(assembly=AssemblyConfig(multistart=4), seed=SEED)
    _, clean = _apply(part, batch, base_cfg)

    plan = ChaosPlan(seed=3, sites=("process",), kill_rate=1.0)
    chaos_cfg = PunchConfig(
        assembly=AssemblyConfig(multistart=4),
        runtime=RuntimeConfig(supervise=True, max_pool_restarts=1, fault_plan=plan),
        parallel=ParallelConfig(backend="processes", workers=2),
        seed=SEED,
    )
    upd, chaotic = _apply(part, batch, chaos_cfg)

    assert chaotic.mode == clean.mode
    assert np.array_equal(chaotic.partition.labels, clean.partition.labels)
    assert chaotic.partition.cost == clean.partition.cost
    # the inner repair ran supervised and the pool actually broke
    inner = upd.last_punch_result
    assert inner is not None
    assert inner.supervisor_report.get("enabled") is True
    assert inner.parallel_report.get("pool_breaks", 0) >= 1

    # no stale overlay: patching with the chaotic result equals a full build
    overlay = build_overlay(part)
    patched = patch_overlay(
        overlay, chaotic.partition, chaotic.reusable, chaotic.eid_map
    )
    fresh = build_overlay(chaotic.partition)
    assert list(patched.adj.keys()) == list(fresh.adj.keys())
    for v in patched.adj:
        assert patched.adj[v] == fresh.adj[v]


def test_cache_pressure_mid_update_is_bit_identical(start):
    """Memory-site chaos (cut-cache pressure) during the repair changes
    only cache behavior, never the repaired labels."""
    g, part = start
    batch = synthetic_delta_batch(g, kind="grow", count=5, seed=2)

    base_cfg = PunchConfig(seed=SEED)
    _, clean = _apply(part, batch, base_cfg)

    plan = ChaosPlan(
        seed=2, sites=("memory",), cache_pressure_rate=1.0, cache_pressure_cap=1
    )
    chaos_cfg = PunchConfig(runtime=RuntimeConfig(fault_plan=plan), seed=SEED)
    _, chaotic = _apply(part, batch, chaos_cfg)

    assert np.array_equal(chaotic.partition.labels, clean.partition.labels)
    assert chaotic.partition.cost == clean.partition.cost


def test_torn_checkpoint_mid_update_recovers_older_generation(start, tmp_path):
    """A kill mid-checkpoint-flush leaves a torn newest generation.  The
    resumed update must degrade to the intact ``.bak1`` (the rotated v2
    checkpoint path), replay the remaining multistart iterations, and
    reach the exact fault-free partition — never serving a stale overlay.
    """
    g, part = start
    # grow keeps the mutated graph connected, so the full-rebuild fallback
    # (forced below) runs single-component and the checkpoint stays armed
    batch = synthetic_delta_batch(g, kind="grow", count=4, seed=3)
    force_rebuild = UpdateConfig(max_dirty_fraction=1e-9)

    ck = tmp_path / "update.ckpt"
    ckpt_cfg = PunchConfig(
        assembly=AssemblyConfig(multistart=6),
        runtime=RuntimeConfig(
            checkpoint_path=str(ck), checkpoint_every=2, checkpoint_generations=3
        ),
        seed=SEED,
    )
    _, clean = _apply(part, batch, ckpt_cfg, force_rebuild)
    assert clean.mode == "rebuilt"
    assert ck.exists() and (tmp_path / "update.ckpt.bak1").exists()

    # torn write on the newest generation, as a SIGKILL mid-flush leaves it
    ck.write_bytes(ck.read_bytes()[:40])

    resume_cfg = PunchConfig(
        assembly=AssemblyConfig(multistart=6),
        runtime=RuntimeConfig(
            checkpoint_path=str(ck),
            checkpoint_every=2,
            checkpoint_generations=3,
            resume=True,
        ),
        seed=SEED,
    )
    with pytest.warns(RuntimeWarning, match="degraded to generation"):
        upd, recovered = _apply(part, batch, resume_cfg, force_rebuild)

    assert np.array_equal(recovered.partition.labels, clean.partition.labels)
    assert recovered.partition.cost == clean.partition.cost
    stats = upd.last_punch_result.assembly_stats
    assert stats.checkpoint_recovery["recovered_from"].endswith(".bak1")

    # the overlay rebuilt from the recovered partition equals a fresh build
    overlay = build_overlay(part)
    patched = patch_overlay(
        overlay, recovered.partition, recovered.reusable, recovered.eid_map
    )
    fresh = build_overlay(recovered.partition)
    assert list(patched.adj.keys()) == list(fresh.adj.keys())
    for v in patched.adj:
        assert patched.adj[v] == fresh.adj[v]
