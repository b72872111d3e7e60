"""Bench: overhead of the fault-tolerant runtime on a clean (no-fault) run.

The resilience layer (PR "robustness") promises that when no timeout, fault
plan, or budget is configured, :func:`repro.parallel.resilient_map` stays
within 5% of a plain loop over the same solves.  This bench measures that
directly on the natural-cut solve workload of ``small_like``
(the per-subproblem min-cut solves dominate, so the bookkeeping must be
noise), and records end-to-end ``run_punch`` wall time with the default
inert :class:`~repro.core.config.RuntimeConfig` for the record.

Supervision (``RuntimeConfig(supervise=True)``, applied by the run's
:class:`~repro.parallel.ParallelRuntime`) makes the same ≤5% promise for a
no-fault run: its liveness scans, heartbeat sentinels, and startup reaping
may not slow a healthy run down.
``test_supervisor_overhead`` measures supervised vs. unsupervised
``run_punch`` on the threads and processes backends, asserts the partitions
stay bit-identical, and records everything in ``BENCH_resilience.json`` at
the repo root (the CI chaos-smoke gate).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import PunchConfig, run_punch
from repro.analysis import render_table
from repro.core.config import AssemblyConfig, ParallelConfig, RuntimeConfig
from repro.filtering.natural_cuts import _solve_one, collect_cut_problems
from repro.parallel import resilient_map
from repro.synthetic.instances import instance

from .conftest import QUICK, write_result

NAME = "mini_like" if QUICK else "small_like"
U = 128
ROUNDS = 3 if QUICK else 7
SUP_ROUNDS = 4 if QUICK else 3
SUPERVISOR_OVERHEAD_LIMIT = 0.05

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_resilience.json"

#: results of this session's bench tests, merged into BENCH_resilience.json
_RECORDED: dict = {}


def _best_of(fn, rounds: int) -> float:
    """Minimum wall time over ``rounds`` runs — the standard noise-robust
    estimator for a deterministic workload."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _run():
    g = instance(NAME)
    problems = collect_cut_problems(g, U, 1.0, 10.0, np.random.default_rng(0))
    solve = _solve_one

    plain = lambda: [solve(p) for p in problems]
    resilient = lambda: resilient_map(solve, problems)
    # interleave a warm-up of each before timing
    plain(), resilient()
    t_plain = _best_of(plain, ROUNDS)
    t_resilient = _best_of(resilient, ROUNDS)

    t0 = time.perf_counter()
    result = run_punch(g, U, PunchConfig(seed=0))
    t_punch = time.perf_counter() - t0

    return {
        "n_problems": len(problems),
        "t_plain": t_plain,
        "t_resilient": t_resilient,
        "overhead": t_resilient / t_plain - 1.0,
        "t_punch": t_punch,
        "punch_cost": result.partition.cost,
        "punch_report": result.run_report(),
    }


def _write_bench_json() -> None:
    """Merge this session's recorded sections into BENCH_resilience.json."""
    g = instance(NAME)
    payload = {
        "schema": "bench_resilience/v1",
        "instance": NAME,
        "n": g.n,
        "m": g.m,
        "U": U,
        "quick": QUICK,
        "generated_unix": int(time.time()),
        **_RECORDED,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


def test_resilience_overhead(benchmark):
    r = benchmark.pedantic(_run, rounds=1, iterations=1)
    out = render_table(
        ["path", "seconds", "vs plain"],
        [
            ("plain loop", f"{r['t_plain']:.4f}", "1.000x"),
            (
                "resilient_map (no faults)",
                f"{r['t_resilient']:.4f}",
                f"{r['t_resilient'] / r['t_plain']:.3f}x",
            ),
        ],
        title=(
            f"Resilient executor overhead on {NAME} "
            f"({r['n_problems']} cut subproblems, U={U}; "
            f"full run_punch {r['t_punch']:.2f}s, cost {r['punch_cost']:g})"
        ),
    )
    write_result("resilience_overhead", out)
    _RECORDED["resilient_map"] = {
        "t_plain": r["t_plain"],
        "t_resilient": r["t_resilient"],
        "overhead": r["overhead"],
        "limit": 0.05,
        "ok": r["overhead"] < 0.05,
    }
    _write_bench_json()

    # the acceptance bound: < 5% no-fault overhead
    assert r["overhead"] < 0.05, f"no-fault overhead {r['overhead']:.1%} >= 5%"
    # a clean run must report zero incidents (informational sections such as
    # cut-cache hit rates or the filtering engine/solve counts are fine;
    # anything else means a fault fired)
    report = dict(r["punch_report"])
    for section in ("cut_cache", "filtering", "parallel", "supervisor", "sanitizer"):
        report.pop(section, None)
    assert report == {}


def _supervisor_config(backend: str, supervise: bool) -> PunchConfig:
    return PunchConfig(
        seed=0,
        assembly=AssemblyConfig(multistart=2),
        parallel=ParallelConfig(backend=backend, workers=2),
        runtime=RuntimeConfig(supervise=supervise),
    )


def _bench_supervised_backend(g, backend: str) -> dict:
    def run(supervise: bool):
        return run_punch(g, U, _supervisor_config(backend, supervise))

    # warm-up both paths and pin the determinism contract: supervision is
    # scheduling-only, so the partition may not move by a single label
    base = run(False)
    sup = run(True)
    assert np.array_equal(base.partition.labels, sup.partition.labels)
    assert sup.run_report()["supervisor"]["enabled"] is True

    # interleave the two variants round by round so load drift on the host
    # hits both equally, and keep the min of each (noise-robust estimator
    # for a deterministic workload)
    t_plain = t_supervised = float("inf")
    for _ in range(SUP_ROUNDS):
        t0 = time.perf_counter()
        run(False)
        t_plain = min(t_plain, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run(True)
        t_supervised = min(t_supervised, time.perf_counter() - t0)
    overhead = t_supervised / t_plain - 1.0
    return {
        "t_plain": t_plain,
        "t_supervised": t_supervised,
        "overhead": overhead,
        "ok": overhead < SUPERVISOR_OVERHEAD_LIMIT,
    }


def test_supervisor_overhead(benchmark):
    """No-fault supervised runs stay within 5% of unsupervised wall time."""
    g = instance(NAME)

    def _measure():
        return {b: _bench_supervised_backend(g, b) for b in ("threads", "processes")}

    r = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        (
            backend,
            f"{e['t_plain']:.4f}",
            f"{e['t_supervised']:.4f}",
            f"{e['overhead']:+.1%}",
        )
        for backend, e in r.items()
    ]
    out = render_table(
        ["backend", "plain s", "supervised s", "overhead"],
        rows,
        title=(
            f"Execution-supervisor overhead on {NAME} (U={U}, multistart=2; "
            f"limit {SUPERVISOR_OVERHEAD_LIMIT:.0%}, best of {SUP_ROUNDS})"
        ),
    )
    write_result("supervisor_overhead", out)
    _RECORDED["supervisor"] = {
        "limit": SUPERVISOR_OVERHEAD_LIMIT,
        "determinism_ok": True,  # asserted per backend above
        **r,
    }
    _write_bench_json()

    worst = max(e["overhead"] for e in r.values())
    assert worst < SUPERVISOR_OVERHEAD_LIMIT, (
        f"supervisor no-fault overhead {worst:.1%} >= "
        f"{SUPERVISOR_OVERHEAD_LIMIT:.0%}"
    )
