"""Bench: overhead of the fault-tolerant runtime on a clean (no-fault) run.

The resilience layer promises that when no timeout, fault plan, or budget
is configured, :func:`repro.parallel.resilient_map` stays within 5% of a
plain loop over the same solves.  This bench measures that directly on the
natural-cut solve workload of ``small_like`` (the per-subproblem min-cut
solves dominate, so the bookkeeping must be noise): it times
``OVERHEAD_PAIRS`` back-to-back (plain loop, ``resilient_map``) pairs and
gates on the median of the per-pair ratios, so both halves of a pair see
nearly the same machine load and the median discards pairs a load burst
split.  Every other pair runs its ``resilient_map`` half first, so a steady
drift in load favours neither side.  It also records end-to-end
``run_punch`` wall time with the default inert
:class:`~repro.core.config.RuntimeConfig` for the record.

Supervision (``RuntimeConfig(supervise=True)``, applied by the run's
:class:`~repro.parallel.ParallelRuntime`) makes the same ≤5% promise for a
no-fault run: its liveness scans and heartbeat sentinels may not slow a
healthy run down.
``test_supervisor_overhead`` measures supervised vs. unsupervised
``run_punch`` on a 2-worker process pool the same way (the median ratio of
``SUP_PAIRS`` alternating plain/supervised pairs), asserts the partitions
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
#: back-to-back (plain, resilient_map) pairs behind the median ratio
OVERHEAD_PAIRS = 21
OVERHEAD_LIMIT = 0.05
#: alternating (plain, supervised) run_punch pairs behind the median ratio
SUP_PAIRS = 21
SUPERVISOR_OVERHEAD_LIMIT = 0.05

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_resilience.json"

#: results of this session's bench tests, merged into BENCH_resilience.json
_RECORDED: dict = {}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run():
    g = instance(NAME)
    problems = collect_cut_problems(g, U, 1.0, 10.0, np.random.default_rng(0))
    solve = _solve_one

    plain = lambda: [solve(p) for p in problems]
    resilient = lambda: resilient_map(solve, problems)
    # interleave a warm-up of each before timing
    plain(), resilient()
    pairs = []
    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            t_res = _timed(resilient)
            t_pl = _timed(plain)
        else:
            t_pl = _timed(plain)
            t_res = _timed(resilient)
        pairs.append((t_pl, t_res))
    ratios = [res / pl for pl, res in pairs]

    t0 = time.perf_counter()
    result = run_punch(g, U, PunchConfig(seed=0))
    t_punch = time.perf_counter() - t0

    return {
        "n_problems": len(problems),
        "t_plain": float(np.median([pl for pl, _ in pairs])),
        "t_resilient": float(np.median([res for _, res in pairs])),
        "pair_ratios": ratios,
        "overhead": float(np.median(ratios)) - 1.0,
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
        ["path", "median s", "vs plain"],
        [
            ("plain loop", f"{r['t_plain']:.4f}", "1.000x"),
            (
                "resilient_map (no faults)",
                f"{r['t_resilient']:.4f}",
                f"{1.0 + r['overhead']:.3f}x",
            ),
        ],
        title=(
            f"Resilient executor overhead on {NAME} "
            f"({r['n_problems']} cut subproblems, U={U}; median ratio of "
            f"{OVERHEAD_PAIRS} back-to-back pairs; "
            f"full run_punch {r['t_punch']:.2f}s, cost {r['punch_cost']:g})"
        ),
    )
    write_result("resilience_overhead", out)
    _RECORDED["resilient_map"] = {
        "t_plain": r["t_plain"],
        "t_resilient": r["t_resilient"],
        "pairs": OVERHEAD_PAIRS,
        "pair_ratios": r["pair_ratios"],
        "overhead": r["overhead"],
        "limit": OVERHEAD_LIMIT,
        "ok": r["overhead"] < OVERHEAD_LIMIT,
    }
    _write_bench_json()

    # the acceptance bound: < 5% no-fault overhead (median pair ratio)
    assert r["overhead"] < OVERHEAD_LIMIT, (
        f"no-fault overhead {r['overhead']:.1%} >= {OVERHEAD_LIMIT:.0%}"
    )
    # a clean run must report zero incidents (informational sections such as
    # cut-cache hit rates or the filtering engine/solve counts are fine;
    # anything else means a fault fired)
    report = dict(r["punch_report"])
    for section in ("cut_cache", "filtering", "parallel", "supervisor", "sanitizer"):
        report.pop(section, None)
    assert report == {}


def _supervisor_config(supervise: bool) -> PunchConfig:
    return PunchConfig(
        seed=0,
        assembly=AssemblyConfig(multistart=2),
        parallel=ParallelConfig(workers=2),
        runtime=RuntimeConfig(supervise=supervise),
    )


def _bench_supervised(g) -> dict:
    def run(supervise: bool):
        return run_punch(g, U, _supervisor_config(supervise))

    # warm-up both paths and pin the determinism contract: supervision is
    # scheduling-only, so the partition may not move by a single label
    base = run(False)
    sup = run(True)
    assert np.array_equal(base.partition.labels, sup.partition.labels)
    assert sup.run_report()["supervisor"]["enabled"] is True

    # alternate the two variants, the supervised half first in every other
    # pair, and gate on the median per-pair ratio: both halves of a pair see
    # nearly the same machine load, and the median discards pairs a load
    # burst split
    pairs = []
    for i in range(SUP_PAIRS):
        if i % 2:
            t_sup = _timed(lambda: run(True))
            t_pl = _timed(lambda: run(False))
        else:
            t_pl = _timed(lambda: run(False))
            t_sup = _timed(lambda: run(True))
        pairs.append((t_pl, t_sup))
    ratios = [sup / pl for pl, sup in pairs]
    overhead = float(np.median(ratios)) - 1.0
    return {
        "t_plain": float(np.median([pl for pl, _ in pairs])),
        "t_supervised": float(np.median([sup for _, sup in pairs])),
        "pairs": SUP_PAIRS,
        "pair_ratios": ratios,
        "overhead": overhead,
        "ok": overhead < SUPERVISOR_OVERHEAD_LIMIT,
    }


def test_supervisor_overhead(benchmark):
    """No-fault supervised runs stay within 5% of unsupervised wall time."""
    g = instance(NAME)

    e = benchmark.pedantic(lambda: _bench_supervised(g), rounds=1, iterations=1)
    out = render_table(
        ["pool", "median plain s", "median supervised s", "overhead"],
        [
            (
                "processes",
                f"{e['t_plain']:.4f}",
                f"{e['t_supervised']:.4f}",
                f"{e['overhead']:+.1%}",
            )
        ],
        title=(
            f"Execution-supervisor overhead on {NAME} (U={U}, multistart=2, "
            f"2 worker processes; limit {SUPERVISOR_OVERHEAD_LIMIT:.0%}, "
            f"median ratio of {SUP_PAIRS} alternating pairs)"
        ),
    )
    write_result("supervisor_overhead", out)
    _RECORDED["supervisor"] = {
        "limit": SUPERVISOR_OVERHEAD_LIMIT,
        "determinism_ok": True,  # asserted in _bench_supervised
        "processes": e,
    }
    _write_bench_json()

    assert e["overhead"] < SUPERVISOR_OVERHEAD_LIMIT, (
        f"supervisor no-fault overhead {e['overhead']:.1%} >= "
        f"{SUPERVISOR_OVERHEAD_LIMIT:.0%}"
    )
