#!/usr/bin/env python
"""Worker-pool scaling benchmark: serial baseline vs. process pool.

Standalone script (not a pytest bench):

    python benchmarks/bench_scaling.py             # full (belgium_like)
    python benchmarks/bench_scaling.py --quick     # CI smoke (small instance)
    REPRO_BENCH_QUICK=1 python benchmarks/bench_scaling.py   # same as --quick

Times natural-cut detection and the end-to-end multistart run without a
worker pool (every task inline) against the process pool at several
worker counts, and writes ``BENCH_scaling.json`` at the repo root (schema
``bench_scaling/v1``; documented in ``docs/PERFORMANCE.md``).

Two gates:

- **determinism** (always enforced): every worker count must produce
  exactly the serial answer — the bit-identical contract of
  ``docs/PERFORMANCE.md``.  Any mismatch is a hard failure.
- **speedup** (enforced only when the machine can show one, i.e.
  ``os.cpu_count() >= MIN_CORES_FOR_GATE``): processes at 4 workers must
  beat the serial baseline by ``SPEEDUP_GATE`` on the full instance.  On
  smaller machines the measured ratios are still recorded, with
  ``speedup_gate_enforced: false`` so readers know why the gate was idle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.config import AssemblyConfig, ParallelConfig, PunchConfig  # noqa: E402
from repro.core.punch import run_punch  # noqa: E402
from repro.filtering.natural_cuts import detect_natural_cuts  # noqa: E402
from repro.parallel import ParallelRuntime  # noqa: E402
from repro.synthetic.instances import instance  # noqa: E402

U = 96
SEED = 7
MULTISTART = 4
SPEEDUP_GATE = 1.3  # processes @ 4 workers vs serial, full instance only
MIN_CORES_FOR_GATE = 4
OUT_PATH = REPO_ROOT / "BENCH_scaling.json"


def timed(fn, repeats: int):
    """(best wall seconds, last return value) of ``fn()``."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_filtering(g, worker_counts, repeats):
    """Natural-cut detection: inline vs on the pool."""

    def legacy():
        return detect_natural_cuts(g, U, rng=np.random.default_rng(3))[0]

    t_serial, ids0 = timed(legacy, repeats)
    print(f"  filtering serial                {t_serial * 1e3:9.1f} ms (baseline)")
    runs = {"serial": {"time_s": t_serial, "speedup": 1.0}}

    for workers in worker_counts:
        def pooled(w=workers):
            with ParallelRuntime(ParallelConfig(workers=w)) as rt:
                return detect_natural_cuts(
                    g, U, rng=np.random.default_rng(3), parallel=rt
                )[0]

        t, ids = timed(pooled, repeats)
        if not np.array_equal(ids, ids0):
            raise SystemExit(
                f"DETERMINISM FAILURE: processes/{workers} cut set differs from serial"
            )
        runs[f"processes_{workers}"] = {"time_s": t, "speedup": t_serial / t}
        print(
            f"  filtering processes w={workers}       {t * 1e3:9.1f} ms"
            f"   speedup {t_serial / t:5.2f}x   (identical cuts: yes)"
        )
    return runs


def bench_end_to_end(g, worker_counts, repeats):
    """Full run_punch (filtering + multistart assembly on the pool)."""

    def run(parallel_cfg):
        cfg = PunchConfig(
            assembly=AssemblyConfig(multistart=MULTISTART),
            seed=SEED,
            parallel=parallel_cfg,
        )
        res = run_punch(g, U, cfg)
        return res.partition.labels, res.cost

    t_serial, (labels0, cost0) = timed(lambda: run(None), repeats)
    print(f"  end-to-end serial               {t_serial * 1e3:9.1f} ms (baseline)")
    runs = {"serial": {"time_s": t_serial, "speedup": 1.0, "cost": float(cost0)}}

    for workers in worker_counts:
        t, (labels, cost) = timed(
            lambda w=workers: run(ParallelConfig(workers=w)),
            repeats,
        )
        if not np.array_equal(labels, labels0):
            raise SystemExit(
                f"DETERMINISM FAILURE: processes/{workers} partition differs from serial"
            )
        runs[f"processes_{workers}"] = {
            "time_s": t,
            "speedup": t_serial / t,
            "cost": float(cost),
        }
        print(
            f"  end-to-end processes w={workers}      {t * 1e3:9.1f} ms"
            f"   speedup {t_serial / t:5.2f}x   (identical partition: yes)"
        )
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke (small instance)")
    args = ap.parse_args(argv)
    quick = args.quick or bool(os.environ.get("REPRO_BENCH_QUICK", ""))

    cores = os.cpu_count() or 1
    name = "small_like" if quick else "belgium_like"
    repeats = 1 if quick else 2
    worker_counts = [2] if quick else [2, 4]
    worker_counts = sorted(set(min(w, max(cores, 2)) for w in worker_counts))

    g = instance(name)
    print(
        f"bench_scaling: {name} (n={g.n}, m={g.m}), U={U}, "
        f"cores={cores}, quick={quick}"
    )

    print("filtering (natural-cut detection):")
    filtering = bench_filtering(g, worker_counts, repeats)
    print("end-to-end (run_punch, multistart on the pool):")
    end_to_end = bench_end_to_end(g, worker_counts, repeats)

    gate_enforced = not quick and cores >= MIN_CORES_FOR_GATE
    gate_key = "processes_4"
    gate_ok = True
    if gate_enforced and gate_key in end_to_end:
        gate_ok = end_to_end[gate_key]["speedup"] >= SPEEDUP_GATE

    # an idle gate must say *why* it idled — a bare pass is indistinguishable
    # from a machine that actually cleared the speedup bar
    idled_reason = None
    if quick:
        idled_reason = "quick mode: gate only runs on the full instance"
    elif cores < MIN_CORES_FOR_GATE:
        idled_reason = (
            f"cpu_count={cores} < {MIN_CORES_FOR_GATE}: too few cores to "
            "demonstrate a parallel speedup"
        )

    result = {
        "schema": "bench_scaling/v1",
        "instance": name,
        "n": g.n,
        "m": g.m,
        "U": U,
        "seed": SEED,
        "multistart": MULTISTART,
        "quick": quick,
        "repeats": repeats,
        "cpu_count": cores,
        "generated_unix": int(time.time()),
        "determinism_ok": True,  # hard-gated above; reaching here means it held
        "speedup_gate": SPEEDUP_GATE,
        "speedup_gate_enforced": gate_enforced,
        "speedup_gate_ok": gate_ok,
        "idled": idled_reason,
        "filtering": filtering,
        "end_to_end": end_to_end,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    if not gate_enforced:
        print(f"speedup gate idle: {idled_reason} (determinism gate still enforced)")
    elif not gate_ok:
        print(
            f"FAIL: processes@4 speedup {end_to_end[gate_key]['speedup']:.2f}x "
            f"below gate {SPEEDUP_GATE}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
