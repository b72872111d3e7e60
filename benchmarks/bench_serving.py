#!/usr/bin/env python
"""Serving-layer benchmark: query-log replay against the scalar baseline.

Standalone script (not a pytest bench):

    python benchmarks/bench_serving.py             # full (belgium_like)
    python benchmarks/bench_serving.py --quick     # CI smoke (small instance)
    REPRO_BENCH_QUICK=1 python benchmarks/bench_serving.py   # same as --quick

Partitions a synthetic continent graph, builds the CRP overlay, and
replays a seeded query log through :class:`repro.serve.ServingEngine`,
recording QPS, p50/p99 latency, customization time, and the metric-LRU
hit rate into ``BENCH_serving.json`` (schema ``bench_serving/v2``;
documented in ``docs/SERVING.md``).

Two gates:

- **bit-identity** (always enforced): every batched/cached distance must
  equal the per-query scalar ``crp_query`` answer on a freshly customized
  overlay — caching and batching may change speed, never answers.  Any
  mismatch is a hard failure.
- **customization speedup** (enforced unless the instance is degenerate,
  ``clique_edges == 0``, where there is nothing to vectorize): the
  vectorized ``customize_overlay`` must beat the scalar
  ``customize_overlay_reference`` by ``CUSTOMIZE_GATE``.  When idle the
  measured ratio is still recorded with ``customize_gate_enforced: false``.
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

from repro.core.config import PunchConfig  # noqa: E402
from repro.core.punch import run_punch  # noqa: E402
from repro.crp import (  # noqa: E402
    build_overlay,
    crp_query,
    customize_overlay,
    customize_overlay_reference,
)
from repro.serve import (  # noqa: E402
    ServingConfig,
    ServingEngine,
    replay,
    synthetic_query_log,
)
from repro.synthetic.instances import instance  # noqa: E402

U = 96
SEED = 7
CUSTOMIZE_GATE = 1.5  # vectorized vs scalar-reference customization
OUT_PATH = REPO_ROOT / "BENCH_serving.json"


def timed(fn, repeats: int):
    """(best wall seconds, last return value) of ``fn()``."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_customization(overlay, profiles, repeats):
    """Vectorized vs scalar-reference customization on each profile."""
    w = profiles[0]

    t_vec, ov_vec = timed(lambda: customize_overlay(overlay, w), repeats)
    t_ref, ov_ref = timed(lambda: customize_overlay_reference(overlay, w), repeats)
    for v in ov_ref.adj:
        if ov_ref.adj[v] != ov_vec.adj[v]:
            raise SystemExit(
                f"BIT-IDENTITY FAILURE: customized overlay differs at vertex {v}"
            )
    speedup = t_ref / t_vec if t_vec > 0 else float("inf")
    print(
        f"  customization vectorized        {t_vec * 1e3:9.1f} ms\n"
        f"  customization scalar reference  {t_ref * 1e3:9.1f} ms"
        f"   speedup {speedup:5.2f}x   (identical overlay: yes)"
    )
    return {
        "vectorized_s": t_vec,
        "reference_s": t_ref,
        "speedup": speedup,
        "clique_edges": overlay.clique_edges,
    }


def bench_replay(engine, log, batch):
    """One replay pass; returns (ReplayResult, summary dict)."""
    rr = replay(engine, log, batch_size=batch)
    print(
        f"  replay {rr.qps:9.0f} q/s   "
        f"p50 {rr.latency_p50_ms:7.3f} ms   p99 {rr.latency_p99_ms:7.3f} ms   "
        f"LRU hit rate {rr.lru_hit_rate:.2f}"
    )
    return rr, {
        "qps": rr.qps,
        "query_s": rr.query_s,
        "elapsed_s": rr.elapsed_s,
        "latency_p50_ms": rr.latency_p50_ms,
        "latency_p99_ms": rr.latency_p99_ms,
        "customizations": rr.customizations,
        "customize_s": rr.customize_s,
        "lru_hit_rate": rr.lru_hit_rate,
    }


def check_bit_identity(overlay, log, batch, distances):
    """Replayed distances must equal scalar crp_query on fresh overlays."""
    k = log.num_queries
    n_batches = (k + batch - 1) // batch
    checked = 0
    for b in range(n_batches):
        lo, hi = b * batch, min((b + 1) * batch, k)
        ov = customize_overlay(overlay, log.profiles[int(log.batch_profile[b])])
        for i in range(lo, hi):
            d_ref, _ = crp_query(ov, int(log.sources[i]), int(log.targets[i]))
            d_srv = float(distances[i])
            same = (d_ref == d_srv) or (np.isinf(d_ref) and np.isinf(d_srv))
            if not same:
                raise SystemExit(
                    f"BIT-IDENTITY FAILURE: query {i} "
                    f"({int(log.sources[i])}->{int(log.targets[i])}) "
                    f"served {d_srv!r}, scalar answers {d_ref!r}"
                )
            checked += 1
    return checked


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke (small instance)")
    args = ap.parse_args(argv)
    quick = args.quick or bool(os.environ.get("REPRO_BENCH_QUICK", ""))

    name = "small_like" if quick else "belgium_like"
    repeats = 1 if quick else 2
    n_queries = 300 if quick else 2000
    batch = 30 if quick else 100
    n_profiles = 3 if quick else 4
    cache_entries = 4

    g = instance(name)
    print(f"bench_serving: {name} (n={g.n}, m={g.m}), U={U}, quick={quick}")
    res = run_punch(g, U, PunchConfig(seed=SEED))
    overlay = build_overlay(res.partition)
    print(
        f"  overlay: {overlay.num_boundary_vertices} boundary vertices, "
        f"{overlay.clique_edges} clique edges, {overlay.cut_edges} cut edges"
    )
    log = synthetic_query_log(
        g, n_queries=n_queries, batch_size=batch, n_profiles=n_profiles, seed=SEED
    )

    print("customization (vectorized vs scalar reference):")
    customization = bench_customization(overlay, log.profiles, repeats)

    print("replay:")
    engine = ServingEngine(overlay, ServingConfig(metric_cache_entries=cache_entries))
    rr, replay_summary = bench_replay(engine, log, batch)

    # hard gate: served distances == scalar crp_query on fresh customizations
    checked = check_bit_identity(overlay, log, batch, rr.distances)
    print(f"  bit-identity: {checked} distances match scalar crp_query exactly")

    customize_gate_enforced = overlay.clique_edges > 0
    customize_gate_ok = (
        customization["speedup"] >= CUSTOMIZE_GATE if customize_gate_enforced else True
    )

    result = {
        "schema": "bench_serving/v2",
        "instance": name,
        "n": g.n,
        "m": g.m,
        "U": U,
        "seed": SEED,
        "quick": quick,
        "repeats": repeats,
        "queries": n_queries,
        "batch_size": batch,
        "profiles": n_profiles,
        "cache_entries": cache_entries,
        "cpu_count": os.cpu_count() or 1,
        "generated_unix": int(time.time()),
        "bit_identity_ok": True,  # hard-gated above; reaching here means it held
        "bit_identity_checked": checked,
        "customization": customization,
        "customize_gate": CUSTOMIZE_GATE,
        "customize_gate_enforced": customize_gate_enforced,
        "customize_gate_ok": customize_gate_ok,
        "replay": replay_summary,
        "engine": engine.stats(),
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    rc = 0
    if not customize_gate_enforced:
        print("customization gate idle: degenerate instance (no clique edges)")
    elif not customize_gate_ok:
        print(
            f"FAIL: customization speedup {customization['speedup']:.2f}x "
            f"below gate {CUSTOMIZE_GATE}x",
            file=sys.stderr,
        )
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
