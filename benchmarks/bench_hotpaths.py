#!/usr/bin/env python
"""Hot-path kernel benchmark: vectorized vs. retained reference kernels.

Standalone script (not a pytest bench):

    python benchmarks/bench_hotpaths.py            # full (medium instance)
    REPRO_BENCH_QUICK=1 python benchmarks/bench_hotpaths.py   # CI smoke

For every vectorized kernel introduced by the perf work, this times the
production implementation against the scalar reference it replaced — on the
same inputs, asserting output equality while doing so — and reports the
speedups plus cut-cache, local-search and profiler-overhead measurements in
``BENCH_hotpaths.json`` at the repo root (machine-readable; format
documented in ``benchmarks/README.md`` and ``docs/PERFORMANCE.md``).

Exit status is non-zero when enabling the profiler slows filtering by more
than ``OVERHEAD_LIMIT`` (the CI perf-smoke gate): the median on/off ratio
over ``OVERHEAD_PAIRS`` back-to-back profiler-off/profiler-on pairs of short
filtering runs, so load bursts during some runs cannot decide the verdict.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.assembly.cells import PartitionState  # noqa: E402
from repro.assembly.driver import run_assembly  # noqa: E402
from repro.assembly.greedy import greedy_labels_for_graph  # noqa: E402
from repro.assembly.instance import (  # noqa: E402
    build_aux_instance,
    build_aux_instance_reference,
)
from repro.core.config import AssemblyConfig, FilterConfig  # noqa: E402
from repro.filtering.cut_problem import (  # noqa: E402
    build_cut_problem,
    build_cut_problem_reference,
)
from repro.filtering.natural_cuts import collect_cut_problems, detect_natural_cuts  # noqa: E402
from repro.filtering.paths import degree_two_labels, degree_two_labels_reference  # noqa: E402
from repro.filtering.pipeline import run_filtering  # noqa: E402
from repro.flow.network import FlowNetwork  # noqa: E402
from repro.flow.push_relabel import _global_relabel, global_relabel_reference  # noqa: E402
from repro.graph.traversal import (  # noqa: E402
    BFSWorkspace,
    bfs_order,
    bfs_order_reference,
    grow_bfs_region,
    grow_bfs_region_reference,
)
from repro.perf.cut_cache import CutCache  # noqa: E402
from repro.perf.timers import get_profiler  # noqa: E402
from repro.synthetic.instances import instance  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK", ""))
INSTANCE = "small_like" if QUICK else "belgium_like"
U = 96
REPEATS = 2 if QUICK else 3
OVERHEAD_LIMIT = 0.05
#: the profiler gate times short runs (~0.5 s each) so both halves of a pair
#: see nearly the same machine load, and many pairs so the median rides the
#: calm ones; the profiler's cost does not depend on the instance (a
#: filtering run opens about ten spans)
OVERHEAD_INSTANCE = "mini_like"
OVERHEAD_PAIRS = 21
OUT_PATH = REPO_ROOT / "BENCH_hotpaths.json"


def timed(fn, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_entry(name: str, ref_s: float, vec_s: float) -> dict:
    entry = {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
    }
    print(
        f"  {name:<22} ref {ref_s * 1e3:9.2f} ms   vec {vec_s * 1e3:9.2f} ms"
        f"   speedup {entry['speedup']:6.2f}x"
    )
    return entry


def bench_traversal(g, kernels: dict) -> list:
    rng = np.random.default_rng(0)
    n_centers = 100 if QUICK else 300
    centers = [int(c) for c in rng.integers(0, g.n, size=n_centers)]
    max_size, core_size = U, max(1, U // 10)

    ws_a, ws_b = BFSWorkspace(g.n), BFSWorkspace(g.n)
    ref = [grow_bfs_region_reference(g, ws_a, c, max_size, core_size) for c in centers]
    vec = [grow_bfs_region(g, ws_b, c, max_size, core_size) for c in centers]
    for r, v in zip(ref, vec):
        assert np.array_equal(r.tree, v.tree) and np.array_equal(r.ring, v.ring)
        assert r.core_count == v.core_count and r.exhausted == v.exhausted

    kernels["grow_bfs_region"] = kernel_entry(
        "grow_bfs_region",
        timed(lambda: [grow_bfs_region_reference(g, ws_a, c, max_size, core_size) for c in centers]),
        timed(lambda: [grow_bfs_region(g, ws_b, c, max_size, core_size) for c in centers]),
    )

    sources = centers[: max(10, n_centers // 10)]
    for c in sources:
        assert np.array_equal(bfs_order_reference(g, c), bfs_order(g, c))
    kernels["bfs_order"] = kernel_entry(
        "bfs_order",
        timed(lambda: [bfs_order_reference(g, c) for c in sources]),
        timed(lambda: [bfs_order(g, c) for c in sources]),
    )
    return ref


def bench_cut_problems(g, kernels: dict):
    rng = np.random.default_rng(1)
    problems = collect_cut_problems(g, U, alpha=1.0, f=10.0, rng=rng)
    subset_n = 60 if QUICK else 200
    ws = BFSWorkspace(g.n)
    rng2 = np.random.default_rng(2)
    regions = [
        grow_bfs_region(g, ws, int(c), U, max(1, U // 10))
        for c in rng2.integers(0, g.n, size=subset_n)
    ]
    regions = [r for r in regions if not r.exhausted]

    for r in regions[:40]:
        a = build_cut_problem(g, r)
        b = build_cut_problem_reference(g, r)
        assert a.n_local == b.n_local
        assert np.array_equal(a.net_u, b.net_u) and np.array_equal(a.net_v, b.net_v)
        assert np.array_equal(a.net_cap, b.net_cap)
        assert a.fingerprint() == b.fingerprint()

    kernels["build_cut_problem"] = kernel_entry(
        "build_cut_problem",
        timed(lambda: [build_cut_problem_reference(g, r) for r in regions]),
        timed(lambda: [build_cut_problem(g, r) for r in regions]),
    )

    nets = [
        FlowNetwork(p.n_local, p.net_u, p.net_v, p.net_cap)
        for p in problems[: (50 if QUICK else 150)]
    ]
    flows = [np.zeros(net.n_arcs) for net in nets]
    for net, fl in zip(nets[:40], flows[:40]):
        assert np.array_equal(
            _global_relabel(net, fl, 0, 1), global_relabel_reference(net, fl, 0, 1)
        )
    kernels["global_relabel"] = kernel_entry(
        "global_relabel",
        timed(lambda: [global_relabel_reference(n_, f_, 0, 1) for n_, f_ in zip(nets, flows)]),
        timed(lambda: [_global_relabel(n_, f_, 0, 1) for n_, f_ in zip(nets, flows)]),
    )
    return problems


def bench_tiny_cut_scan(g, kernels: dict) -> None:
    la, sa = degree_two_labels(g, U)
    lb, sb = degree_two_labels_reference(g, U)
    assert np.array_equal(la, lb) and sa == sb
    kernels["tiny_cut_scan"] = kernel_entry(
        "tiny_cut_scan",
        timed(lambda: degree_two_labels_reference(g, U)),
        timed(lambda: degree_two_labels(g, U)),
    )


def bench_aux_instance(g, kernels: dict):
    filt = run_filtering(g, U, FilterConfig(), np.random.default_rng(3))
    frag = filt.fragment_graph
    labels = greedy_labels_for_graph(frag, 4 * U, np.random.default_rng(4))
    pairs = PartitionState(frag, labels).adjacent_pairs()
    pairs = pairs[: (60 if QUICK else 200)]

    def fresh_state():
        return PartitionState(frag, labels)

    state = fresh_state()
    for R, S in pairs[:40]:
        a = build_aux_instance(state, R, S, "L2+")
        b = build_aux_instance_reference(state, R, S, "L2+")
        assert np.array_equal(a.unit_sizes, b.unit_sizes)
        assert np.array_equal(a.unit_cell, b.unit_cell)
        assert np.array_equal(a.edge_a, b.edge_a)
        assert np.array_equal(a.edge_b, b.edge_b)
        assert np.array_equal(a.edge_w, b.edge_w)

    # reference timing uses a fresh state per round so neither side benefits
    # from the other's cache warmup; the vectorized side is measured in its
    # natural (cache-warm after round one) regime
    kernels["build_aux_instance"] = kernel_entry(
        "build_aux_instance",
        timed(lambda s=fresh_state(): [build_aux_instance_reference(s, R, S, "L2+") for R, S in pairs]),
        timed(lambda s=fresh_state(): [build_aux_instance(s, R, S, "L2+") for R, S in pairs]),
    )
    return frag


def bench_local_search(frag) -> dict:
    """End-to-end assembly (one start: greedy + L2+ local search) on fragments."""
    runs = []

    def one_run():
        runs.append(run_assembly(frag, U, AssemblyConfig(), np.random.default_rng(7)))

    t = timed(one_run)
    stats = runs[0].stats
    assert all(np.array_equal(r.labels, runs[0].labels) for r in runs)
    entry = {
        "assembly_s": t,
        "cost": float(runs[0].cost),
        "ls_steps": stats.ls_steps,
        "ls_instances_built": stats.ls_instances_built,
        "ls_instances_reused": stats.ls_instances_reused,
    }
    print(
        f"  assembly.local_search  run_assembly {t * 1e3:9.2f} ms   steps {stats.ls_steps}"
        f"   instances built {stats.ls_instances_built} / reused {stats.ls_instances_reused}"
    )
    return entry


def bench_cut_cache(g) -> dict:
    def run(cache):
        _, stats = detect_natural_cuts(
            g, U, C=2, rng=np.random.default_rng(5), cut_cache=cache
        )
        return stats

    t_nocache = timed(lambda: run(None), repeats=1)
    cache = CutCache()
    t0 = time.perf_counter()
    stats = run(cache)
    t_cache = time.perf_counter() - t0
    total = stats.cache_hits + stats.cache_misses
    entry = {
        "nocache_s": t_nocache,
        "cache_s": t_cache,
        "hits": stats.cache_hits,
        "misses": stats.cache_misses,
        "hit_rate": stats.cache_hits / total if total else 0.0,
    }
    print(
        f"  cut_cache              nocache {t_nocache * 1e3:9.2f} ms"
        f"   cached {t_cache * 1e3:9.2f} ms   hit rate {entry['hit_rate']:.1%}"
    )
    return entry


def bench_profiler_overhead() -> dict:
    """Cost of *enabling* the profiler on one filtering run.

    Times ``OVERHEAD_PAIRS`` back-to-back (profiler off, profiler on) pairs
    of ``OVERHEAD_INSTANCE`` filtering runs after one warm-up run and gates
    on the median of the per-pair on/off ratios: both halves of a pair see
    nearly the same machine load, and the median discards the pairs that a
    load burst split.  Every other pair runs its profiled half first, so a
    steady drift in load favours neither side.
    """
    prof = get_profiler()
    g = instance(OVERHEAD_INSTANCE)

    def one_run(enabled: bool) -> float:
        prof.enabled = enabled
        t0 = time.perf_counter()
        run_filtering(g, U, FilterConfig(), np.random.default_rng(6))
        return time.perf_counter() - t0

    one_run(False)  # warm-up
    pairs = []
    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            on = one_run(True)
            off = one_run(False)
        else:
            off = one_run(False)
            on = one_run(True)
        pairs.append((off, on))
    prof.enabled = False
    ratios = [on / off for off, on in pairs]
    overhead = max(0.0, float(np.median(ratios)) - 1.0)
    t_off = float(np.median([off for off, _ in pairs]))
    t_on = float(np.median([on for _, on in pairs]))
    entry = {
        "instance": OVERHEAD_INSTANCE,
        "disabled_s": t_off,
        "enabled_s": t_on,
        "pairs": OVERHEAD_PAIRS,
        "pair_ratios": ratios,
        "overhead_frac": overhead,
        "limit": OVERHEAD_LIMIT,
        "ok": overhead <= OVERHEAD_LIMIT,
    }
    print(
        f"  profiler overhead      off {t_off * 1e3:9.2f} ms   on {t_on * 1e3:9.2f} ms"
        f"   median of {OVERHEAD_PAIRS} pair ratios {overhead:.1%}"
        f" (limit {OVERHEAD_LIMIT:.0%})"
    )
    return entry


def main() -> int:
    g = instance(INSTANCE)
    print(f"bench_hotpaths: {INSTANCE} (n={g.n}, m={g.m}), U={U}, quick={QUICK}")

    kernels: dict = {}
    bench_traversal(g, kernels)
    bench_cut_problems(g, kernels)
    bench_tiny_cut_scan(g, kernels)
    frag = bench_aux_instance(g, kernels)
    local_search_entry = bench_local_search(frag)
    cache_entry = bench_cut_cache(g)
    overhead_entry = bench_profiler_overhead()

    result = {
        "schema": "bench_hotpaths/v1",
        "instance": INSTANCE,
        "n": g.n,
        "m": g.m,
        "U": U,
        "quick": QUICK,
        "repeats": REPEATS,
        "generated_unix": int(time.time()),
        "kernels": kernels,
        "cut_cache": cache_entry,
        "assembly.local_search": local_search_entry,
        "profiler_overhead": overhead_entry,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    fast = sum(1 for k in kernels.values() if k["speedup"] >= 2.0)
    print(f"kernels with >=2x speedup: {fast}/{len(kernels)}")
    if not overhead_entry["ok"]:
        print(
            f"FAIL: profiler overhead {overhead_entry['overhead_frac']:.1%} "
            f"exceeds {OVERHEAD_LIMIT:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
