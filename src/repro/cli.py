"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``info GRAPH``                    : print graph statistics
- ``generate -o GRAPH``             : write a synthetic road network
- ``partition GRAPH -U N``          : unbalanced PUNCH (paper's main problem)
- ``balanced GRAPH -k K [--strong]``: balanced PUNCH (Section 4)
- ``replay GRAPH -U N``             : serving-layer query-log replay (CRP)
- ``update GRAPH -U N``             : incremental dirty-region updates (live graph)

Graph files are DIMACS ``.gr``(.gz) or METIS ``.graph``(.gz), inferred from
the extension.  Partitions are written as one cell id per line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from .core.config import (
    AssemblyConfig,
    BalancedConfig,
    FilterConfig,
    PunchConfig,
    RuntimeConfig,
)


def _runtime_from_args(args) -> RuntimeConfig:
    """Build the resilience policy from the shared CLI flags."""
    fault_plan = None
    if getattr(args, "chaos", None) is not None:
        from .runtime.chaos import ChaosPlan

        # a fixed injection mix keyed only by the seed: deterministic,
        # moderate rates across every chaos site (tests pin exact plans)
        fault_plan = ChaosPlan(
            seed=args.chaos,
            sites=("process", "checkpoint", "memory"),
            kill_rate=0.2,
            checkpoint_corrupt_rate=0.2,
            cache_pressure_rate=0.2,
        )
    try:
        return RuntimeConfig(
            time_budget=args.time_budget,
            max_retries=args.max_retries,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            supervise=getattr(args, "supervise", False),
            fault_plan=fault_plan,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _add_runtime_flags(sp) -> None:
    """Flags shared by the partition and balanced commands."""
    sp.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best valid partition so far is returned",
    )
    sp.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="periodically save progress here (see docs/RESILIENCE.md)",
    )
    sp.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint if it exists",
    )
    sp.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="extra attempts per failed min-cut subproblem (default 2)",
    )
    sp.add_argument(
        "--supervise",
        action="store_true",
        help="supervise the worker pool: watchdog, pool-restart budget, and "
        "orphaned shared-memory reaping (see docs/RESILIENCE.md)",
    )
    sp.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="deterministic chaos harness: inject worker kills, checkpoint "
        "corruption, and cache pressure on the given seed's schedule "
        "(the partition stays bit-identical; testing/demo only)",
    )
    sp.add_argument(
        "--profile",
        action="store_true",
        help="collect per-phase wall/CPU timings and print the breakdown",
    )
    sp.add_argument(
        "--sanitize",
        action="store_true",
        help="runtime sanitizer: freeze shared views, verify RNG draw parity "
        "and partition invariants (≤5%% overhead; see docs/STATIC_ANALYSIS.md)",
    )
    sp.add_argument(
        "--executor",
        choices=("threads", "processes"),
        default=None,
        help="run the work on a worker pool of this kind (default: inline); "
        "the partition is bit-identical with and without one (see "
        "docs/PERFORMANCE.md)",
    )
    sp.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for --executor threads/processes (default: all cores)",
    )
    sp.add_argument(
        "--cut-engine",
        default="push_relabel",
        metavar="NAME",
        help="natural-cut engine: push_relabel (paper default, exact min cut) "
        "or flowcutter (Pareto cut enumeration; see docs/CUT_ENGINES.md)",
    )


def _filter_from_args(args) -> FilterConfig:
    """Build the filtering config from the shared CLI flags."""
    try:
        return FilterConfig(cut_engine=getattr(args, "cut_engine", "push_relabel"))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _parallel_from_args(args):
    """Build the worker-pool config from the shared CLI flags.

    No ``--executor`` flag means no pool (``None``): every task runs
    inline, with the same partition a pool would give.
    """
    if args.executor is None:
        return None
    from .core.config import ParallelConfig

    try:
        return ParallelConfig(backend=args.executor, workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _enable_profiling(args):
    """Turn on the global phase profiler when ``--profile`` was given."""
    if not getattr(args, "profile", False):
        return None
    from .perf.timers import get_profiler

    prof = get_profiler()
    prof.reset()
    prof.enabled = True
    return prof


def _print_profile(prof) -> None:
    if prof is not None:
        print(prof.report())


def _enable_sanitizer(args):
    """Arm the runtime sanitizer when ``--sanitize`` was given."""
    if not getattr(args, "sanitize", False):
        return None
    from .lint.sanitizer import get_sanitizer

    san = get_sanitizer()
    san.reset()
    san.enabled = True
    return san


def _print_sanitizer(san) -> int:
    """Print the sanitizer verdict; returns 1 when violations were found."""
    if san is None:
        return 0
    rep = san.report()
    checks = sum(rep["checks"].values())
    if not rep["violations"]:
        print(f"sanitizer: {checks} check(s), 0 violations")
        return 0
    print(f"sanitizer: {checks} check(s), {len(rep['violations'])} VIOLATION(S):")
    for v in rep["violations"]:
        print(f"  [{v['phase']}] {v['kind']}: {v['message']}")
    return 1


def _load_graph(path: str):
    from .graph.io import read_dimacs_gr, read_metis

    name = Path(path).name
    if ".graph" in name:
        return read_metis(path)
    if ".gr" in name:
        return read_dimacs_gr(path)
    raise SystemExit(f"cannot infer format of {path!r} (use .gr or .graph)")


def _save_graph(g, path: str) -> None:
    from .graph.io import write_dimacs_gr, write_metis

    name = Path(path).name
    if ".graph" in name:
        write_metis(g, path)
    elif ".gr" in name:
        write_dimacs_gr(g, path)
    else:
        raise SystemExit(f"cannot infer format of {path!r} (use .gr or .graph)")


def _write_labels(labels, path: str) -> None:
    Path(path).write_text("\n".join(str(int(x)) for x in labels) + "\n")


def cmd_info(args) -> int:
    """``repro info``: print graph statistics."""
    from .graph import connected_components

    g = _load_graph(args.graph)
    k, _ = connected_components(g)
    print(f"vertices      : {g.n}")
    print(f"edges         : {g.m}")
    print(f"avg degree    : {2 * g.m / max(g.n, 1):.2f}")
    print(f"total size    : {g.total_size()}")
    print(f"total weight  : {g.total_weight():g}")
    print(f"components    : {k}")
    print(f"coordinates   : {'yes' if g.coords is not None else 'no'}")
    return 0


def cmd_generate(args) -> int:
    """``repro generate``: write a synthetic road network."""
    from .synthetic import instance, road_network

    if args.name:
        g = instance(args.name)
    else:
        g = road_network(n_target=args.n, seed=args.seed)
    _save_graph(g, args.output)
    print(f"wrote {g.n} vertices / {g.m} edges to {args.output}")
    return 0


def cmd_partition(args) -> int:
    """``repro partition``: run unbalanced PUNCH."""
    from .core.punch import run_punch

    g = _load_graph(args.graph)
    cfg = PunchConfig(
        filter=_filter_from_args(args),
        assembly=AssemblyConfig(multistart=args.multistart, phi=args.phi),
        runtime=_runtime_from_args(args),
        parallel=_parallel_from_args(args),
        seed=args.seed,
    )
    prof = _enable_profiling(args)
    san = _enable_sanitizer(args)
    res = run_punch(g, args.U, cfg)
    print(res.summary())
    print(f"cells connected: {res.partition.all_cells_connected()}")
    _print_profile(prof)
    rc = _print_sanitizer(san)
    if args.output:
        _write_labels(res.partition.labels, args.output)
        print(f"wrote labels to {args.output}")
    return rc


def cmd_balanced(args) -> int:
    """``repro balanced``: run balanced PUNCH."""
    from .balanced.driver import run_balanced_punch

    g = _load_graph(args.graph)
    cfg = BalancedConfig(
        strong=args.strong,
        phi_unbalanced=args.phi,
        rebalance_attempts=args.rebalances,
        filter=_filter_from_args(args),
        runtime=_runtime_from_args(args),
        parallel=_parallel_from_args(args),
        seed=args.seed,
    )
    prof = _enable_profiling(args)
    san = _enable_sanitizer(args)
    res = run_balanced_punch(g, args.k, args.epsilon, cfg)
    print(res.summary())
    _print_profile(prof)
    rc = _print_sanitizer(san)
    if args.output:
        _write_labels(res.partition.labels, args.output)
        print(f"wrote labels to {args.output}")
    return rc


def cmd_replay(args) -> int:
    """``repro replay``: partition, build the overlay, replay a query log."""
    import json

    from .core.punch import run_punch
    from .crp import build_overlay
    from .serve import ServingConfig, ServingEngine, replay, synthetic_query_log

    if args.name:
        from .synthetic import instance

        g = instance(args.name)
    elif args.graph:
        g = _load_graph(args.graph)
    else:
        raise SystemExit("error: give a GRAPH file or --name INSTANCE")
    cfg = PunchConfig(seed=args.seed)
    res = run_punch(g, args.U, cfg)
    engine = ServingEngine(
        build_overlay(res.partition),
        ServingConfig(metric_cache_entries=args.cache_entries),
    )
    log = synthetic_query_log(
        g,
        n_queries=args.queries,
        batch_size=args.batch,
        n_profiles=args.profiles,
        seed=args.seed if args.seed is not None else 0,
    )
    pcfg = _parallel_from_args(args) if hasattr(args, "executor") else None
    if pcfg is not None and pcfg.backend == "threads":
        from .parallel.pool import ParallelRuntime

        with ParallelRuntime(pcfg) as rt:
            rr = replay(engine, log, batch_size=args.batch, pool=rt)
    else:
        rr = replay(engine, log, batch_size=args.batch)
    print(f"queries        : {rr.queries} in {rr.batches} batches")
    print(f"throughput     : {rr.qps:.0f} queries/s")
    print(f"latency p50    : {rr.latency_p50_ms:.3f} ms")
    print(f"latency p99    : {rr.latency_p99_ms:.3f} ms")
    print(f"customizations : {rr.customizations} ({rr.customize_s:.3f}s)")
    print(f"LRU hit rate   : {rr.lru_hit_rate:.2f}")
    if args.json:
        Path(args.json).write_text(json.dumps(rr.run_report(), indent=2) + "\n")
        print(f"wrote report to {args.json}")
    return 0


def cmd_update(args) -> int:
    """``repro update``: apply delta batches through the incremental engine."""
    import json
    from time import perf_counter

    from .core.punch import run_punch
    from .updates import (
        IncrementalUpdater,
        UpdateConfig,
        deltas_from_json,
        synthetic_delta_batch,
    )

    if args.name:
        from .synthetic import instance

        g = instance(args.name)
    elif args.graph:
        g = _load_graph(args.graph)
    else:
        raise SystemExit("error: give a GRAPH file or --name INSTANCE")
    if args.deltas is None and args.synthetic is None:
        raise SystemExit("error: give --deltas FILE or --synthetic KIND")

    cfg = PunchConfig(seed=args.seed)
    san = _enable_sanitizer(args)
    t0 = perf_counter()
    res = run_punch(g, args.U, cfg)
    build_s = perf_counter() - t0
    print(f"initial partition: {res.partition.num_cells} cells, "
          f"cost {res.partition.cost:g} ({build_s:.3f}s)")

    try:
        ucfg = UpdateConfig(
            halo=args.halo,
            quality_ratio=args.quality_ratio,
            max_dirty_fraction=args.max_dirty_fraction,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    updater = IncrementalUpdater(res.partition, args.U, config=ucfg, punch_config=cfg)

    if args.deltas is not None:
        batches = [deltas_from_json(Path(args.deltas).read_text())]
    else:
        base_seed = args.seed if args.seed is not None else 0
        batches = [
            synthetic_delta_batch(g, kind=args.synthetic, count=args.count, seed=base_seed + i)
            for i in range(args.batches)
        ]
        # synthetic batches address the *initial* graph; regenerate lazily
        # below when earlier batches changed the structure

    for i in range(len(batches)):
        if args.deltas is None and i > 0:
            base_seed = args.seed if args.seed is not None else 0
            batches[i] = synthetic_delta_batch(
                updater.graph, kind=args.synthetic, count=args.count, seed=base_seed + i
            )
        r = updater.apply(batches[i])
        rec = r.record
        print(
            f"update #{rec.seq}: {rec.kind:10s} {rec.mode:8s} "
            f"dirty {rec.dirty_cells}/{r.partition.num_cells} cells "
            f"({rec.dirty_fraction:.1%} of graph)  {rec.latency_s * 1e3:.1f} ms  "
            f"cache reuse {rec.cache_reuse_rate:.0%}"
            + (f"  [fallback: {rec.fallback_reason}]" if rec.fallback else "")
        )

    report = updater.run_report()
    agg = report["updates"]
    print(f"applied        : {agg['updates']} batch(es), {agg['fallbacks']} fallback(s)")
    print(f"median latency : {agg['latency_s_median'] * 1e3:.1f} ms")
    print(f"cache reuse    : {agg['cache_reuse_rate']:.2f}")
    if args.compare_rebuild:
        t0 = perf_counter()
        run_punch(updater.graph, args.U, cfg)
        rebuild_s = perf_counter() - t0
        speedup = rebuild_s / max(agg["latency_s_median"], 1e-9)
        print(f"full rebuild   : {rebuild_s:.3f}s -> median speedup {speedup:.1f}x")
        report["updates"]["rebuild_s"] = rebuild_s
        report["updates"]["median_speedup"] = speedup
    rc = _print_sanitizer(san)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote report to {args.json}")
    return rc


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="PUNCH: graph partitioning with natural cuts (IPDPS'11 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="print graph statistics")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("generate", help="generate a synthetic road network")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--name", help="named instance (e.g. europe_like)")
    sp.add_argument("--n", type=int, default=10_000, help="target vertex count")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("partition", help="unbalanced PUNCH with cell bound U")
    sp.add_argument("graph")
    sp.add_argument("-U", type=int, required=True, help="maximum cell size")
    sp.add_argument("-o", "--output", help="write per-vertex cell ids here")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--multistart", type=int, default=1)
    sp.add_argument("--phi", type=int, default=16)
    _add_runtime_flags(sp)
    sp.set_defaults(fn=cmd_partition)

    sp = sub.add_parser("balanced", help="balanced PUNCH with k cells")
    sp.add_argument("graph")
    sp.add_argument("-k", type=int, required=True, help="number of cells")
    sp.add_argument("--epsilon", type=float, default=0.03)
    sp.add_argument("--strong", action="store_true")
    sp.add_argument("--phi", type=int, default=64)
    sp.add_argument("--rebalances", type=int, default=8)
    sp.add_argument("-o", "--output", help="write per-vertex cell ids here")
    sp.add_argument("--seed", type=int, default=None)
    _add_runtime_flags(sp)
    sp.set_defaults(fn=cmd_balanced)

    sp = sub.add_parser(
        "replay", help="serve a synthetic CRP query log and report QPS/latency"
    )
    sp.add_argument("graph", nargs="?", help="graph file (.gr/.graph, or use --name)")
    sp.add_argument("--name", help="named synthetic instance (e.g. belgium_like)")
    sp.add_argument("-U", type=int, required=True, help="maximum cell size")
    sp.add_argument("--queries", type=int, default=1000, help="log length")
    sp.add_argument("--batch", type=int, default=50, help="queries per batch")
    sp.add_argument("--profiles", type=int, default=4, help="weight profiles in the log")
    sp.add_argument("--cache-entries", type=int, default=8, help="metric LRU capacity")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--json", metavar="PATH", help="write the replay run report here")
    sp.add_argument(
        "--executor",
        choices=("threads", "processes"),
        default=None,
        help="threads fans batches across a worker pool; processes (like the "
        "default) serves inline",
    )
    sp.add_argument("--workers", type=int, default=None, metavar="N")
    sp.set_defaults(fn=cmd_replay)

    sp = sub.add_parser(
        "update",
        help="apply graph delta batches through the incremental update engine",
    )
    sp.add_argument("graph", nargs="?", help="graph file (.gr/.graph, or use --name)")
    sp.add_argument("--name", help="named synthetic instance (e.g. belgium_like)")
    sp.add_argument("-U", type=int, required=True, help="maximum cell size")
    sp.add_argument(
        "--deltas", metavar="FILE", help="JSON delta batch (see docs/UPDATES.md)"
    )
    sp.add_argument(
        "--synthetic",
        choices=("reweight", "mixed", "grow"),
        help="generate seeded synthetic batches instead of --deltas",
    )
    sp.add_argument("--count", type=int, default=10, help="edits per synthetic batch")
    sp.add_argument("--batches", type=int, default=3, help="synthetic batches to apply")
    sp.add_argument("--halo", type=int, default=1, help="dirty-region BFS halo depth")
    sp.add_argument(
        "--quality-ratio",
        type=float,
        default=1.5,
        help="repair degradation bound before full-rebuild fallback",
    )
    sp.add_argument(
        "--max-dirty-fraction",
        type=float,
        default=0.35,
        help="dirty-region share of the graph before full-rebuild fallback",
    )
    sp.add_argument(
        "--compare-rebuild",
        action="store_true",
        help="also time a full PUNCH rebuild of the final graph and print the speedup",
    )
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--sanitize", action="store_true", help="arm the runtime sanitizer")
    sp.add_argument("--json", metavar="PATH", help="write the update run report here")
    sp.set_defaults(fn=cmd_update)
    return p


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
