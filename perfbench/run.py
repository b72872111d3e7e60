"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --kernel-nominal-ms 6.5 --workload coarse \\
        --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the run record (environment, seed, raw timings) that lets
a reader tell a slow machine from a slow program.  ``--smoke`` runs one short
round instead of ``--seconds`` of them.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hygiene import leaks, pin_native_threads, snapshot  # noqa: E402

pin_native_threads()
AT_START = snapshot()

OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--kernel-nominal-ms",
        type=float,
        required=True,
        help="reference-kernel time that normalized timings are scaled to",
    )
    ap.add_argument("--smoke", action="store_true", help="one short round, for self-tests")
    return ap.parse_args(argv)


def git_rev(root: str) -> str:
    """The checkout's commit, read from ``.git`` without spawning git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def column_medians(rounds, attr: str, which: int) -> list:
    """Median over rounds of each entry of ``Round.<attr>`` (0 raw, 1 normalized).

    Entry *i* is the same work in every round, so its median over rounds
    drops the rounds a slow spell of the machine distorted.
    """
    return [median(e[which] for e in col) for col in zip(*(getattr(r, attr) for r in rounds))]


def summary(rounds, np, which: int) -> dict:
    """Set-up time and op latency percentiles / mean, from per-entry medians."""
    setup = column_medians(rounds, "setup", which)
    ops = column_medians(rounds, "ops", which)
    other = column_medians(rounds, "other", which)
    w = rounds[0].weight
    return {
        "setup_s": sum(setup),
        "op_ms_p50": float(np.percentile(ops, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(ops, 90)) * 1e3,
        "op_ms_mean": (w * sum(ops) + sum(other)) / (w * len(ops)) * 1e3,
        "other_ms": (sum(other) / len(other) * 1e3) if other else None,
    }


def end_to_end(rounds, np) -> dict:
    """The end-to-end metrics of an untraced run."""
    s = summary(rounds, np, 1)
    return {
        "setup_s": (s["setup_s"], "s"),
        "op_ms_p50": (s["op_ms_p50"], "ms"),
        "op_ms_p90": (s["op_ms_p90"], "ms"),
        "op_ms_mean": (s["op_ms_mean"], "ms"),
        "cut_weight": (median(r.cut_weight for r in rounds), "weight"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def raw_diagnostics(rounds, np) -> dict:
    """Un-normalized medians, plus serve's update time, beside the metrics."""
    raw, norm = summary(rounds, np, 0), summary(rounds, np, 1)
    out = {f"raw_{k}": v for k, v in raw.items() if k != "other_ms"}
    if norm["other_ms"] is not None:
        out["update_ms"] = norm["other_ms"]
        out["raw_update_ms"] = raw["other_ms"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np
    import scipy

    from kernel import Clock, reference_kernel
    from layers import layer_metrics, overhead_pct
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    clock = Clock(args.kernel_nominal_ms / 1e3)
    wl = WORKLOADS[args.workload](args.seed, clock, smoke=args.smoke)
    reference_kernel()

    # the first round warms lazy imports and caches, checks every query
    # against Dijkstra and records the outputs later rounds must repeat;
    # its timings are discarded
    started = perf_counter()
    warm = wl.run_round()
    all_rounds = [warm]
    untraced, traced, tracers = [], [], []
    additivity = 0.0  # largest per-op gap between self times and op time
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        gc.collect()
        if args.trace and i % 2 == 1:
            tracer = Tracer()
            wl.tr = tracer
            try:
                with tracer.installed():
                    rd = wl.run_round()
            finally:
                wl.tr = NullTracer()
            additivity = max(additivity, tracer.check_additivity())
            traced.append(rd)
            tracers.append(tracer)
        else:
            rd = wl.run_round()
            untraced.append(rd)
        all_rounds.append(rd)
        i += 1
        if args.smoke and len(untraced) >= 1 and len(traced) >= args.trace:
            break
        if not args.smoke and perf_counter() >= deadline and len(untraced) >= 3 \
                and len(traced) >= (2 if args.trace else 0):
            break

    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for r in all_rounds:
        for fault in r.faults[:20]:
            print(f"fault: {fault}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracers, traced)
        metrics["trace.overhead_pct"] = (overhead_pct(traced, untraced), "%")
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(span_file, "w") as fh:
            json.dump([t.export() for t in tracers], fh)
    else:
        metrics = end_to_end(untraced, np)

    record = {
        "git_rev": git_rev(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "params_digest": wl.params_digest(),
        "params": wl.params(),
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "wall_s": perf_counter() - started,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "kernel_nominal_ms": args.kernel_nominal_ms,
        **clock.kernel_stats(),
        **raw_diagnostics(untraced, np),
        "failed_frac": failed / attempted if attempted else 0.0,
    }
    if args.trace:
        record["span_file"] = os.path.relpath(span_file, ROOT)
        record["additivity_max_err_s"] = additivity

    found = leaks(AT_START)
    if found:
        for what in found:
            print(f"error: {what}", file=sys.stderr)
        return 3

    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        code = 1
    sys.exit(code)
