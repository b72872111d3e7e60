"""Per-layer metrics of the traced run.

Every ``<span>_pct`` metric is the share of a traced round's time that the
span's layer spent in its own code (self time), so the shares plus
``trace.remainder_pct`` add up to 100 and their base is ``trace.round_ms``.
A layer a workload never calls reads 0 there.  Counts come from the
program's public result objects (``NaturalCutStats``, ``MultistartStats``,
``ServingEngine.stats()`` and the update journal) and repeat exactly from
round to round.  Every value is the median over the run's traced rounds.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from spans import LAYER_SPANS, Tracer
from workloads import Round

#: counters read from ServingEngine.stats(); 0 where no engine runs
ENGINE_COUNTS = (
    ("crp.customizations", "count"),
    ("serve.queries", "count"),
    ("serve.settled_per_query", "count"),
    ("serve.lru_lookups", "count"),
    ("serve.lru_hit_ratio", "ratio"),
    ("updates.applied", "count"),
    ("updates.dirty_fraction", "ratio"),
    ("updates.fallbacks", "count"),
)


def round_metrics(tracer: Tracer, rd: Round) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced round."""
    per, remainder, total = tracer.layer_totals()
    base = total if total > 0 else 1.0
    out: Dict[str, Tuple[float, str]] = {"trace.round_ms": (total * 1e3, "ms")}
    for name in LAYER_SPANS:
        out[f"{name}_pct"] = (100.0 * per[name] / base, "%")
    out["trace.remainder_pct"] = (100.0 * remainder / base, "%")
    out["trace.spans"] = (float(len(tracer.spans)), "count")

    nat = tracer.natural_stats
    hits = sum(s.cache_hits for s in nat)
    lookups = hits + sum(s.cache_misses for s in nat)
    ms = tracer.multistart_stats
    steps = sum(s.ls_steps for s in ms)
    out.update(
        {
            "filtering.subproblems": (float(sum(s.problems_solved for s in nat)), "count"),
            "filtering.fragments": (float(sum(tracer.fragments)), "count"),
            "cutengine.solves": (float(tracer.count("cutengine.solve")), "count"),
            "perf.cut_cache_lookups": (float(lookups), "count"),
            "perf.cut_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "assembly.ls_steps": (float(steps), "count"),
            "assembly.ls_improvement_ratio": (
                sum(s.ls_improvements for s in ms) / steps if steps else 0.0,
                "ratio",
            ),
        }
    )
    for name, unit in ENGINE_COUNTS:
        out[name] = (float(rd.counts.get(name, 0.0)), unit)
    return out


def layer_metrics(tracers: List[Tracer], rounds: List[Round]) -> Dict[str, Tuple[float, str]]:
    """Median over traced rounds of each per-layer metric."""
    per_round = [round_metrics(t, r) for t, r in zip(tracers, rounds)]
    return {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }


def overhead_pct(traced: List[Round], untraced: List[Round]) -> float:
    """Traced minus untraced normalized round time, as a share of untraced."""

    def work(rounds: List[Round]) -> float:
        return statistics.median(r.total_norm() for r in rounds)

    base = work(untraced)
    return 100.0 * (work(traced) - base) / base
