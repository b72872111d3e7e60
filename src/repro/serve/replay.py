"""Query-log replay harness for the serving engine.

Serving quality is a *workload* property — QPS and tail latency depend on
how queries interleave with metric switches — so the harness replays a
log: batches of point-to-point queries, each batch served under one of a
small set of weight profiles scheduled with temporal locality (profile 0
is "live traffic" and recurs; the others rotate), which is exactly the
access pattern the metric LRU is built for.

:func:`synthetic_query_log` derives everything from a seeded
:class:`numpy.random.Generator` — same seed, same workload — and uses
*integer-valued* float weights so profile distances stay exactly
representable (the property-test convention from
``tests/test_property_serving.py``).  :func:`replay` drives a
:class:`~repro.serve.engine.ServingEngine` through the log and reports
QPS, p50/p99 per-query latency, customization time, and the LRU hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List

import numpy as np

from ..graph.graph import Graph
from .engine import ServingEngine

__all__ = ["QueryLog", "ReplayResult", "replay", "synthetic_query_log"]


@dataclass(frozen=True)
class QueryLog:
    """A replayable serving workload.

    ``sources``/``targets`` are aligned vertex ids; ``batch_profile[b]``
    names the weight profile (a row of ``profiles``) active for batch
    ``b`` when the log is replayed with a given batch size.  Profiles are
    per-undirected-edge weight vectors, integer-valued floats.
    """

    sources: np.ndarray
    targets: np.ndarray
    profiles: np.ndarray  # (num_profiles, m)
    batch_profile: np.ndarray  # profile id per batch

    @property
    def num_queries(self) -> int:
        return int(self.sources.shape[0])

    @property
    def num_profiles(self) -> int:
        return int(self.profiles.shape[0])


def synthetic_query_log(
    g: Graph,
    n_queries: int = 1000,
    batch_size: int = 50,
    n_profiles: int = 4,
    seed: int = 0,
) -> QueryLog:
    """Deterministic workload over ``g``: random s/t pairs, locality-biased profiles.

    The profile schedule alternates back to profile 0 between excursions
    (0, 1, 0, 2, 0, 3, ...), modeling a dominant live-traffic metric with
    occasional alternates — the pattern under which an LRU of customized
    metrics pays off.  Weights are drawn as integer-valued floats in
    ``[1, 10)`` scaled by the profile id to keep profiles distinct.
    """
    if n_queries <= 0:
        raise ValueError("n_queries must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if n_profiles <= 0:
        raise ValueError("n_profiles must be positive")
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, g.n, size=n_queries, dtype=np.int64)
    targets = rng.integers(0, g.n, size=n_queries, dtype=np.int64)
    profiles = rng.integers(1, 10, size=(n_profiles, g.m)).astype(np.float64)
    # perturb each profile so they are pairwise distinct metrics
    for p in range(n_profiles):
        profiles[p] += float(p)

    n_batches = (n_queries + batch_size - 1) // batch_size
    sched: List[int] = []
    alt = 1
    for b in range(n_batches):
        if b % 2 == 0 or n_profiles == 1:
            sched.append(0)  # the recurring "live traffic" metric
        else:
            sched.append(alt)
            alt = alt % (n_profiles - 1) + 1 if n_profiles > 1 else 0
    return QueryLog(
        sources=sources,
        targets=targets,
        profiles=profiles,
        batch_profile=np.asarray(sched, dtype=np.int64),
    )


@dataclass
class ReplayResult:
    """Measured outcome of one log replay."""

    queries: int
    batches: int
    elapsed_s: float  # queries + customizations, wall clock
    query_s: float  # query time only
    qps: float  # queries / query_s
    latency_p50_ms: float
    latency_p99_ms: float
    customizations: int
    customize_s: float
    lru_hit_rate: float
    distances: np.ndarray = field(repr=False)
    engine_stats: dict = field(default_factory=dict, repr=False)

    def run_report(self) -> dict:
        """Serving section in the repo's run-report convention."""
        from ..core.result import sanitizer_section

        return sanitizer_section(
            {
                "serving": {
                    "replay": {
                        "queries": self.queries,
                        "batches": self.batches,
                        "elapsed_s": self.elapsed_s,
                        "query_s": self.query_s,
                        "qps": self.qps,
                        "latency_p50_ms": self.latency_p50_ms,
                        "latency_p99_ms": self.latency_p99_ms,
                        "customizations": self.customizations,
                        "customize_s": self.customize_s,
                        "lru_hit_rate": self.lru_hit_rate,
                    },
                    "engine": self.engine_stats,
                }
            }
        )


def replay(engine: ServingEngine, log: QueryLog, batch_size: int = 50) -> ReplayResult:
    """Drive ``engine`` through ``log`` and measure serving behavior.

    Each batch first activates its scheduled profile via
    :meth:`~repro.serve.engine.ServingEngine.customize` (LRU hit or
    vectorized recustomization), then serves its queries through
    :meth:`~repro.serve.engine.ServingEngine.query_batch`.  Per-query
    latency is attributed as batch time / batch size (queries inside a
    batch are not individually timed, keeping measurement overhead off
    the hot path).  Returns every distance so callers can gate
    bit-identity against scalar re-execution.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    k = log.num_queries
    n_batches = (k + batch_size - 1) // batch_size
    if n_batches != int(log.batch_profile.shape[0]):
        raise ValueError(
            f"log schedules {int(log.batch_profile.shape[0])} batches but "
            f"batch_size={batch_size} yields {n_batches}"
        )
    hit0 = engine.cache.hits
    miss0 = engine.cache.misses
    cust_s0 = engine.counters.customize_seconds
    cust_n0 = engine.counters.customizations

    distances = np.full(k, np.inf, dtype=np.float64)
    latencies_ms: List[float] = []
    query_s = 0.0
    t_start = perf_counter()
    for b in range(n_batches):
        lo = b * batch_size
        hi = min(lo + batch_size, k)
        engine.customize(log.profiles[int(log.batch_profile[b])])
        t0 = perf_counter()
        distances[lo:hi] = engine.query_batch(log.sources[lo:hi], log.targets[lo:hi])
        dt = perf_counter() - t0
        query_s += dt
        per_query_ms = (dt / (hi - lo)) * 1e3
        latencies_ms.extend([per_query_ms] * (hi - lo))
    elapsed = perf_counter() - t_start

    lat = np.asarray(latencies_ms, dtype=np.float64)
    hits = engine.cache.hits - hit0
    misses = engine.cache.misses - miss0
    looked = hits + misses
    return ReplayResult(
        queries=k,
        batches=n_batches,
        elapsed_s=elapsed,
        query_s=query_s,
        qps=(k / query_s) if query_s > 0 else 0.0,
        latency_p50_ms=float(np.percentile(lat, 50)) if k else 0.0,
        latency_p99_ms=float(np.percentile(lat, 99)) if k else 0.0,
        customizations=engine.counters.customizations - cust_n0,
        customize_s=engine.counters.customize_seconds - cust_s0,
        lru_hit_rate=(hits / looked) if looked else 0.0,
        distances=distances,
        engine_stats=engine.stats(),
    )
