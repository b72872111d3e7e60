"""The complete filtering phase: tiny cuts -> natural cuts -> fragments.

Output is the *fragment graph* (paper Fig. 2, right): each vertex is a
fragment of size <= U, each edge bundles the input edges between two
fragments.  Any partition of the fragment graph projects back to a partition
of the input with identical cost, which is exactly what the assembly phase
relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.config import FilterConfig, RuntimeConfig
from ..graph.contraction import ContractionChain
from ..graph.graph import Graph
from ..lint.sanitizer import get_sanitizer
from ..perf.cut_cache import CutCache
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from .fragments import FragmentStats, fragment_labels
from .natural_cuts import NaturalCutStats, detect_natural_cuts
from .tiny_cuts import TinyCutStats, run_tiny_cuts

__all__ = ["FilterResult", "run_filtering"]


@dataclass
class FilterResult:
    """Everything the assembly phase needs, plus instrumentation.

    Attributes
    ----------
    fragment_graph : the contracted graph of fragments.
    map : per-input-vertex fragment id (compose with a fragment labeling to
        get the final partition of the input).
    tiny_stats / natural_stats / fragment_stats : per-stage counters.
    time_tiny / time_natural : wall-clock seconds per stage (the paper's
        "tny" and "nat" columns).
    """

    fragment_graph: Graph
    map: np.ndarray
    tiny_stats: Optional[TinyCutStats]
    natural_stats: Optional[NaturalCutStats]
    fragment_stats: FragmentStats
    time_tiny: float = 0.0
    time_natural: float = 0.0

    @property
    def reduction_factor(self) -> float:
        """Input vertices per fragment (the filtering payoff)."""
        n0 = len(self.map)
        return n0 / max(1, self.fragment_graph.n)

    def run_report(self) -> dict:
        """Resilience incidents of the filtering phase, plus the
        informational ``"filtering"`` section (solve counts)."""
        report: dict = {}
        if self.tiny_stats is not None and self.tiny_stats.deadline_expired:
            report["tiny_deadline_expired"] = True
            report["tiny_passes_run"] = self.tiny_stats.passes_run
        if self.natural_stats is not None:
            report.update(self.natural_stats.incidents())
            report["filtering"] = {
                "problems_solved": self.natural_stats.problems_solved,
                "cut_edges_marked": self.natural_stats.cut_edges_marked,
            }
        cache = self.cache_report()
        if cache:
            report["cut_cache"] = cache
        return report

    def cache_report(self) -> dict:
        """Cut-cache counters (empty dict when the cache was disabled)."""
        ns = self.natural_stats
        if ns is None or (ns.cache_hits == 0 and ns.cache_misses == 0):
            return {}
        total = ns.cache_hits + ns.cache_misses
        return {
            "hits": ns.cache_hits,
            "misses": ns.cache_misses,
            "hit_rate": ns.cache_hits / total,
        }


def run_filtering(
    g: Graph,
    U: int,
    config: FilterConfig | None = None,
    rng: np.random.Generator | None = None,
    runtime: RuntimeConfig | None = None,
    budget: RunBudget | None = None,
    parallel=None,
    cut_cache: CutCache | None = None,
) -> FilterResult:
    """Run the filtering phase of PUNCH on ``g`` with cell bound ``U``.

    ``runtime``/``budget`` arm the resilience layer (docs/RESILIENCE.md):
    on deadline expiry the phase returns the fragments contracted so far —
    always a valid, size-bounded fragment graph — instead of raising.

    ``parallel`` (a :class:`~repro.parallel.pool.ParallelRuntime`) routes
    natural-cut detection through the run's worker pool; the detected
    cuts — and therefore the fragment graph — are bit-identical to the
    inline path.

    ``cut_cache`` injects a caller-owned (possibly long-lived) cache of
    min-cut solves instead of the fresh per-run :class:`CutCache` made
    here; the incremental update engine uses this to reuse
    untouched-fingerprint entries across successive localized re-filters.
    Cache hits are bit-identical to fresh solves, so injection can change
    only speed, never the fragments.
    """
    config = FilterConfig() if config is None else config
    rng = np.random.default_rng(0) if rng is None else rng
    if U < 1:
        raise ValueError("U must be >= 1")
    if U < int(g.vsize.max(initial=1)):
        raise ValueError("U is smaller than the largest vertex size; infeasible")
    if budget is None and runtime is not None and runtime.time_budget is not None:
        budget = runtime.make_budget()

    # under --sanitize, in-place writes through any view of the input arrays
    # raise at the offending statement instead of corrupting the graph
    san = get_sanitizer()
    san.freeze_graph(g, "filter.input")

    chain = ContractionChain(g)

    tiny_stats = None
    t0 = time.perf_counter()
    if config.detect_tiny_cuts:
        with profile_span("filter.tiny_cuts"):
            tiny_stats = run_tiny_cuts(
                chain,
                U,
                tau=config.tau,
                rng=rng,
                budget=budget,
            )
    time_tiny = time.perf_counter() - t0

    natural_stats = None
    t0 = time.perf_counter()
    if config.detect_natural_cuts:
        if cut_cache is None:
            cut_cache = CutCache()
        with profile_span("filter.natural_cuts"):
            cut_ids, natural_stats = detect_natural_cuts(
                chain.current,
                U,
                alpha=config.alpha,
                f=config.f,
                C=config.coverage,
                rng=rng,
                runtime=runtime,
                budget=budget,
                cut_cache=cut_cache,
                parallel=parallel,
            )
        with profile_span("filter.fragments"):
            labels, frag_stats = fragment_labels(chain.current, cut_ids, U)
            chain.apply(labels)
    else:
        # without natural cuts, fragments are whatever tiny cuts produced;
        # still enforce the size bound so assembly stays feasible
        labels, frag_stats = fragment_labels(chain.current, np.arange(chain.current.m), U)
        chain.apply(labels)
    time_natural = time.perf_counter() - t0

    san.check_fragments("filtering", chain.current, g, U)
    san.freeze_graph(chain.current, "filter.fragments")

    return FilterResult(
        fragment_graph=chain.current,
        map=chain.map,
        tiny_stats=tiny_stats,
        natural_stats=natural_stats,
        fragment_stats=frag_stats,
        time_tiny=time_tiny,
        time_natural=time_natural,
    )
