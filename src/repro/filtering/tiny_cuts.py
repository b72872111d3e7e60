"""Tiny-cut detection: the three contraction passes of paper Section 2.

1. Contract block-cut-tree subtrees of size <= U (plus the tau-merge).
2. Contract degree-2 chains of size <= U.
3. Contract small components cut off by 2-cut equivalence classes.

Each pass computes a label array on the current graph and contracts through
the shared :class:`~repro.graph.contraction.ContractionChain`, so the
composite original-to-fragment mapping is maintained for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.contraction import ContractionChain
from ..perf.timers import profile_span
from ..runtime.budget import RunBudget
from .onecuts import OneCutStats, one_cut_labels
from .paths import PathStats, degree_two_labels
from .twocut_pass import TwoCutStats, two_cut_pass_labels

__all__ = ["TinyCutStats", "run_tiny_cuts"]


@dataclass
class TinyCutStats:
    """Vertex counts and per-pass counters for tiny-cut detection."""
    n_before: int = 0
    n_after_pass1: int = 0
    n_after_pass2: int = 0
    n_after_pass3: int = 0
    pass1: OneCutStats = field(default_factory=OneCutStats)
    pass2: PathStats = field(default_factory=PathStats)
    pass3: TwoCutStats = field(default_factory=TwoCutStats)
    passes_run: int = 3
    deadline_expired: bool = False  # later passes skipped on budget expiry


def run_tiny_cuts(
    chain: ContractionChain,
    U: int,
    tau: int = 5,
    rng: np.random.Generator | None = None,
    budget: RunBudget | None = None,
) -> TinyCutStats:
    """Run passes 1-3 on ``chain.current``, contracting in place.

    The chain is advanced after each pass; ``chain.current`` ends up being
    the tiny-cut-contracted graph on which natural cuts are detected.

    Each pass is a cooperative cancellation point: when ``budget`` expires
    the remaining passes are skipped.  The chain is valid after every pass
    (each pass only contracts groups of size <= U), so stopping early just
    yields a less-contracted — but correct — graph.
    """
    stats = TinyCutStats(n_before=chain.current.n)
    stats.passes_run = 0

    if budget is not None and budget.checkpoint("tiny_cuts_pass1"):
        stats.deadline_expired = True
        stats.n_after_pass1 = stats.n_after_pass2 = stats.n_after_pass3 = chain.current.n
        return stats
    with profile_span("tiny_cuts.pass1_onecuts"):
        labels, stats.pass1 = one_cut_labels(chain.current, U, tau=tau)
        chain.apply(labels)
    stats.n_after_pass1 = chain.current.n
    stats.passes_run = 1

    if budget is not None and budget.checkpoint("tiny_cuts_pass2"):
        stats.deadline_expired = True
        stats.n_after_pass2 = stats.n_after_pass3 = chain.current.n
        return stats
    with profile_span("tiny_cuts.pass2_paths"):
        labels, stats.pass2 = degree_two_labels(chain.current, U)
        chain.apply(labels)
    stats.n_after_pass2 = chain.current.n
    stats.passes_run = 2

    if budget is not None and budget.checkpoint("tiny_cuts_pass3"):
        stats.deadline_expired = True
        stats.n_after_pass3 = chain.current.n
        return stats
    with profile_span("tiny_cuts.pass3_twocuts"):
        labels, stats.pass3 = two_cut_pass_labels(chain.current, U, rng=rng)
        chain.apply(labels)
    stats.n_after_pass3 = chain.current.n
    stats.passes_run = 3
    return stats
