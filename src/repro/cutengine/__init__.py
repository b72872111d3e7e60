"""The min-cut solve behind natural-cut detection.

:class:`~repro.cutengine.push_relabel.PushRelabelEngine` reports the paper's
single minimum s-t cut for each contracted core/ring subproblem, walking the
constant solve chain ``push_relabel → dinic → edmonds_karp`` when a solver
fails.  FlowCutter's Pareto front lives in :mod:`repro.flow.pareto` and
serves the FlowCutter baseline partitioner only.
"""

from .push_relabel import PushRelabelEngine

__all__ = ["PushRelabelEngine"]
