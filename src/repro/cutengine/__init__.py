"""The min-cut solve behind natural-cut detection.

:class:`~repro.cutengine.push_relabel.PushRelabelEngine` reports the paper's
single minimum s-t cut for each contracted core/ring subproblem, walking the
constant solve chain ``auto → dinic → edmonds_karp`` when a solver fails
(``auto``: scipy's C max flow on integral capacities, push-relabel
otherwise; every link returns the same source-maximal side).  FlowCutter's
Pareto front lives in :mod:`repro.flow.pareto` and serves the FlowCutter
baseline partitioner only.
"""

from .push_relabel import PushRelabelEngine

__all__ = ["PushRelabelEngine"]
