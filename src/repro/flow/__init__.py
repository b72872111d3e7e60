"""Max-flow / minimum s-t cut substrate, and FlowCutter's Pareto front (``pareto.py``)."""

from .bfs_flow import dinic, edmonds_karp
from .mincut import SOLVERS, MinCutResult, min_st_cut
from .network import FlowNetwork, source_maximal_side
from .push_relabel import max_preflow

__all__ = [
    "FlowNetwork",
    "source_maximal_side",
    "max_preflow",
    "dinic",
    "edmonds_karp",
    "min_st_cut",
    "MinCutResult",
    "SOLVERS",
]
