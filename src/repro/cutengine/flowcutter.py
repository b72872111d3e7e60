"""FlowCutter as a cut engine: the sparsest point of the Pareto front.

:class:`FlowCutterEngine` runs :func:`~repro.flow.pareto.pareto_front`
(Hamann & Strasser, *Graph Bisection with Pareto-Optimization*) on the
contracted core/ring instance of natural-cut detection and then **selects**
one front point under a sparsity rule (capacity divided by the smaller
side, the same quantity the ring/core construction is implicitly
optimizing): thin, well-balanced natural cuts instead of the leftmost min
cut.  The front is enumerated with unit vertex weights and without an RNG —
piercing takes the smallest local vertex id — so the solve is a pure
function of the problem and the serial ≡ threads ≡ processes contract holds
unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from ..flow.network import FlowNetwork
from ..flow.pareto import ParetoPoint, pareto_front
from .base import CutEngine, SolveFn
from .push_relabel import min_cut_chain
from .registry import register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..filtering.cut_problem import CutProblem

__all__ = ["FlowCutterEngine"]

_S_LOCAL = 0
_T_LOCAL = 1


@register_engine
class FlowCutterEngine(CutEngine):
    """Pareto front of (cut capacity, balance) via incremental piercing."""

    name = "flowcutter"

    #: stop enumerating once a front point reaches this balance (``0.5`` =
    #: a perfectly balanced bisection of the local instance)
    BALANCE_GOAL = 0.5
    #: stop once the flow exceeds this multiple of the minimum cut — beyond
    #: it a cut is too expensive to ever win the sparsity selection
    MAX_CUT_FACTOR = 4.0

    def __init__(self) -> None:
        # safety net: a FlowCutter failure degrades to the paper's min cut
        self._chain = (self.solve, *min_cut_chain())

    def solve(self, problem: "CutProblem") -> Tuple[float, np.ndarray]:
        chosen = self.select(self.enumerate_front(problem))
        return chosen.value, chosen.side

    def solve_chain(self, problem: "CutProblem") -> Tuple[SolveFn, ...]:
        return self._chain

    def select(self, front: List[ParetoPoint]) -> ParetoPoint:
        """Pick the front point to report: min sparsity, then min capacity.

        The tie chain ends on ``source_size`` (deterministic — front points
        have pairwise distinct source sizes by construction).
        """
        if not front:
            raise ValueError("empty Pareto front")
        return min(front, key=lambda p: (p.sparsity, p.value, p.source_size))

    def enumerate_front(self, problem: "CutProblem") -> List[ParetoPoint]:
        """The nondominated (capacity, balance) front of one instance.

        Sorted by balance with capacity strictly increasing; the cheapest
        point's capacity equals the minimum s-t cut value — the
        differential property suite pins this against the push-relabel
        engine.
        """
        n = problem.n_local
        net = FlowNetwork(n, problem.net_u, problem.net_v, problem.net_cap)
        return pareto_front(
            net, _S_LOCAL, _T_LOCAL, np.ones(n), self.BALANCE_GOAL, self.MAX_CUT_FACTOR
        )
