"""The natural-cut solve: the paper's single min s-t cut per subproblem.

Natural-cut detection (``filtering/natural_cuts.py``) asks one
:class:`PushRelabelEngine` for its solve chain once per contracted
core/ring subproblem and walks it until an attempt returns.  The chain is
the constant :data:`MIN_CUT_SOLVERS`: first ``"auto"`` — scipy's C max flow
when the capacities are integral and their total fits in int32, the Python
push-relabel otherwise, chosen from the input and not a fallback — then
Dinic and Edmonds-Karp as independent fallbacks (``docs/RESILIENCE.md`` §2
item 4).  Every attempt is a pure function of the problem and returns
``(cut_value, source_side_mask)`` over its local vertices, the
source-maximal side whichever link ran, so a fallback marks the same cut, a
:class:`~repro.perf.cut_cache.CutCache` hit equals a fresh solve and every
executor marks the same cuts.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..filtering.cut_problem import CutProblem

__all__ = ["PushRelabelEngine", "MIN_CUT_SOLVERS", "SolveFn"]

#: one attempt at solving a cut problem: ``problem -> (value, source_side)``
SolveFn = Callable[["CutProblem"], Tuple[float, np.ndarray]]

#: flow backends of the min-cut chain, in order: the C max flow or the
#: paper's push-relabel, chosen from the capacities, then the BFS-based
#: reference solvers (slower, but independent code)
MIN_CUT_SOLVERS = ("auto", "dinic", "edmonds_karp")


class PushRelabelEngine:
    """One minimum s-t cut per subproblem (paper Section 2 behavior)."""

    def __init__(self) -> None:
        # local import: filtering imports this package at module load
        from ..filtering.cut_problem import solve_cut_problem_sides

        self._chain = tuple(
            functools.partial(solve_cut_problem_sides, solver=solver)
            for solver in MIN_CUT_SOLVERS
        )

    def solve_chain(self, problem: "CutProblem") -> Tuple[SolveFn, ...]:
        """Ordered solve attempts on ``problem``: the primary first, then fallbacks.

        The chain is the same for every problem; callers look it up per
        subproblem, so wrapping this method sees every solve.
        """
        return self._chain
