"""The default engine: the paper's single min s-t cut per subproblem.

:class:`PushRelabelEngine` adapts the historical solve path
(:func:`~repro.filtering.cut_problem.solve_cut_problem_sides`) to the
:class:`~repro.cutengine.base.CutEngine` interface.  It is **bit-identical
to the pre-refactor behavior** by construction: the same function is called
with the same arguments in the same fallback order, and the benchmark gate
(``benchmarks/bench_cutengine.py``) pins whole-partition digests against the
pre-refactor anchors to keep it that way.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .base import CutEngine, SolveFn
from .registry import register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..filtering.cut_problem import CutProblem

__all__ = ["PushRelabelEngine", "min_cut_chain"]

#: flow backends of the min-cut chain, in order: the paper's push-relabel,
#: then the BFS-based reference solvers (slower, but independent code)
MIN_CUT_SOLVERS = ("push_relabel", "dinic", "edmonds_karp")


def min_cut_chain() -> Tuple[SolveFn, ...]:
    """One exact min-cut attempt per backend of :data:`MIN_CUT_SOLVERS`."""
    # local import: filtering imports this package at module load
    from ..filtering.cut_problem import solve_cut_problem_sides

    return tuple(
        functools.partial(solve_cut_problem_sides, solver=solver) for solver in MIN_CUT_SOLVERS
    )


@register_engine
class PushRelabelEngine(CutEngine):
    """One minimum s-t cut per subproblem (paper Section 2 behavior)."""

    name = "push_relabel"

    def __init__(self) -> None:
        self._chain = min_cut_chain()

    def solve(self, problem: "CutProblem") -> Tuple[float, np.ndarray]:
        return self._chain[0](problem)

    def solve_chain(self, problem: "CutProblem") -> Tuple[SolveFn, ...]:
        return self._chain
