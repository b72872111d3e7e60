"""The :class:`CutEngine` interface.

Natural-cut detection solves one contracted s-t cut instance per core/ring
subproblem (``filtering/cut_problem.py``).  A :class:`CutEngine` decides
*how the separating cut is chosen*, so that alternative strategies — e.g.
FlowCutter-style Pareto enumeration
(:class:`~repro.cutengine.flowcutter.FlowCutterEngine`) — plug in without
touching the sweep, the executors, or the fragment extraction.

The contract every engine must honor:

- :meth:`CutEngine.solve` returns ``(cut_value, source_side_mask)`` over
  the problem's *local* vertices, with local vertex ``0`` (the contracted
  core) on the source side and local vertex ``1`` (the contracted ring) on
  the sink side.  The mask must describe a valid s-t cut of the merged
  flow network, and ``cut_value`` must equal the total capacity crossing
  it — downstream code recovers the original cut edges via
  :meth:`~repro.filtering.cut_problem.CutProblem.cut_edges_of_side` and
  only ever unions them, so any valid separating cut is safe.
- Solves are **pure functions of the problem**: no RNG, no wall clock, no
  global state.  This is what keeps the serial ≡ threads ≡ processes
  bit-identical contract intact for every engine (the conformance suite in
  ``tests/test_cutengine_conformance.py`` pins it per registered engine).
- :meth:`CutEngine.cache_key` salts the problem's network fingerprint with
  the engine's name.  Two engines may legally return *different* cuts for
  the same network, so a :class:`~repro.perf.cut_cache.CutCache` entry
  written by one engine must never be served to another — per-engine
  keying makes cross-engine hits impossible by construction.
- :meth:`CutEngine.solve_chain` exposes the resilience fallback chain
  (primary solve first, then independent fallbacks); filtering walks it
  attempt by attempt.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..filtering.cut_problem import CutProblem

__all__ = ["CutEngine", "SolveFn"]

#: one attempt at solving a cut problem: ``problem -> (value, source_side)``
SolveFn = Callable[["CutProblem"], Tuple[float, np.ndarray]]


class CutEngine(ABC):
    """Strategy for choosing the separating cut of one contracted instance."""

    #: registry identifier; also the cache-key salt
    name: ClassVar[str] = ""

    def cache_key(self, problem: "CutProblem") -> bytes:
        """Per-engine :class:`~repro.perf.cut_cache.CutCache` key.

        The network fingerprint alone is *not* a safe key across engines:
        equal fingerprints imply equal min-cut values, but engines are free
        to return different (still valid) cuts for the same network.
        """
        return b"\x00".join((problem.fingerprint(), self.name.encode("ascii")))

    @abstractmethod
    def solve(self, problem: "CutProblem") -> Tuple[float, np.ndarray]:
        """Return ``(cut_value, source_side_mask)`` for one instance."""

    @abstractmethod
    def solve_chain(self, problem: "CutProblem") -> Sequence[SolveFn]:
        """Ordered solve attempts on ``problem``: the primary first, then fallbacks.

        The built-in engines build one chain and return it for every
        problem.  Engines that do not use the flow solvers directly still
        end with the min-cut chain as a safety net, so a crashing engine
        degrades to the paper's min cut instead of dropping the subproblem.
        """
