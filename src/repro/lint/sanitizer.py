"""Runtime sanitizer: freeze CSR views, verify RNG parity & invariants.

The static rules in :mod:`.rules` catch hazard *patterns*; this module
catches hazard *instances* while a run executes.  Mirroring
:class:`~repro.perf.timers.PhaseProfiler`, the active sanitizer is
process-global and disabled by default, so instrumented code pays one
attribute check until ``--sanitize`` (or ``REPRO_SANITIZE=1``) turns it on.

Three check families:

- **view freezing** — :meth:`Sanitizer.freeze_graph` sets
  ``writeable=False`` on every CSR array of a :class:`~repro.graph.graph.Graph`,
  so an in-place write anywhere downstream raises immediately at the
  offending line instead of silently changing every holder of the graph;
- **RNG draw parity** — phases declare their draw signature
  (``rng_begin``/``rng_end``); the sanitizer replays the declared draws on a
  clone of the pre-phase bit-generator state and verifies the live generator
  landed in the same state.  This proves each natural-cut sweep consumes
  *exactly* the declared draws, with or without a pool — the
  serial≡parallel contract;
- **partition invariants** — :meth:`Sanitizer.check_partition` re-derives
  cut cost from boundary-edge accounting, checks cell sizes against ``U``
  and cell connectivity, and compares against the cost the phase reported.

Failures are recorded as :class:`SanitizerViolation` entries and surfaced
through ``run_report()["sanitizer"]``; the pytest gate (see
``tests/conftest.py``) fails any test that ends with recorded violations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime — hook sites live below core
    from ..graph.graph import Graph

__all__ = [
    "Sanitizer",
    "SanitizerViolation",
    "get_sanitizer",
    "set_sanitizer",
    "sanitize_enabled",
]

#: Graph array fields frozen by :meth:`Sanitizer.freeze_graph`
_GRAPH_ARRAYS = ("xadj", "adjncy", "eid", "edge_u", "edge_v", "vsize", "ewgt", "coords")

#: a declared RNG draw: method name + positional args, e.g. ("permutation", 1024)
DrawSignature = Tuple[Any, ...]


@dataclass(frozen=True)
class SanitizerViolation:
    """One failed runtime check."""

    phase: str
    kind: str
    message: str

    def as_dict(self) -> Dict[str, str]:
        """JSON-ready form for ``run_report()``."""
        return {"phase": self.phase, "kind": self.kind, "message": self.message}


def _states_equal(a: Any, b: Any) -> bool:
    """Deep-compare two ``bit_generator.state`` payloads.

    The state dict of MT19937 embeds an ndarray, so plain ``==`` would
    raise; compare structurally instead.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return False
        return all(_states_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_states_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


class Sanitizer:
    """Process-global runtime checker; see the module docstring."""

    __slots__ = ("enabled", "violations", "checks", "rng_draws", "frozen_graphs")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.violations: List[SanitizerViolation] = []
        #: check-name -> times executed (all checks, passing or not)
        self.checks: Dict[str, int] = {}
        #: phase -> declared draws verified so far
        self.rng_draws: Dict[str, int] = {}
        self.frozen_graphs: int = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded state (between runs / tests)."""
        self.violations.clear()
        self.checks.clear()
        self.rng_draws.clear()
        self.frozen_graphs = 0

    def _record(self, name: str) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1

    def _fail(self, phase: str, kind: str, message: str) -> None:
        self.violations.append(SanitizerViolation(phase=phase, kind=kind, message=message))

    def report(self) -> Dict[str, Any]:
        """JSON-ready summary for ``run_report()["sanitizer"]``."""
        return {
            "enabled": self.enabled,
            "checks": dict(sorted(self.checks.items())),
            "rng_draws": dict(sorted(self.rng_draws.items())),
            "frozen_graphs": self.frozen_graphs,
            "violations": [v.as_dict() for v in self.violations],
        }

    # ------------------------------------------------------------------
    # view freezing
    # ------------------------------------------------------------------
    def freeze_graph(self, g: "Graph", label: str = "graph") -> "Graph":
        """Set ``writeable=False`` on every array of ``g``; returns ``g``.

        Any later in-place write through these arrays (or a zero-copy view
        of them) raises ``ValueError`` at the offending statement.
        """
        if not self.enabled:
            return g
        # materialize the memoized gather so it is frozen too
        g.half_edge_weights().setflags(write=False)
        for name in _GRAPH_ARRAYS:
            arr = getattr(g, name, None)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        self.frozen_graphs += 1
        self._record(f"freeze.{label}")
        return g

    # ------------------------------------------------------------------
    # RNG draw parity
    # ------------------------------------------------------------------
    def rng_begin(self, rng: np.random.Generator) -> Optional[Dict[str, Any]]:
        """Snapshot the generator state before a phase's declared draws."""
        if not self.enabled:
            return None
        return copy.deepcopy(rng.bit_generator.state)

    def rng_end(
        self,
        phase: str,
        rng: np.random.Generator,
        token: Optional[Dict[str, Any]],
        draws: Sequence[DrawSignature],
    ) -> None:
        """Verify the phase consumed exactly its declared ``draws``.

        ``draws`` is the phase's declared signature — e.g. a natural-cut
        sweep declares ``[("permutation", g.n)]``.  A clone of the
        pre-phase state replays the declaration; if the clone and the live
        generator disagree, the phase drew more, fewer, or different
        values than its contract says, which is exactly the divergence
        that breaks serial≡pooled parity.
        """
        if not self.enabled or token is None:
            return
        self._record(f"rng.{phase}")
        clone_bg = type(rng.bit_generator)()
        clone_bg.state = copy.deepcopy(token)
        clone = np.random.Generator(clone_bg)
        for sig in draws:
            method = str(sig[0])
            getattr(clone, method)(*sig[1:])
        self.rng_draws[phase] = self.rng_draws.get(phase, 0) + len(draws)
        if not _states_equal(clone.bit_generator.state, rng.bit_generator.state):
            declared = ", ".join(
                f"{sig[0]}{tuple(sig[1:])}" for sig in draws
            ) or "<no draws>"
            self._fail(
                phase,
                "rng-parity",
                f"generator state diverged from declared draw signature "
                f"[{declared}]; phase consumed undeclared or missing draws",
            )

    # ------------------------------------------------------------------
    # structural invariants
    # ------------------------------------------------------------------
    def check_fragments(
        self, phase: str, fragment_graph: "Graph", source: "Graph", U: int
    ) -> None:
        """Fragment graph must conserve total size and respect ``U``."""
        if not self.enabled:
            return
        self._record(f"fragments.{phase}")
        if fragment_graph.total_size() != source.total_size():
            self._fail(
                phase,
                "fragment-size",
                f"fragment graph size {fragment_graph.total_size()} != "
                f"input size {source.total_size()}",
            )
        if fragment_graph.n and int(fragment_graph.vsize.max()) > U:
            self._fail(
                phase,
                "fragment-bound",
                f"fragment of size {int(fragment_graph.vsize.max())} exceeds U={U}",
            )

    def check_partition(
        self,
        phase: str,
        graph: "Graph",
        labels: np.ndarray,
        U: Optional[int] = None,
        expected_cost: Optional[float] = None,
        require_connected: bool = True,
    ) -> None:
        """Assert partition invariants after a phase.

        Re-derives the cut cost from boundary-edge accounting (sum of
        ``ewgt`` over edges whose endpoints carry different labels) and
        compares it with the cost the phase reported; checks every cell
        fits in ``U`` and (optionally) induces a connected subgraph —
        rebalancing is allowed to disconnect cells, so the balanced driver
        passes ``require_connected=False`` as the paper permits.
        """
        if not self.enabled:
            return
        from ..core.partition import Partition  # deferred: avoids an import cycle

        self._record(f"partition.{phase}")
        part = Partition(graph, np.asarray(labels))
        if U is not None and not part.respects_bound(U):
            self._fail(
                phase,
                "size-bound",
                f"cell of size {part.max_cell_size()} exceeds U={U}",
            )
        if int(part.cell_sizes.sum()) != graph.total_size():
            self._fail(
                phase,
                "size-accounting",
                f"cell sizes sum to {int(part.cell_sizes.sum())}, "
                f"graph totals {graph.total_size()}",
            )
        if expected_cost is not None and not np.isclose(
            part.cost, expected_cost, rtol=1e-9, atol=1e-6
        ):
            self._fail(
                phase,
                "cost-accounting",
                f"boundary-edge accounting gives cost {part.cost!r}, "
                f"phase reported {expected_cost!r}",
            )
        if require_connected and not part.all_cells_connected():
            bad = int((~part.connected_cells()).sum())
            self._fail(
                phase,
                "disconnected-cell",
                f"{bad} cell(s) do not induce a connected subgraph",
            )


#: the process-global sanitizer; disabled (and therefore near-free) by default
_ACTIVE = Sanitizer(enabled=False)


def get_sanitizer() -> Sanitizer:
    """The process-global sanitizer instrumented code reports into."""
    return _ACTIVE


def set_sanitizer(sanitizer: Sanitizer) -> Sanitizer:
    """Swap the process-global sanitizer; returns the previous one."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = sanitizer
    return prev


def sanitize_enabled() -> bool:
    """Whether the active sanitizer is recording."""
    return _ACTIVE.enabled
