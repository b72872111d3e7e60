"""Resilient pipeline runtime: budgets, checkpoints, fault injection.

The algorithm-engineering literature treats wall-clock budgets and anytime
behaviour as first-class concerns; PUNCH's structure cooperates naturally,
because both phases are built from independently failable units (each
natural-cut min-cut subproblem is solved in isolation, and each multistart
iteration only ever *adds* a candidate).  This package provides the pieces
that turn that structure into a resilient runtime:

- :mod:`~repro.runtime.budget` — :class:`RunBudget`, a shared deadline with
  cooperative cancellation checkpoints; on expiry each phase returns its
  best-so-far *valid* state instead of raising.
- :mod:`~repro.runtime.checkpoint` — crash-consistent checkpoint files for
  the multistart and balanced loops (checksummed manifest, rotated
  generations, safe degradation), so killed runs can be resumed.
- :mod:`~repro.runtime.faults` — a seeded, deterministic :class:`FaultPlan`
  that injects exceptions, delays, and timeouts so all of the above is
  testable in CI without flaky timing tricks.
- :mod:`~repro.runtime.chaos` — :class:`ChaosPlan`, the deterministic chaos
  harness (worker kills, checkpoint corruption, memory pressure).

The policies that act on the worker pool — per-item timeouts, bounded
retries with seeded backoff, degradation ``pool -> inline``, the worker
watchdog and the pool-restart budget — live with the pool itself, in
:func:`repro.parallel.pool.resilient_map` and
:class:`repro.parallel.pool.ParallelRuntime`.  See ``docs/RESILIENCE.md``
for the full policy description.
"""

from .budget import RunBudget
from .chaos import ChaosPlan
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_checkpoint_safe,
    rng_state_checksum,
    save_checkpoint,
)
from .faults import FaultPlan, InjectedFault

__all__ = [
    "RunBudget",
    "FaultPlan",
    "InjectedFault",
    "ChaosPlan",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_safe",
    "rng_state_checksum",
]
