"""Resilient pipeline runtime: budgets, fault-tolerant execution, checkpoints.

The algorithm-engineering literature treats wall-clock budgets and anytime
behaviour as first-class concerns; PUNCH's structure cooperates naturally,
because both phases are built from independently failable units (each
natural-cut min-cut subproblem is solved in isolation, and each multistart
iteration only ever *adds* a candidate).  This package provides the four
pieces that turn that structure into a resilient runtime:

- :mod:`~repro.runtime.budget` — :class:`RunBudget`, a shared deadline with
  cooperative cancellation checkpoints; on expiry each phase returns its
  best-so-far *valid* state instead of raising.
- :mod:`~repro.runtime.executor` — :func:`resilient_map`, the one
  fault-tolerant dispatcher: it runs every item on the run's persistent
  worker pool or inline, with per-item timeouts, bounded retries with
  exponential backoff and seeded jitter, and degradation ``pool -> inline``
  when the pool breaks.
- :mod:`~repro.runtime.checkpoint` — crash-consistent checkpoint files for
  the multistart and balanced loops (checksummed manifest, rotated
  generations, safe degradation), so killed runs can be resumed.
- :mod:`~repro.runtime.faults` — a seeded, deterministic :class:`FaultPlan`
  that injects exceptions, delays, and timeouts so all of the above is
  testable in CI without flaky timing tricks.
- :mod:`~repro.runtime.supervisor` — the execution :class:`Supervisor`:
  worker watchdog (liveness + heartbeat sentinels), pool-restart budget,
  and the orphaned shared-memory reaper.
- :mod:`~repro.runtime.chaos` — :class:`ChaosPlan`, the deterministic chaos
  harness (worker kills, checkpoint corruption, memory pressure).

See ``docs/RESILIENCE.md`` for the full policy description.
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
from .executor import ExecutionReport, resilient_map
from .faults import FaultPlan, InjectedFault
from .supervisor import Supervisor, reap_orphan_segments

__all__ = [
    "RunBudget",
    "ExecutionReport",
    "resilient_map",
    "FaultPlan",
    "InjectedFault",
    "ChaosPlan",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_safe",
    "rng_state_checksum",
    "Supervisor",
    "reap_orphan_segments",
]
