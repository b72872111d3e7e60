"""Parallel runtime: the run's one executor.

See ``docs/PERFORMANCE.md`` ("The parallel runtime") and
``docs/RESILIENCE.md`` for the architecture: :class:`ParallelRuntime` owns
the worker-process pool and its watchdog for the duration of one PUNCH run
(processes are the only pool: under CPython's GIL threads cannot run the
Python-level solves in parallel), and tasks carry their inputs by value.
:func:`resilient_map` dispatches every subproblem map onto that pool (or
inline) with the retry, timeout and degradation policy.
"""

from .pool import ParallelRuntime, lpt_batches, resilient_map

__all__ = [
    "ParallelRuntime",
    "resilient_map",
    "lpt_batches",
]
