"""Shared-memory parallel runtime: the run's one executor.

See ``docs/PERFORMANCE.md`` ("Shared-memory parallel runtime") and
``docs/RESILIENCE.md`` for the architecture: :class:`SharedGraph` exports
the CSR arrays once into ``multiprocessing.shared_memory``, and
:class:`ParallelRuntime` owns the worker-process pool that attaches them
zero-copy, every export, and the watchdog for the duration of one PUNCH
run (processes are the only pool: under CPython's GIL threads cannot run
the Python-level solves in parallel).
:func:`resilient_map` dispatches every subproblem map onto that pool (or
inline) with the retry, timeout and degradation policy.
"""

from .pool import ParallelRuntime, lpt_batches, register_graph, resilient_map, resolve_graph
from .shared_graph import AttachedGraph, SharedGraph, SharedGraphHandle, attach_shared_graph

__all__ = [
    "ParallelRuntime",
    "resilient_map",
    "lpt_batches",
    "register_graph",
    "resolve_graph",
    "SharedGraph",
    "SharedGraphHandle",
    "AttachedGraph",
    "attach_shared_graph",
]
