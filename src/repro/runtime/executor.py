"""Fault-tolerant map over independent subproblems.

:func:`resilient_map` is the one dispatcher behind every subproblem map
(natural-cut sweeps, multistart waves, the balanced driver's starts).  Work
runs in exactly one of two places: on the persistent
:class:`~repro.parallel.pool.WorkerPool` it is handed (the run's pool, from
:meth:`~repro.parallel.pool.ParallelRuntime.pool`), or inline in the calling
thread when it gets none.  It never builds an executor of its own.  The
policy, described in ``docs/RESILIENCE.md``:

- **per-item timeout** — a task that exceeds ``timeout`` seconds counts as a
  failed attempt (pool only; an inline loop cannot preempt).
- **bounded retry** — every item gets ``runtime.max_retries`` extra
  attempts, with exponential backoff and seeded jitter between attempts.
- **degradation** — ``BrokenProcessPool`` / pickling errors re-run
  everything not yet finished inline (*pool → inline*) without consuming
  item attempts.  A broken pool is also marked broken, which retires it for
  the rest of the run; an unpicklable payload indicts only its own map, so
  the healthy pool stays in service.
- **deadline skips** — when a :class:`~repro.runtime.budget.RunBudget`
  expires, unfinished items are skipped (result ``None``) instead of raised.

Items that exhaust their attempts are also skipped, so the caller always
gets a result list of the same length as the input; the paired
:class:`ExecutionReport` accounts for every retry, timeout, skip, and
degradation.  With no timeout, faults, or budget, the pool takes a plain
``executor.map`` fast path, keeping no-fault overhead negligible.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from .budget import RunBudget
from .faults import FaultPlan

__all__ = ["ExecutionReport", "resilient_map", "DEGRADATION_ORDER"]

T = TypeVar("T")

#: execution tiers from most to least parallel: the run's pool, then inline
DEGRADATION_ORDER = ("processes", "serial")

#: retry policy of a run without a ``RuntimeConfig`` (its defaults)
_MAX_RETRIES = 2
_BACKOFF_BASE = 0.05
#: backoff ceiling (seconds), jitter fraction on top of it, and jitter seed
BACKOFF_MAX = 1.0
BACKOFF_JITTER = 0.1
RETRY_SEED = 0

#: exceptions that indict the pool rather than the task
_DEGRADE_ERRORS = (BrokenExecutor, pickle.PicklingError)


def _is_degrade_error(exc: BaseException) -> bool:
    """True when the failure indicts the pool, not the task.

    CPython reports unpicklable callables inconsistently — lambdas defined
    at module scope raise :class:`pickle.PicklingError`, but *local* objects
    (closures, lambdas inside a function) raise ``AttributeError: Can't
    pickle local object`` and some types ``TypeError: cannot pickle`` — so
    the message is consulted for those two types.
    """
    if isinstance(exc, _DEGRADE_ERRORS):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower()

_MAX_ERROR_SAMPLES = 8


@dataclass
class ExecutionReport:
    """Accounting for one :func:`resilient_map` call.

    ``failures`` counts raised attempts (including ones that later succeeded
    on retry); ``skipped`` counts items that exhausted their attempts and
    ``deadline_skipped`` items never finished because the budget expired —
    both appear as ``None`` in the result list.  ``final_executor`` is the
    pool's kind, or ``"serial"`` when the work finished inline.
    """

    final_executor: str = "serial"
    items: int = 0
    succeeded: int = 0
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    skipped: int = 0
    deadline_skipped: int = 0
    executor_degradations: int = 0
    error_samples: List[str] = field(default_factory=list)

    def record_error(self, exc: BaseException) -> None:
        """Keep a bounded sample of failure messages for the run report."""
        if len(self.error_samples) < _MAX_ERROR_SAMPLES:
            self.error_samples.append(f"{type(exc).__name__}: {exc}")

    def any_incident(self) -> bool:
        """True when anything other than clean first-try successes happened."""
        return bool(
            self.failures
            or self.retries
            or self.timeouts
            or self.skipped
            or self.deadline_skipped
            or self.executor_degradations
        )


def _fault_call(fn, item, plan: Optional[FaultPlan], key: int, attempt: int, in_process: bool):
    """Module-level task wrapper (stays picklable for process pools)."""
    if plan is not None:
        if in_process:
            plan.apply("process", key, attempt)
        plan.apply("worker", key, attempt)
    return fn(item)


def _await_future(fut, wait, pool):
    """Harvest one future, heartbeat-slicing the wait on supervised pools.

    Without a caller timeout a hung worker would wedge the harvest loop
    forever.  When the pool carries a supervisor, the wait is cut into
    heartbeat-sized slices; between slices the watchdog inspects the pool
    (liveness scan + sentinel probe) and converts a dead or hung pool into
    an ordinary degrade error.  A single stuck future that survives
    ``max_stall_beats`` healthy probes is treated as a hung pool too, so
    one wedged worker cannot stall the run while its siblings idle.
    """
    sup = pool.supervisor
    if sup is None:
        return fut.result(timeout=wait)
    beats = 0
    remaining = wait
    while True:
        slice_ = sup.heartbeat_timeout
        if remaining is not None:
            slice_ = min(slice_, remaining)
        try:
            return fut.result(timeout=slice_)
        except FutureTimeoutError:
            if remaining is not None:
                remaining -= slice_
                if remaining <= 0:
                    raise  # the caller's own timeout: counts as item timeout
            if not pool.health_check():
                raise BrokenExecutor(
                    "supervisor: pool failed its health check while waiting"
                ) from None
            beats += 1
            if beats >= sup.max_stall_beats:
                pool.mark_broken()
                raise BrokenExecutor(
                    f"supervisor: future still pending after {beats} healthy "
                    "heartbeats; declaring the pool hung"
                ) from None


class _Backoff:
    """Exponential backoff with seeded jitter; sleeps are skipped at base 0."""

    def __init__(self, base: float) -> None:
        self.base = base
        self.rng = np.random.default_rng(RETRY_SEED)

    def sleep(self, attempt: int) -> None:
        if self.base <= 0:
            return
        delay = min(BACKOFF_MAX, self.base * (2.0 ** attempt))
        delay *= 1.0 + BACKOFF_JITTER * float(self.rng.random())
        time.sleep(delay)


def resilient_map(
    fn: Callable[[T], object],
    items: Sequence[T],
    *,
    pool=None,
    runtime=None,
    budget: Optional[RunBudget] = None,
    timeout: Optional[float] = None,
) -> tuple[List[Optional[object]], ExecutionReport]:
    """Apply ``fn`` to every item with the resilience policy; order preserved.

    Returns ``(results, report)`` where ``results[i]`` is ``fn(items[i])``
    or ``None`` when the item was skipped (attempts exhausted or deadline).
    Never raises for per-item failures.

    ``pool`` is the run's :class:`~repro.parallel.pool.WorkerPool` (this
    module must not import the parallel package, so it is not annotated);
    ``None`` or a broken pool runs everything inline.  When the pool breaks
    mid-map, ``pool.mark_broken()`` lets its owner release the shared-memory
    exports no worker can read anymore, and the unfinished items run inline,
    resolving graphs through the in-process registry.

    ``runtime`` is the run's :class:`~repro.core.config.RuntimeConfig`, read
    duck-typed for ``max_retries``, ``backoff_base`` and ``fault_plan``
    (``None`` = its defaults).  ``timeout`` bounds each pooled attempt.
    """
    if runtime is None:
        max_retries, backoff_base, fault_plan = _MAX_RETRIES, _BACKOFF_BASE, None
    else:
        max_retries = runtime.max_retries
        backoff_base = runtime.backoff_base
        fault_plan = runtime.fault_plan
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if pool is not None and not pool.usable():
        pool = None  # retired by an earlier break: the rest of the run is inline
    report = ExecutionReport(final_executor="serial" if pool is None else pool.kind)
    report.items = len(items)
    results: List[Optional[object]] = [None] * len(items)
    if not items:
        return results, report

    backoff = _Backoff(backoff_base)
    # (index, attempts_used) of items still owed a result
    pending: List[tuple[int, int]] = [(i, 0) for i in range(len(items))]
    if pool is not None:
        pending = _run_pooled(
            fn, items, pending, results, report, backoff, pool,
            timeout, max_retries, budget, fault_plan,
        )
        if pending:
            report.final_executor = "serial"
    if pending:
        _run_inline(fn, items, pending, results, report, backoff, max_retries, budget, fault_plan)
    return results, report


def _run_inline(fn, items, pending, results, report, backoff, max_retries, budget, fault_plan):
    """Inline loop with retries; cannot preempt, so no timeout."""
    queue = deque(pending)
    while queue:
        if budget is not None and budget.checkpoint("executor"):
            report.deadline_skipped += len(queue)
            return  # remaining items stay None in the result list
        i, attempt = queue.popleft()
        try:
            results[i] = _fault_call(fn, items[i], fault_plan, i, attempt, False)
            report.succeeded += 1
        except Exception as exc:
            report.failures += 1
            report.record_error(exc)
            if attempt < max_retries:
                report.retries += 1
                backoff.sleep(attempt)
                queue.append((i, attempt + 1))
            else:
                report.skipped += 1


def _degrade(pool, report, exc, unfinished):
    """Move the unfinished items inline; retire the pool if it broke."""
    report.executor_degradations += 1
    report.record_error(exc)
    if isinstance(exc, BrokenExecutor):
        pool.mark_broken()
    return unfinished


def _run_pooled(
    fn, items, pending, results, report, backoff, pool,
    timeout, max_retries, budget, fault_plan,
):
    """Pool tier: submit/collect rounds with timeouts and retry rounds.

    Returns the items still owed a result, which is non-empty only when the
    pool broke (or failed its health check) and the rest must run inline.
    The pool is borrowed, never shut down here.
    """
    if not pool.health_check():
        # watchdog verdict (the check already marked the pool broken):
        # replay everything inline from scratch, never from partial state
        report.executor_degradations += 1
        return pending
    if timeout is None and fault_plan is None and budget is None:
        # fast path: nothing to inject, time, or cancel
        try:
            mapped = list(pool.executor.map(fn, items, chunksize=1))
        except Exception as exc:
            if _is_degrade_error(exc):
                return _degrade(pool, report, exc, pending)
            # a task failed inside the batch: isolate it with the per-item
            # rounds below, on the same pool
        else:
            results[:] = mapped
            report.succeeded += len(items)
            return []

    in_process = pool.kind == "processes"
    queue = list(pending)
    while queue:
        try:
            futures = [
                (i, attempt, pool.executor.submit(
                    _fault_call, fn, items[i], fault_plan, i, attempt, in_process
                ))
                for i, attempt in queue
            ]
        except BrokenExecutor as exc:  # the pool broke between rounds
            return _degrade(pool, report, exc, queue)
        retry_round: List[tuple[int, int]] = []
        for pos, (i, attempt, fut) in enumerate(futures):
            if budget is not None and budget.checkpoint("executor"):
                rest = futures[pos:]
                for _j, _a, f in rest:
                    f.cancel()
                report.deadline_skipped += len(rest) + len(retry_round)
                return []
            try:
                wait = timeout
                if budget is not None:
                    rem = budget.remaining()
                    if rem != float("inf"):
                        wait = rem if wait is None else min(wait, rem)
                results[i] = _await_future(fut, wait, pool)
                report.succeeded += 1
            except FutureTimeoutError:
                fut.cancel()
                report.timeouts += 1
                report.failures += 1
                if attempt < max_retries:
                    report.retries += 1
                    retry_round.append((i, attempt + 1))
                else:
                    report.skipped += 1
            except Exception as exc:
                if _is_degrade_error(exc):
                    # the pool cannot run this map: everything not yet
                    # harvested moves inline (no attempt used)
                    rest = futures[pos + 1 :]
                    for _j, _a, f in rest:
                        f.cancel()
                    unfinished = [(i, attempt)] + [(j, a) for j, a, _ in rest]
                    return _degrade(pool, report, exc, unfinished + retry_round)
                report.failures += 1
                report.record_error(exc)
                if attempt < max_retries:
                    report.retries += 1
                    backoff.sleep(attempt)
                    retry_round.append((i, attempt + 1))
                else:
                    report.skipped += 1
        queue = retry_round
    return []
