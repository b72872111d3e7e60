"""The run's one executor: worker pool, dispatch policy and watchdog.

The paper's implementation amortizes its thread fleet across the whole run
("first picks all centers sequentially, then runs each minimum-cut
computation ... in parallel", and multistart/combination in parallel on the
same cores).  This module provides the equivalent with worker processes —
under CPython's GIL only processes give that speedup, so there is no thread
pool — and is the only place in the package that constructs an executor:

- :func:`lpt_batches` — size-aware batch scheduling: subproblems are dealt
  largest-first onto the least-loaded batch (classic LPT), which
  approximates work stealing with plain executor futures;
- :class:`ParallelRuntime` — the per-run object drivers thread through the
  phases: it creates the ``ProcessPoolExecutor`` once per run, merges
  worker-side profiler spans and counters back into the parent, and — when
  the run's :class:`~repro.core.config.RuntimeConfig` sets ``supervise`` —
  watchdogs its worker processes and respawns a collapsed pool within the
  restart budget;
- :func:`resilient_map` — the one dispatcher: every subproblem map runs on
  the runtime's pool or inline, with the retry, timeout and degradation
  policy of ``docs/RESILIENCE.md``.

Tasks carry their inputs by value (a pickled fragment graph or a batch of
cut subproblems), so a worker needs no state from the driver and a task
replayed inline gets exactly what the pool would have.  Nothing here makes
an algorithmic decision — the runtime only decides *where* work runs and
*when* to give up on a pool — so the bit-identical determinism contract (no
runtime ≡ processes) holds by construction.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from ..core.config import ParallelConfig, RuntimeConfig
from ..perf.timers import get_profiler
from ..runtime.budget import RunBudget
from ..runtime.faults import FaultPlan

__all__ = [
    "ParallelRuntime",
    "ExecutionReport",
    "resilient_map",
    "DEGRADATION_ORDER",
    "lpt_batches",
    "in_worker",
]

T = TypeVar("T")
R = TypeVar("R")

#: execution tiers from most to least parallel: the run's pool, then inline
DEGRADATION_ORDER = ("processes", "serial")

#: backoff ceiling (seconds), jitter fraction on top of it, and jitter seed
BACKOFF_MAX = 1.0
BACKOFF_JITTER = 0.1
RETRY_SEED = 0

#: watchdog: minimum seconds between heartbeat probes (the liveness scan
#: runs on every check regardless; 0 probes every time), and how many
#: healthy heartbeat-sized waits one pending future may outlast before the
#: pool is declared hung (one wedged worker while its siblings respond)
HEARTBEAT_INTERVAL = 2.0
MAX_STALL_BEATS = 3

#: seconds a retired process pool's workers get to exit after SIGTERM
#: before they are SIGKILLed
TERMINATE_GRACE = 2.0

#: exceptions that indict the pool rather than the task
_DEGRADE_ERRORS = (BrokenExecutor, pickle.PicklingError)

_MAX_ERROR_SAMPLES = 8

#: the :class:`ExecutionReport` counters that :meth:`ExecutionReport.absorb` sums
_COUNTERS = (
    "items", "succeeded", "failures", "retries", "timeouts", "skipped",
    "deadline_skipped", "executor_degradations",
)

_IN_WORKER = False


def in_worker() -> bool:
    """True inside a pool worker process (set by the pool initializer)."""
    return _IN_WORKER


def _worker_init(profile_enabled: bool) -> None:
    """Pool-worker initializer: mark the process and mirror the profiler."""
    global _IN_WORKER  # repro: noqa(REPRO107) — initializer marks the worker process
    _IN_WORKER = True
    if profile_enabled:
        get_profiler().enabled = True


def _heartbeat_probe(token: int) -> tuple:
    """Trivial sentinel task: echo the token back with the worker PID."""
    return (os.getpid(), token)


# ---------------------------------------------------------------------------
# Size-aware batch scheduling
# ---------------------------------------------------------------------------


def lpt_batches(costs: Sequence[float], n_batches: int) -> List[List[int]]:
    """Deal item indices largest-first onto the least-loaded batch (LPT).

    Longest-processing-time-first is the classic static approximation of
    work stealing: sorting by estimated cost and always assigning to the
    lightest batch keeps the makespan within 4/3 of optimal.  Deterministic
    (stable sort, ties broken by batch index); empty batches are dropped.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    costs = np.asarray(costs, dtype=np.float64)
    order = np.argsort(-costs, kind="stable")
    batches: List[List[int]] = [[] for _ in range(n_batches)]
    heap = [(0.0, b) for b in range(n_batches)]
    for i in order:
        load, b = heapq.heappop(heap)
        batches[b].append(int(i))
        heapq.heappush(heap, (load + float(costs[i]), b))
    return [b for b in batches if b]


# ---------------------------------------------------------------------------
# Per-run runtime
# ---------------------------------------------------------------------------


class ParallelRuntime:
    """One run's executor: pool + watchdog + telemetry.

    Created once by a driver (:func:`repro.core.punch.run_punch`,
    :func:`repro.balanced.driver.run_balanced_punch`) from the run's
    :class:`~repro.core.config.ParallelConfig` (how many worker processes) and
    :class:`~repro.core.config.RuntimeConfig` (how the pool is watched and
    replaced), and threaded through every phase.  A run without a runtime
    (``parallel=None``) dispatches the *same* tasks inline, which is what
    makes the inline/processes determinism contract testable.

    The pool is created on the first pooled map and reused until
    :meth:`close`.  :meth:`mark_broken` retires it (and stops its
    workers); with ``runtime.supervise`` the next map respawns a fresh
    pool while ``runtime.max_pool_restarts`` allows, otherwise the rest of
    the run executes inline.  The same flag arms the watchdog: the pool gets
    liveness scans plus heartbeat sentinels (timeout
    ``runtime.heartbeat_timeout``) before and while a map waits.  Work is
    always replayed from derived seeds, never from partial state, so none
    of this can change a partition.
    """

    def __init__(
        self, config: Optional[ParallelConfig] = None, runtime: Optional[RuntimeConfig] = None
    ) -> None:
        self.config = ParallelConfig() if config is None else config
        self._policy = RuntimeConfig() if runtime is None else runtime
        self._executor: Optional[ProcessPoolExecutor] = None
        # one winner retires the pool when several failure sites race in
        self._broken = False
        self._broken_lock = threading.Lock()
        self._closed = False
        self._last_beat: Optional[float] = None
        self._hb_token = 0
        # telemetry: run_report()["parallel"]
        self.batches_dispatched = 0
        self.pool_breaks = 0
        self.pool_restarts = 0
        # telemetry: run_report()["supervisor"]
        self.dead_workers_detected = 0
        self.hung_pools_detected = 0
        self.heartbeats_ok = 0

    # -- properties ------------------------------------------------------
    @property
    def workers(self) -> Optional[int]:
        return self.config.workers

    def _retired(self) -> bool:
        """True once the pool broke with no restart left: the rest runs inline."""
        return self._broken and not (
            self._policy.supervise and self.pool_restarts < self._policy.max_pool_restarts
        )

    # -- pool ------------------------------------------------------------
    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The run's pool, created lazily; ``None`` when work must run inline.

        ``None`` after :meth:`close`, and once the pool is retired with no
        restart left.  A retired pool is replaced here — one grant of the
        restart budget — by a fresh one.
        """
        if self._closed or self._retired():
            return None
        if self._broken:
            self.pool_restarts += 1
            self._executor = None
            self._broken = False
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers or os.cpu_count() or 1,
                initializer=_worker_init,
                initargs=(get_profiler().enabled,),
            )
        return self._executor

    def mark_broken(self) -> None:
        """Retire the pool: stop its workers and count the break.

        Idempotent and thread-safe: the flag flips under a lock, so when
        several failure sites race in exactly one runs the shutdown.  The
        pool's workers are terminated, since ``shutdown`` cannot stop a
        running task and a wedged worker would otherwise keep the
        driver from exiting.  Retiring before the first map still counts.
        """
        with self._broken_lock:
            if self._broken:
                return
            self._broken = True
        self.pool_breaks += 1
        executor = self._executor
        if executor is not None:
            procs = _worker_processes(executor)  # shutdown drops the handles
            with contextlib.suppress(Exception):
                executor.shutdown(wait=False, cancel_futures=True)
            _terminate(procs)

    # -- watchdog (supervised runs only) -----------------------------------
    def _healthy(self, executor: ProcessPoolExecutor) -> bool:
        """Watchdog verdict before a map; marks the pool broken on failure.

        Only supervised pools are probed: a liveness scan every time, a
        heartbeat sentinel at most every :data:`HEARTBEAT_INTERVAL` seconds.
        """
        if not self._policy.supervise:
            return True
        if not all(p.is_alive() for p in _worker_processes(executor)):
            self.dead_workers_detected += 1
        elif self._heartbeat_due() and not self._heartbeat(executor):
            self.hung_pools_detected += 1
        else:
            return True
        self.mark_broken()
        return False

    def _heartbeat_due(self) -> bool:
        now = time.monotonic()
        if self._last_beat is not None and now - self._last_beat < HEARTBEAT_INTERVAL:
            return False
        self._last_beat = now
        return True

    def _heartbeat(self, executor: ProcessPoolExecutor) -> bool:
        """Round-trip a sentinel task; False when it times out or errors."""
        self._hb_token += 1
        token = self._hb_token
        try:
            _pid, echoed = executor.submit(_heartbeat_probe, token).result(
                timeout=self._policy.heartbeat_timeout
            )
        except Exception:
            return False
        if echoed != token:
            return False
        self.heartbeats_ok += 1
        return True

    def _await(self, executor: ProcessPoolExecutor, fut: Future, wait: Optional[float]):
        """Harvest one future, heartbeat-slicing the wait when supervised.

        Without a caller timeout a hung worker would wedge the harvest loop
        forever.  On a supervised pool the wait is cut into
        ``heartbeat_timeout``-sized slices with a watchdog check between
        them; a failed check, or a future that outlasts
        :data:`MAX_STALL_BEATS` healthy checks (counted as a hung pool),
        surfaces as an ordinary degrade error.
        """
        if not self._policy.supervise:
            return fut.result(timeout=wait)
        beats = 0
        remaining = wait
        while True:
            slice_ = self._policy.heartbeat_timeout
            if remaining is not None:
                slice_ = min(slice_, remaining)
            try:
                return fut.result(timeout=slice_)
            except FutureTimeoutError:
                if remaining is not None:
                    remaining -= slice_
                    if remaining <= 0:
                        raise  # the caller's own timeout: counts as item timeout
            if not self._healthy(executor):
                raise BrokenExecutor("watchdog: the pool failed its health check while waiting")
            beats += 1
            if beats >= MAX_STALL_BEATS:
                self.hung_pools_detected += 1
                raise BrokenExecutor(
                    f"watchdog: future still pending after {beats} healthy "
                    "heartbeats; declaring the pool hung"
                )

    # -- telemetry merging ----------------------------------------------
    def note_batch(self, stats: Optional[dict]) -> None:
        """Fold one worker batch's profiler spans and counters into the parent."""
        self.batches_dispatched += 1
        if not stats:
            return
        get_profiler().merge(stats.get("spans", {}), stats.get("counters", {}))

    def report(self) -> dict:
        """``run_report()["parallel"]``: worker count, then counters."""
        out: dict = {"workers": self.workers or os.cpu_count() or 1}
        if self.batches_dispatched:
            out["batches"] = self.batches_dispatched
        if self.pool_breaks:
            out["pool_breaks"] = self.pool_breaks
        if self.pool_restarts:
            out["pool_restarts"] = self.pool_restarts
        return out

    def supervisor_report(self) -> dict:
        """``run_report()["supervisor"]`` (empty when unsupervised)."""
        if not self._policy.supervise:
            return {}
        counters = {
            "dead_workers_detected": self.dead_workers_detected,
            "hung_pools_detected": self.hung_pools_detected,
            "heartbeats_ok": self.heartbeats_ok,
            "pool_restarts": self.pool_restarts,
        }
        return {"enabled": True, **{k: v for k, v in counters.items() if v}}

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None and not self._broken:
            self._executor.shutdown(wait=True)
        self._executor = None

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _worker_processes(executor: ProcessPoolExecutor) -> list:
    """Worker process handles of the pool (empty before its first task)."""
    return list((executor._processes or {}).values())


def _terminate(procs: list) -> None:
    """Stop a retired pool's worker processes (SIGTERM, then SIGKILL)."""
    for p in procs:
        with contextlib.suppress(Exception):
            p.terminate()
    deadline = time.monotonic() + TERMINATE_GRACE
    for p in procs:
        with contextlib.suppress(Exception):
            p.join(max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                p.kill()
                p.join(TERMINATE_GRACE)


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


@dataclass
class ExecutionReport:
    """Accounting for one :func:`resilient_map` call.

    ``failures`` counts raised attempts (including ones that later succeeded
    on retry); ``skipped`` counts items that exhausted their attempts and
    ``deadline_skipped`` items never finished because the budget expired —
    both appear as ``None`` in the result list.  ``final_executor`` is
    ``"processes"`` when the pool finished the work, ``"serial"`` when it
    finished inline.
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

    def incidents(self) -> dict:
        """Non-zero resilience counters, for run reports."""
        counters = {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "skipped": self.skipped,
            "deadline_skipped": self.deadline_skipped,
            "executor_degradations": self.executor_degradations,
        }
        return {k: v for k, v in counters.items() if v}

    def any_incident(self) -> bool:
        """True when anything other than clean first-try successes happened."""
        return bool(self.failures or self.incidents())

    def absorb(self, other: "ExecutionReport") -> None:
        """Add another map's accounting to this one (a run-level total)."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.final_executor = other.final_executor
        room = max(0, _MAX_ERROR_SAMPLES - len(self.error_samples))
        self.error_samples.extend(other.error_samples[:room])


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


def _fault_call(fn, item, plan: Optional[FaultPlan], key: int, attempt: int):
    """Module-level task wrapper (stays picklable for process pools).

    Process-site faults (hard kills) fire only inside pool workers.
    """
    if plan is not None:
        if in_worker():
            plan.apply("process", key, attempt)
        plan.apply("worker", key, attempt)
    return fn(item)


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
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    parallel: Optional[ParallelRuntime] = None,
    runtime: Optional[RuntimeConfig] = None,
    budget: Optional[RunBudget] = None,
    timeout: Optional[float] = None,
) -> tuple[List[Optional[R]], ExecutionReport]:
    """Apply ``fn`` to every item with the resilience policy; order preserved.

    Returns ``(results, report)`` where ``results[i]`` is ``fn(items[i])``
    or ``None`` when the item was skipped (attempts exhausted or deadline).
    Never raises for per-item failures.

    Work runs on ``parallel``'s pool, or inline when there is none (no
    runtime, or a pool retired with no restart left).
    When the pool breaks mid-map it is retired — its workers stopped — and
    the unfinished items run inline on the same task inputs.

    ``runtime`` is the run's retry policy (``max_retries``,
    ``backoff_base``, ``fault_plan``; ``None`` = the defaults).
    ``timeout`` bounds each pooled attempt's *wait*; a timed-out attempt is
    abandoned, not stopped (see ``docs/RESILIENCE.md``).
    """
    runtime = RuntimeConfig() if runtime is None else runtime
    max_retries = runtime.max_retries
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    executor = parallel.executor() if parallel is not None else None
    report = ExecutionReport(items=len(items))
    if executor is not None:
        report.final_executor = "processes"
    results: List[Optional[R]] = [None] * len(items)
    if not items:
        return results, report

    backoff = _Backoff(runtime.backoff_base)
    # (index, attempts_used) of items still owed a result
    pending: List[tuple[int, int]] = [(i, 0) for i in range(len(items))]
    if executor is not None:
        pending = _run_pooled(
            parallel, executor, fn, items, pending, results, report, backoff,
            timeout, max_retries, budget, runtime.fault_plan,
        )
        if pending:
            report.final_executor = "serial"
    if pending:
        _run_inline(
            fn, items, pending, results, report, backoff, max_retries, budget, runtime.fault_plan
        )
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
            results[i] = _fault_call(fn, items[i], fault_plan, i, attempt)
            report.succeeded += 1
        except Exception as exc:
            report.record_error(exc)
            if _count_failure(report, attempt, max_retries):
                backoff.sleep(attempt)
                queue.append((i, attempt + 1))


def _count_failure(report, attempt, max_retries) -> bool:
    """Count one failed attempt; True when the item gets another."""
    report.failures += 1
    if attempt < max_retries:
        report.retries += 1
        return True
    report.skipped += 1
    return False


def _degrade(parallel, report, exc, unfinished):
    """Move the unfinished items inline; retire the pool if it broke.

    An unpicklable payload indicts only its own map, so the healthy pool
    stays in service.
    """
    report.executor_degradations += 1
    report.record_error(exc)
    if isinstance(exc, BrokenExecutor):
        parallel.mark_broken()
    return unfinished


def _run_pooled(
    parallel, executor, fn, items, pending, results, report, backoff,
    timeout, max_retries, budget, fault_plan,
):
    """The harvest loop: submit/collect rounds with timeouts and retries.

    One future per pending item; results are harvested in input order, each
    wait bounded by ``timeout``, the budget, and the watchdog.  Failed items
    go to the next round until their attempts run out.  Returns the items
    still owed a result, which is non-empty only when the pool broke (or
    failed its health check) and the rest must run inline.
    """
    if not parallel._healthy(executor):
        # watchdog verdict (the check already retired the pool): replay
        # everything inline from scratch, never from partial state
        report.executor_degradations += 1
        return pending
    queue = list(pending)
    while queue:
        try:
            futures = [
                (i, attempt, executor.submit(_fault_call, fn, items[i], fault_plan, i, attempt))
                for i, attempt in queue
            ]
        except BrokenExecutor as exc:  # the pool broke between rounds
            return _degrade(parallel, report, exc, queue)
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
                results[i] = parallel._await(executor, fut, wait)
                report.succeeded += 1
            except FutureTimeoutError:
                fut.cancel()
                report.timeouts += 1
                if _count_failure(report, attempt, max_retries):
                    retry_round.append((i, attempt + 1))
            except Exception as exc:
                if _is_degrade_error(exc):
                    # the pool cannot run this map: everything not yet
                    # harvested moves inline (no attempt used)
                    rest = futures[pos + 1 :]
                    for _j, _a, f in rest:
                        f.cancel()
                    unfinished = [(i, attempt)] + [(j, a) for j, a, _ in rest]
                    return _degrade(parallel, report, exc, unfinished + retry_round)
                report.record_error(exc)
                if _count_failure(report, attempt, max_retries):
                    backoff.sleep(attempt)
                    retry_round.append((i, attempt + 1))
        queue = retry_round
    return []
