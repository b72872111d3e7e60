"""Persistent worker pool and per-run parallel runtime.

The paper's implementation amortizes its thread fleet across the whole run
("first picks all centers sequentially, then runs each minimum-cut
computation ... in parallel", and multistart/combination in parallel on the
same cores).  This module provides the equivalent for process pools:

- a **graph registry** shared by the driver and its workers: graphs are
  addressed by handle token, resolved to the original object in-process
  (inline runs and thread pools) or lazily attached from shared memory in
  pool workers — so a task pickles a token, never an array;
- :class:`WorkerPool` — one ``ProcessPoolExecutor`` (or
  ``ThreadPoolExecutor``) created **once per run** and reused across
  filtering sweeps, multistart starts, and combination rounds; it is the
  only place in the package that constructs an executor;
- :func:`lpt_batches` — size-aware batch scheduling: subproblems are dealt
  largest-first onto the least-loaded batch (classic LPT), which
  approximates work stealing with plain executor futures;
- :class:`ParallelRuntime` — the per-run object drivers thread through the
  phases: owns the pool and every :class:`~.shared_graph.SharedGraph`
  export, merges worker-side cache counters and profiler spans back into
  the parent, and guarantees cleanup (including when the pool breaks and
  the rest of the run executes inline).
"""

from __future__ import annotations

import contextlib
import heapq
import os
import secrets
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph.graph import Graph
from ..perf.cut_cache import CutCache
from ..perf.timers import get_profiler
from .shared_graph import AttachedGraph, SharedGraph, SharedGraphHandle, attach_shared_graph

__all__ = [
    "WorkerPool",
    "ParallelRuntime",
    "lpt_batches",
    "register_graph",
    "unregister_graph",
    "resolve_graph",
    "worker_cut_cache",
    "in_worker",
]

# ---------------------------------------------------------------------------
# Graph registry (driver process AND pool workers — each process has its own)
# ---------------------------------------------------------------------------

_GRAPHS: Dict[str, Graph] = {}
_ATTACHMENTS: Dict[str, AttachedGraph] = {}
_WORKER_CACHE: Optional[CutCache] = None
_IN_WORKER = False


def register_graph(token: str, g: Graph) -> None:
    """Publish a graph under a handle token (driver side)."""
    _GRAPHS[token] = g


def unregister_graph(token: str) -> None:
    """Remove a token; closes the worker attachment if one exists."""
    _GRAPHS.pop(token, None)
    att = _ATTACHMENTS.pop(token, None)
    if att is not None:
        with contextlib.suppress(Exception):
            att.close()


def resolve_graph(handle: SharedGraphHandle) -> Graph:
    """The graph behind a handle, wherever this code runs.

    In the driver (inline runs and thread pools) the token hits the
    registry entry made at export time — the original object, zero cost.
    In a pool worker the first resolution attaches the shared-memory view
    and caches it, so attachment happens once per worker per graph.
    """
    g = _GRAPHS.get(handle.token)
    if g is not None:
        return g
    if not handle.is_shared:
        raise KeyError(
            f"graph {handle.token!r} is not registered in this process and has "
            "no shared-memory blocks to attach"
        )
    att = attach_shared_graph(handle)
    _ATTACHMENTS[handle.token] = att
    _GRAPHS[handle.token] = att.graph
    return att.graph


def worker_cut_cache(max_entries: int) -> Optional[CutCache]:
    """This process's cut cache (one per worker; ``None`` when disabled)."""
    global _WORKER_CACHE  # repro: noqa(REPRO107) — per-process cache registry
    if max_entries < 1:
        return None
    if _WORKER_CACHE is None:
        _WORKER_CACHE = CutCache(max_entries)
    return _WORKER_CACHE


def in_worker() -> bool:
    """True inside a pool worker process (set by the pool initializer)."""
    return _IN_WORKER


def _worker_init(handles: tuple, profile_enabled: bool) -> None:
    """Pool-worker initializer: fresh registry + eager attachments.

    The inherited (fork) registry refers to parent objects; clearing it
    makes workers always go through shared memory, so behavior is identical
    under fork and spawn start methods.
    """
    global _IN_WORKER, _WORKER_CACHE  # repro: noqa(REPRO107) — initializer resets per-process registries
    _IN_WORKER = True
    _GRAPHS.clear()
    _ATTACHMENTS.clear()
    _WORKER_CACHE = None
    for handle in handles:
        resolve_graph(handle)
    if profile_enabled:
        get_profiler().enabled = True


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
# The persistent pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """A process (or thread) pool that lives for the whole run.

    :func:`repro.runtime.executor.resilient_map` dispatches onto it
    (``kind``, ``executor``, ``supervisor``, ``usable()``, ``mark_broken()``,
    ``health_check()``) without importing this package.  ``workers=None``
    means ``os.cpu_count()``; an explicit count must be positive.
    ``on_broken`` is invoked exactly once when the pool collapses (e.g. a
    worker died) — the owning :class:`ParallelRuntime` uses it to release
    shared-memory segments that no worker can read anymore.
    ``mark_broken`` may race in from several failure sites at once (harvest
    loop, fast-path map, the supervisor watchdog); a lock elects exactly one
    winner to run the shutdown + callback, so the release path stays
    single-shot under concurrency.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        kind: str = "processes",
        handles: Sequence[SharedGraphHandle] = (),
        profile: bool = False,
        on_broken=None,
        supervisor=None,
    ) -> None:
        if kind not in ("processes", "threads"):
            raise ValueError(f"pool kind must be 'processes' or 'threads', got {kind!r}")
        self.kind = kind
        self.workers = (os.cpu_count() or 1) if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (or None for cpu_count), got {workers}")
        self.on_broken = on_broken
        self.supervisor = supervisor
        self._broken = False
        self._broken_lock = threading.Lock()
        if kind == "processes":
            self.executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(tuple(handles), profile),
            )
        else:
            # threads share the driver's registry, profiler, and caches
            self.executor = ThreadPoolExecutor(max_workers=self.workers)

    def usable(self) -> bool:
        return not self._broken

    def mark_broken(self) -> None:
        """Record pool collapse; shuts the executor down and fires on_broken.

        Idempotent and thread-safe: the flag flip and callback hand-off
        happen under a lock, so concurrent callers from different failure
        sites elect exactly one winner; everyone else returns immediately.
        """
        with self._broken_lock:
            if self._broken:
                return
            self._broken = True
            callback, self.on_broken = self.on_broken, None
        with contextlib.suppress(Exception):
            self.executor.shutdown(wait=False, cancel_futures=True)
        if callback is not None:
            callback()

    def health_check(self) -> bool:
        """Supervisor-backed health verdict; marks the pool broken on failure.

        Without an attached supervisor this is just :meth:`usable`.  With
        one, dead workers (liveness scan) and hung pools (heartbeat sentinel
        timeout) are detected *before* work is dispatched, so the caller can
        degrade — or its owner respawn — instead of wedging on a future that
        never completes.  Scheduling-only: the verdict never touches task
        payloads or RNG streams, so determinism is preserved.
        """
        if self._broken:
            return False
        if self.supervisor is None:
            return True
        if not self.supervisor.inspect(self):
            self.mark_broken()
            return False
        return True

    def map_ordered(self, fn, items: Sequence, chunksize: int = 1) -> list:
        """``executor.map`` preserving input order (results re-sequenced)."""
        return list(self.executor.map(fn, items, chunksize=chunksize))

    def shutdown(self, wait: bool = True) -> None:
        if not self._broken:
            self.executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# Per-run runtime
# ---------------------------------------------------------------------------


class ParallelRuntime:
    """One run's parallel context: pool + shared graphs + merged telemetry.

    Created once by a driver (:func:`repro.core.punch.run_punch`,
    :func:`repro.balanced.driver.run_balanced_punch`) from a
    :class:`~repro.core.config.ParallelConfig` and threaded through every
    phase.  ``backend == "serial"`` is a fully valid degenerate runtime: no
    pool, no shared memory, tasks run inline — which is what makes the
    serial/threads/processes determinism contract testable, since all three
    run the *same* task structure.
    """

    def __init__(self, config=None, profile: Optional[bool] = None) -> None:
        from ..core.config import ParallelConfig  # late: config imports runtime pkgs

        self.config = ParallelConfig() if config is None else config
        self.profile = get_profiler().enabled if profile is None else bool(profile)
        self._pool: Optional[WorkerPool] = None
        self._shared: Dict[int, SharedGraph] = {}  # id(graph) -> export
        self._handles: Dict[int, SharedGraphHandle] = {}  # id(graph) -> handle
        self._tokens: List[str] = []
        self._closed = False
        # guards share()/release_shared(): a broken-pool callback can race a
        # concurrent share from another failure site
        self._share_lock = threading.Lock()
        # an attached runtime Supervisor watchdogs the pool and grants
        # respawns after collapses (None = classic degrade-only behavior)
        self.supervisor = None
        # telemetry merged from workers / pool lifecycle
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches_dispatched = 0
        self.pool_breaks = 0
        self.pool_restarts = 0
        self.shared_bytes = 0

    # -- properties ------------------------------------------------------
    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def workers(self) -> Optional[int]:
        return self.config.workers

    def active(self) -> bool:
        """True when a pooled backend is configured (threads/processes)."""
        return self.backend != "serial"

    # -- graph sharing ---------------------------------------------------
    def share(self, g: Graph) -> SharedGraphHandle:
        """Export ``g`` once (processes) or register it locally; memoized.

        The original graph is always registered in the driver's registry so
        thread pools and inline runs — including the fallback after a pool
        break — resolve the handle with zero overhead.
        """
        if self._closed:
            raise RuntimeError("ParallelRuntime is closed")
        key = id(g)
        with self._share_lock:
            handle = self._handles.get(key)
            if handle is not None:
                return handle
            if self.backend == "processes":
                sg = SharedGraph(g)
                handle = sg.handle
                self._shared[key] = sg
                self.shared_bytes += sg.nbytes()
            else:
                handle = SharedGraphHandle(token=f"local-{secrets.token_hex(6)}", n=g.n, m=g.m)
            register_graph(handle.token, g)
            self._handles[key] = handle
            self._tokens.append(handle.token)
            return handle

    def release_shared(self) -> None:
        """Unlink every shared-memory export (driver registry stays intact).

        Called when the process pool breaks: the segments have no readers
        left, and the inline fallback resolves handles through the
        registry, so holding the memory would be a pure leak.  Future
        :meth:`share` calls re-export.  Safe from concurrent failure sites:
        the export map is detached under the lock, so each
        :class:`SharedGraph` is closed exactly once no matter how many
        callers race in.
        """
        with self._share_lock:
            shared, self._shared = self._shared, {}
            # drop handle memoization for shm-backed graphs so share()
            # re-exports
            for key in list(self._handles):
                if key in shared:
                    del self._handles[key]
        for sg in shared.values():
            if not sg.closed:
                sg.close()

    # -- pool ------------------------------------------------------------
    def pool(self) -> Optional[WorkerPool]:
        """The run's pool, created lazily; ``None`` for the serial backend.

        After a collapse, an attached supervisor with restart budget left
        lets the *next* dispatch respawn a fresh pool (a prior
        :meth:`share` re-exports the segments first, since the broken
        pool's exports were released); without one, the broken pool stays
        retired, this returns ``None``, and every later dispatch runs
        inline.  Either way, work is replayed from derived seeds, so the
        partition cannot change.
        """
        if self.backend == "serial" or self._closed:
            return None
        if self._pool is not None and not self._pool.usable():
            if self.supervisor is None or not self.supervisor.grant_restart():
                return None  # broken, no restart budget: the rest runs inline
            self._pool = None
            self.pool_restarts += 1
        if self._pool is None:
            self._pool = WorkerPool(
                workers=self.config.workers,
                kind="processes" if self.backend == "processes" else "threads",
                handles=[sg.handle for sg in self._shared.values()],
                profile=self.profile,
                on_broken=self._on_pool_broken,
                supervisor=self.supervisor,
            )
        return self._pool

    def _on_pool_broken(self) -> None:
        self.pool_breaks += 1
        self.release_shared()

    # -- telemetry merging ----------------------------------------------
    def note_batch(self, stats: Optional[dict]) -> None:
        """Fold one worker batch's counters/spans into the parent."""
        self.batches_dispatched += 1
        if not stats:
            return
        self.cache_hits += int(stats.get("cache_hits", 0))
        self.cache_misses += int(stats.get("cache_misses", 0))
        spans = stats.get("spans")
        if spans:
            get_profiler().merge(spans)

    def report(self) -> dict:
        """Run-report section (empty when nothing parallel happened)."""
        out: dict = {}
        if self.backend != "serial":
            out["backend"] = self.backend
            out["workers"] = (
                self._pool.workers if self._pool is not None
                else (self.workers or os.cpu_count() or 1)
            )
        if self.batches_dispatched:
            out["batches"] = self.batches_dispatched
        if self.cache_hits or self.cache_misses:
            out["worker_cache_hits"] = self.cache_hits
            out["worker_cache_misses"] = self.cache_misses
        if self.shared_bytes:
            out["shared_bytes"] = self.shared_bytes
        if self.pool_breaks:
            out["pool_breaks"] = self.pool_breaks
        if self.pool_restarts:
            out["pool_restarts"] = self.pool_restarts
        return out

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink all segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.on_broken = None
            self._pool.shutdown()
            self._pool = None
        self.release_shared()
        for token in self._tokens:
            unregister_graph(token)
        self._tokens.clear()
        self._handles.clear()

    def active_segment_names(self) -> List[str]:
        """Names of currently-live shared segments (tests / diagnostics)."""
        names: List[str] = []
        for sg in self._shared.values():
            if not sg.closed:
                names.extend(sg.segment_names())
        return names

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
