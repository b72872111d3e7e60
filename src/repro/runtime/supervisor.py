"""Execution supervisor: watchdog, restart budget, orphaned-segment reaper.

Long-running partition runs must survive three failure families that the
per-item resilience of :func:`~repro.runtime.executor.resilient_map` cannot
see on its own (``docs/RESILIENCE.md`` has the full failure matrix):

- **dead or hung workers** — a SIGKILLed worker surfaces as
  ``BrokenProcessPool`` only when a future is harvested; a *hung* worker
  (e.g. stuck in an unbounded flow solve) never surfaces at all.  The
  :class:`Supervisor` watchdogs the pool: cheap liveness checks on every
  dispatch plus periodic heartbeat sentinel tasks with a timeout.
- **pool collapse mid-run** — the degradation ladder (pool → inline)
  finishes the current map deterministically; the supervisor additionally
  holds a *restart budget* so the next dispatch can respawn a fresh
  process pool instead of running the rest of the job inline.
  Work is always replayed from its derived seeds, never from partial
  state, so respawns cannot change the partition.
- **orphaned shared memory** — a driver killed between exporting a
  :class:`~repro.parallel.shared_graph.SharedGraph` and unlinking it leaks
  ``/dev/shm`` segments.  Every export is recorded in a small on-disk
  ownership registry (owner PID + segment names); :func:`reap_orphan_
  segments` scans it at supervisor startup, unlinks segments whose owner
  is gone, and removes the stale record.

The supervisor never makes algorithmic decisions — it only decides *where*
work runs and *when* to give up on a pool — so the bit-identical
determinism contract (serial ≡ threads ≡ processes) is preserved by
construction.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Supervisor",
    "register_segments",
    "unregister_segments",
    "registered_tokens",
    "reap_orphan_segments",
]


# ---------------------------------------------------------------------------
# Shared-memory ownership registry (sidecar files, one per export)
# ---------------------------------------------------------------------------


def _registry_dir(create: bool = True) -> Path:
    """Directory of ownership records (override: ``REPRO_SHM_REGISTRY``)."""
    base = os.environ.get("REPRO_SHM_REGISTRY", "").strip()
    path = Path(base) if base else Path(tempfile.gettempdir()) / "repro-shm-registry"
    if create:
        with contextlib.suppress(OSError):
            path.mkdir(parents=True, exist_ok=True)
    return path


def _record_path(pid: int, token: str) -> Path:
    return _registry_dir() / f"{pid}-{token}.json"


def register_segments(token: str, names: Sequence[str], pid: Optional[int] = None) -> None:
    """Record this process as the owner of shared-memory segments.

    Called by :class:`~repro.parallel.shared_graph.SharedGraph` at export
    time.  The record is advisory — losing it never breaks a run, it only
    means a crashed owner's segments wait for the OS instead of the reaper.
    """
    pid = os.getpid() if pid is None else int(pid)
    record = {"pid": pid, "token": token, "segments": list(names)}
    with contextlib.suppress(OSError):
        _record_path(pid, token).write_text(json.dumps(record))


def unregister_segments(token: str, pid: Optional[int] = None) -> None:
    """Drop the ownership record for ``token`` (idempotent)."""
    pid = os.getpid() if pid is None else int(pid)
    with contextlib.suppress(OSError):
        _record_path(pid, token).unlink(missing_ok=True)


def registered_tokens(pid: Optional[int] = None) -> List[str]:
    """Tokens currently registered for ``pid`` (tests / leak assertions)."""
    pid = os.getpid() if pid is None else int(pid)
    prefix = f"{pid}-"
    out: List[str] = []
    root = _registry_dir(create=False)
    if not root.is_dir():
        return out
    for entry in sorted(root.iterdir()):
        if entry.name.startswith(prefix) and entry.suffix == ".json":
            out.append(entry.name[len(prefix) : -len(".json")])
    return out


def _pid_alive(pid: int) -> bool:
    """True when a process with this PID exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknown: err on the side of not reaping
    return True


def reap_orphan_segments() -> dict:
    """Unlink segments whose recorded owner process is gone.

    Scans the ownership registry; for every record whose PID no longer
    exists, unlinks the listed segments (attach + unlink — unlinking also
    clears this process's resource-tracker entry) and removes the record.
    Records of live owners are left untouched.  Returns a report dict:
    ``{"reaped_segments": [...], "stale_records": int}``.
    """
    reaped: List[str] = []
    stale = 0
    root = _registry_dir(create=False)
    if not root.is_dir():
        return {"reaped_segments": reaped, "stale_records": stale}
    for entry in sorted(root.glob("*.json")):
        try:
            record = json.loads(entry.read_text())
            pid = int(record["pid"])
            names = [str(n) for n in record.get("segments", [])]
        except (OSError, ValueError, KeyError, TypeError):
            # unreadable record: treat as stale only if clearly abandoned
            # (we cannot know the owner, so never touch segments)
            with contextlib.suppress(OSError):
                entry.unlink()
            stale += 1
            continue
        if _pid_alive(pid):
            continue
        for name in names:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # already gone (finalizer or resource tracker won)
            except OSError:
                continue  # cannot attach: leave it for the OS
            with contextlib.suppress(OSError):
                shm.unlink()
            with contextlib.suppress(OSError):
                shm.close()
            reaped.append(name)
        with contextlib.suppress(OSError):
            entry.unlink()
        stale += 1
    return {"reaped_segments": reaped, "stale_records": stale}


# ---------------------------------------------------------------------------
# Heartbeat sentinel (module-level: must pickle into process pools)
# ---------------------------------------------------------------------------


def _heartbeat_probe(token: int) -> tuple:
    """Trivial sentinel task: echo the token back with the worker PID."""
    return (os.getpid(), token)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class Supervisor:
    """Watchdog + restart budget + reaper for one run's parallel runtime.

    Created by the drivers when ``RuntimeConfig.supervise`` is set and
    attached to the run's :class:`~repro.parallel.pool.ParallelRuntime`.
    Duck-typed against by :class:`~repro.parallel.pool.WorkerPool` (only
    :meth:`inspect` and the counters are consumed there), so the parallel
    package never has to import this module.

    Parameters
    ----------
    heartbeat_timeout : seconds a heartbeat sentinel may take before the
        pool is declared hung.
    heartbeat_interval : minimum seconds between heartbeat probes (liveness
        checks run on every dispatch regardless; 0 probes every time).
    max_pool_restarts : how many fresh process pools may be respawned after
        collapses before the run stays on the degraded tiers.
    max_stall_beats : how many consecutive *healthy* heartbeats a single
        stuck future may survive before the pool is declared hung anyway
        (covers one wedged worker while its siblings stay responsive).
    """

    def __init__(
        self,
        heartbeat_timeout: float = 10.0,
        heartbeat_interval: float = 2.0,
        max_pool_restarts: int = 1,
        max_stall_beats: int = 3,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        if max_stall_beats < 1:
            raise ValueError("max_stall_beats must be >= 1")
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_pool_restarts = int(max_pool_restarts)
        self.max_stall_beats = int(max_stall_beats)
        # counters surfaced through run_report()["supervisor"]
        self.dead_workers_detected = 0
        self.hung_pools_detected = 0
        self.heartbeats_ok = 0
        self.pool_restarts = 0
        self.orphans_reaped = 0
        self.stale_records_removed = 0
        self._hb_token = 0
        self._last_beat: Optional[float] = None
        self._startup_report: Dict[str, object] = {}

    # -- startup -----------------------------------------------------------
    def startup(self) -> dict:
        """Reap orphaned segments left by dead owners; returns the report."""
        report = reap_orphan_segments()
        self.orphans_reaped += len(report["reaped_segments"])
        self.stale_records_removed += int(report["stale_records"])
        self._startup_report = report
        return report

    # -- watchdog ----------------------------------------------------------
    def inspect(self, pool) -> bool:
        """Health verdict for a :class:`WorkerPool` (True = keep using it).

        Thread pools share the driver process and cannot die independently,
        so only process pools are probed.  A ``False`` verdict means the
        caller should ``mark_broken()`` the pool; the resilience ladder (or
        a granted restart) takes it from there.  Scheduling-only: the
        verdict never influences task payloads or RNG streams.
        """
        if getattr(pool, "kind", "threads") != "processes":
            return True
        if not self._workers_alive(pool):
            self.dead_workers_detected += 1
            return False
        if not self._heartbeat_due():
            return True
        if not self._heartbeat(pool):
            self.hung_pools_detected += 1
            return False
        return True

    def _workers_alive(self, pool) -> bool:
        """Cheap liveness scan over the executor's worker processes."""
        procs = getattr(pool.executor, "_processes", None)
        if not procs:
            return True  # not spawned yet (or private API moved): trust it
        return all(p.is_alive() for p in list(procs.values()))

    def _heartbeat_due(self) -> bool:
        now = time.monotonic()
        if self._last_beat is not None and now - self._last_beat < self.heartbeat_interval:
            return False
        self._last_beat = now
        return True

    def _heartbeat(self, pool) -> bool:
        """Round-trip a sentinel task; False when it times out or errors."""
        self._hb_token += 1
        token = self._hb_token
        try:
            fut = pool.executor.submit(_heartbeat_probe, token)
            _pid, echoed = fut.result(timeout=self.heartbeat_timeout)
        except Exception:
            return False
        if echoed != token:
            return False
        self.heartbeats_ok += 1
        return True

    # -- restart budget ----------------------------------------------------
    def grant_restart(self) -> bool:
        """Consume one pool-restart grant; False once the budget is spent."""
        if self.pool_restarts >= self.max_pool_restarts:
            return False
        self.pool_restarts += 1
        return True

    # -- reporting ---------------------------------------------------------
    def report(self) -> dict:
        """Run-report section (``run_report()["supervisor"]``)."""
        out: Dict[str, object] = {"enabled": True}
        if self.orphans_reaped:
            out["orphans_reaped"] = self.orphans_reaped
        if self.stale_records_removed:
            out["stale_records_removed"] = self.stale_records_removed
        if self.dead_workers_detected:
            out["dead_workers_detected"] = self.dead_workers_detected
        if self.hung_pools_detected:
            out["hung_pools_detected"] = self.hung_pools_detected
        if self.heartbeats_ok:
            out["heartbeats_ok"] = self.heartbeats_ok
        if self.pool_restarts:
            out["pool_restarts"] = self.pool_restarts
        return out
