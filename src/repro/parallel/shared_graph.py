"""Zero-copy graph sharing over ``multiprocessing.shared_memory``.

The paper's PUNCH runs every min-cut computation of a sweep in parallel on
one shared in-memory graph.  CPython process pools normally lose that free
sharing: a task closure that references the :class:`~repro.graph.graph.Graph`
re-pickles every CSR array into every task.  :class:`SharedGraph` restores
the shared-memory model:

- the owner process exports all CSR arrays (plus the memoized
  ``half_edge_weights()`` gather) **once** into named shared-memory blocks;
- the picklable :class:`SharedGraphHandle` (block names, dtypes, shapes —
  a few hundred bytes) travels to workers instead of the arrays;
- workers rehydrate the handle into **read-only zero-copy NumPy views**
  backed by the same physical pages, via :func:`attach_shared_graph`.

Lifecycle: the owner is a context manager; segments are additionally
guarded by a ``weakref.finalize`` so they are unlinked when the owner is
garbage-collected or the interpreter exits, even if ``close()`` was never
called (e.g. the driver crashed mid-run).  Workers only ever ``close()``
their attachments — unlinking is exclusively the owner's job — and worker
attachments are never registered with the ``resource_tracker`` so a
crashed or exiting worker neither unlinks a live segment nor warns about
"leaked" memory it does not own.

A driver killed outright runs no finalizer, so every export is also
recorded in a small on-disk **ownership registry** (owner PID + segment
names, one JSON file per export under ``$REPRO_SHM_REGISTRY``).
:func:`reap_orphan_segments` — run when a supervised run starts — unlinks
the segments of owners that are gone and removes their stale records.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import tempfile
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
import weakref

import numpy as np

from ..graph.graph import Graph

__all__ = [
    "SharedGraph",
    "SharedGraphHandle",
    "AttachedGraph",
    "attach_shared_graph",
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

    Called by :class:`SharedGraph` at export time.  The record is advisory — losing it never breaks a run, it only
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
# Owner-side export and worker-side attachment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable reference to an exported graph.

    ``blocks`` maps each array field to its shared-memory block:
    ``(field, block_name, dtype_str, shape)``.  An empty ``blocks`` tuple
    marks a *local* handle (a retired pool's inline fallback): it resolves
    through the in-process registry and can never be rehydrated in another process.
    """

    token: str
    n: int
    m: int
    blocks: Tuple[Tuple[str, str, str, tuple], ...] = ()

    @property
    def is_shared(self) -> bool:
        """True when the handle is backed by shared-memory blocks."""
        return bool(self.blocks)

    def block_names(self) -> List[str]:
        """Names of the shared-memory segments (empty for local handles)."""
        return [name for _, name, _, _ in self.blocks]


@contextlib.contextmanager
def _untracked_attach():
    """Attach without registering with the resource tracker.

    Attaching registers the segment with the resource tracker just like
    creating does, making the tracker treat every worker as a co-owner:
    worker exits would unlink segments the owner still uses (or warn about
    "leaks").  Unregistering *after* the fact is no better — under fork the
    tracker process is shared, so a worker's unregister erases the owner's
    registration and the owner's eventual ``unlink()`` then trips a
    KeyError inside the tracker.  Suppressing registration during the
    attach (Python 3.13's ``track=False``, backported) keeps the tracker's
    view exactly what it should be: one owner, one registration.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _register(name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = _register
    try:
        yield
    finally:
        resource_tracker.register = original


def _release_segments(segments: List[shared_memory.SharedMemory], token: str = "") -> None:
    """Owner-side cleanup: close and unlink every block (idempotent).

    Also drops the export's ownership-registry record so the orphan reaper
    never sees live segments as reclaimable.
    """
    for shm in segments:
        with contextlib.suppress(Exception):
            shm.close()
        with contextlib.suppress(Exception):
            shm.unlink()
    segments.clear()
    if token:
        unregister_segments(token)


class SharedGraph:
    """Owner of one graph's shared-memory export (see module docstring).

    Usage::

        with SharedGraph(g) as sg:
            pool.submit(task, sg.handle, ...)

    ``close()`` (or leaving the ``with`` block) unlinks every segment; a
    second explicit ``close()`` raises, catching double-free bugs early.
    The finalizer makes cleanup crash-safe, not optional.
    """

    def __init__(self, g: Graph) -> None:
        token = f"sg-{secrets.token_hex(6)}"
        self._segments: List[shared_memory.SharedMemory] = []
        blocks = []
        try:
            for field, arr in g.shared_arrays().items():
                arr = np.ascontiguousarray(arr)
                # zero-length arrays (m == 0) still need a valid segment
                shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
                if arr.size:
                    np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
                self._segments.append(shm)
                blocks.append((field, shm.name, arr.dtype.str, tuple(arr.shape)))
        except Exception:
            _release_segments(self._segments, token)
            raise
        self.handle = SharedGraphHandle(token=token, n=g.n, m=g.m, blocks=tuple(blocks))
        self._closed = False
        # ownership record: a crashed owner's segments can be identified
        # (PID gone) and unlinked by the next supervised run
        register_segments(token, self.handle.block_names())
        # crash safety: unlink on GC / interpreter exit even without close()
        self._finalizer = weakref.finalize(self, _release_segments, self._segments, token)

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> List[str]:
        """Names of the owned segments (for leak assertions in tests)."""
        return self.handle.block_names()

    def nbytes(self) -> int:
        """Total bytes held in shared memory."""
        return sum(shm.size for shm in self._segments)

    def close(self) -> None:
        """Unlink all segments.  Raises on double close."""
        if self._closed:
            raise RuntimeError("SharedGraph is already closed")
        self._closed = True
        self._finalizer()  # runs _release_segments exactly once

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self.close()


class AttachedGraph:
    """A worker-side zero-copy view of an exported graph.

    ``graph`` is a :class:`Graph` whose arrays are read-only views into the
    owner's shared-memory blocks; no CSR data is copied.  ``close()`` only
    detaches the local mapping — the owner remains responsible for
    unlinking — and raises on double close.
    """

    def __init__(self, handle: SharedGraphHandle) -> None:
        if not handle.is_shared:
            raise ValueError(
                f"handle {handle.token!r} is local-only (no shared-memory blocks); "
                "it cannot be attached from another process"
            )
        self.handle = handle
        self._segments: List[shared_memory.SharedMemory] = []
        arrays: Dict[str, np.ndarray] = {}
        try:
            for field, name, dtype, shape in handle.blocks:
                with _untracked_attach():
                    shm = shared_memory.SharedMemory(name=name)
                self._segments.append(shm)
                view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
                view.setflags(write=False)
                arrays[field] = view
        except Exception:
            self._detach()
            raise
        self.graph = Graph.from_shared_arrays(arrays)
        self._closed = False

    def _detach(self) -> None:
        for shm in self._segments:
            with contextlib.suppress(Exception):
                shm.close()
        self._segments.clear()

    def close(self) -> None:
        """Detach the views.  Raises on double close; never unlinks."""
        if getattr(self, "_closed", True):
            raise RuntimeError("AttachedGraph is already closed")
        self._closed = True
        # the Graph holds views into the buffers; drop our reference first
        self.graph = None
        self._detach()


def attach_shared_graph(handle: SharedGraphHandle) -> AttachedGraph:
    """Rehydrate a handle into a zero-copy read-only graph view."""
    return AttachedGraph(handle)
