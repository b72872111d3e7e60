"""Process hygiene: pin native thread pools, and prove nothing outlives a run.

A worker process, thread or shared-memory segment left behind by a run keeps
using the machine's two cores after the run reports, which slows the next
run and its reference kernel alike and so hides a regression.  The run
therefore takes a snapshot before it starts and fails if anything new is
alive when it ends.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List, Set

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SHM_DIR = "/dev/shm"


def pin_native_threads() -> None:
    """Limit BLAS / OpenMP pools to one thread; call before importing numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_native_threads() must run before numpy is imported")
    for var in THREAD_ENV:
        os.environ[var] = "1"


def _child_pids() -> Set[int]:
    pids: Set[int] = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def _native_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _shm_segments() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def snapshot() -> Dict[str, object]:
    """What is alive now: child pids, threads, shared-memory segments."""
    return {
        "children": _child_pids(),
        "threads": {t.ident for t in threading.enumerate()},
        "native_threads": _native_threads(),
        "shm": _shm_segments(),
    }


def leaks(before: Dict[str, object]) -> List[str]:
    """Everything alive now that was not alive at ``before``."""
    now = snapshot()
    out: List[str] = []
    if "multiprocessing" in sys.modules:
        import multiprocessing

        kids = multiprocessing.active_children()
        if kids:
            out.append(f"{len(kids)} multiprocessing child(ren) still alive")
    extra = now["children"] - before["children"]  # type: ignore[operator]
    if extra:
        out.append(f"child process(es) still alive: {sorted(extra)}")
    extra_threads = [
        t.name for t in threading.enumerate() if t.ident not in before["threads"]  # type: ignore[operator]
    ]
    if extra_threads:
        out.append(f"thread(s) still alive: {extra_threads}")
    if now["native_threads"] > before["native_threads"]:  # type: ignore[operator]
        out.append(
            f"{now['native_threads']} native threads, {before['native_threads']} at start"
        )
    new_shm = now["shm"] - before["shm"]  # type: ignore[operator]
    if new_shm:
        out.append(f"shared-memory segment(s) left in {SHM_DIR}: {sorted(new_shm)}")
    return out
