"""Deterministic chaos harness: hard faults on a seeded schedule.

:class:`ChaosPlan` extends :class:`~repro.runtime.faults.FaultPlan` with the
three fault families a supervised run must survive (see
``docs/RESILIENCE.md``):

- **worker kills** — a true ``SIGKILL`` of the worker process at the
  ``"process"`` site (unlike ``crash_rate``'s ``os._exit``, the process gets
  no chance to flush or clean up), which collapses the pool and exercises
  watchdog detection plus executor-tier degradation;
- **checkpoint corruption** — after :func:`~repro.runtime.checkpoint.
  save_checkpoint` writes a file, the plan may truncate it or flip a byte,
  exercising checksum detection and generation fallback on resume;
- **memory pressure** — per-sweep shrinking of the
  :class:`~repro.perf.cut_cache.CutCache`, forcing evictions (safe by
  construction: cache hits are bit-identical to fresh solves, so pressure
  can change only speed, never partitions).

Every decision is a pure function of ``(seed, site, key)``, so a chaos run
is exactly reproducible — the same plan kills the same workers and corrupts
the same checkpoints on every execution, which is what lets the chaos suite
assert bit-identical partitions against a fault-free serial baseline.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from .faults import FaultPlan, InjectedFault, _uniform

__all__ = ["ChaosPlan"]

#: file-corruption modes understood by :meth:`ChaosPlan.corrupt_checkpoint`
_CORRUPT_MODES = ("truncate", "bitflip")


@dataclass(frozen=True)
class ChaosPlan(FaultPlan):
    """Seeded schedule of kills, checkpoint corruption, and memory pressure.

    Attributes (on top of :class:`FaultPlan`)
    -----------------------------------------
    kill_rate : probability that a ``"process"``-site check SIGKILLs the
        worker process — a harder failure than ``crash_rate`` because the
        process cannot run any cleanup.
    checkpoint_corrupt_rate : probability that a checkpoint write (keyed by
        its loop iteration) is corrupted *after* the atomic rename, as a
        crash between write and fsync would.
    checkpoint_corrupt_mode : ``"truncate"`` (keep the first half of the
        file) or ``"bitflip"`` (flip one deterministic byte).
    cache_pressure_rate / cache_pressure_cap : probability that a filtering
        sweep (keyed by index) caps the :class:`~repro.perf.cut_cache.
        CutCache` at ``cache_pressure_cap`` entries, forcing eviction.

    The ``sites`` filter of the base plan applies to the new checks through
    their own site names: ``"process"`` (kills), ``"checkpoint"``, and
    ``"memory"``.
    """

    kill_rate: float = 0.0
    checkpoint_corrupt_rate: float = 0.0
    checkpoint_corrupt_mode: str = "truncate"
    cache_pressure_rate: float = 0.0
    cache_pressure_cap: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("kill_rate", "checkpoint_corrupt_rate", "cache_pressure_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.checkpoint_corrupt_mode not in _CORRUPT_MODES:
            raise ValueError(
                f"checkpoint_corrupt_mode must be one of {_CORRUPT_MODES}, "
                f"got {self.checkpoint_corrupt_mode!r}"
            )
        if self.cache_pressure_cap < 1:
            raise ValueError("cache_pressure_cap must be >= 1")

    # -- worker kills -----------------------------------------------------
    def should_kill(self, site: str, key: int, attempt: int = 0) -> bool:
        """True when this check should SIGKILL the worker process.

        Like :meth:`FaultPlan.should_crash`, kills are exclusive to the
        ``"process"`` site: it is only visited inside pool workers, so the
        driver (and its inline fallback tier) can never kill itself.
        """
        if site != "process":
            return False
        if not self._active(site, attempt) or self.kill_rate <= 0.0:
            return False
        return _uniform(self.seed, "kill:" + site, key, attempt) < self.kill_rate

    def apply(self, site: str, key: int, attempt: int = 0) -> None:
        """Run all injections for one site visit (delay, kill, crash, raise)."""
        d = self.delay(site, key, attempt)
        if d > 0:
            time.sleep(d)
        if self.should_kill(site, key, attempt):  # pragma: no cover - kills the process
            os.kill(os.getpid(), signal.SIGKILL)
        if self.should_crash(site, key, attempt):  # pragma: no cover - kills the process
            os._exit(77)
        if self.should_fail(site, key, attempt):
            raise InjectedFault(f"injected fault at {site}[{key}] attempt {attempt}")

    # -- checkpoint corruption --------------------------------------------
    def corrupt_checkpoint(self, path, key: int) -> str | None:
        """Maybe corrupt the checkpoint file at ``path`` (keyed by iteration).

        Called by :func:`~repro.runtime.checkpoint.save_checkpoint` after the
        atomic rename.  Returns the corruption mode applied, or ``None``.
        Deterministic: the same ``(seed, key)`` always makes the same call.
        """
        if not self._active("checkpoint", 0) or self.checkpoint_corrupt_rate <= 0.0:
            return None
        if _uniform(self.seed, "ckpt:corrupt", key, 0) >= self.checkpoint_corrupt_rate:
            return None
        path = Path(path)
        data = path.read_bytes()
        if not data:
            return None
        if self.checkpoint_corrupt_mode == "truncate":
            path.write_bytes(data[: len(data) // 2])
        else:  # bitflip
            offset = int(_uniform(self.seed, "ckpt:offset", key, 0) * len(data))
            offset = min(offset, len(data) - 1)
            flipped = bytes([data[offset] ^ 0xFF])
            path.write_bytes(data[:offset] + flipped + data[offset + 1 :])
        return self.checkpoint_corrupt_mode

    # -- memory pressure ---------------------------------------------------
    def cache_pressure(self, key: int) -> int | None:
        """Cache cap to apply for sweep ``key`` (``None`` = no pressure)."""
        if not self._active("memory", 0) or self.cache_pressure_rate <= 0.0:
            return None
        if _uniform(self.seed, "mem:pressure", key, 0) < self.cache_pressure_rate:
            return int(self.cache_pressure_cap)
        return None
