"""Crash-consistent checkpoint files for resumable multistart / balanced runs.

A checkpoint is a pickled envelope written via a temporary file and
``os.replace``, so a kill mid-write never corrupts an existing checkpoint.
Format version 2 adds a crash-consistency manifest around the payload::

    {"version": 2, "kind": "multistart" | "balanced",
     "crc": <crc32 of the pickled state bytes>,
     "rng": {"bit_generator": "PCG64", "state_crc": <crc32>} | None,
     "state": <pickled state bytes>}

``kind`` tags the producing loop; loading with the wrong kind — or a future
format version — raises :class:`CheckpointError` rather than resuming
garbage.  The ``crc`` detects truncated or bit-flipped files; the ``rng``
manifest records which bit generator produced the stored stream so a resume
under a different RNG configuration is rejected with a clear error instead
of silently diverging.  Version-1 files (no manifest) still load.

Two layers of corruption handling:

- :func:`load_checkpoint` is strict — any mismatch raises.
- :func:`load_checkpoint_safe` never raises for bad files: it falls back
  through rotated generations (``<path>.bak1``, ``.bak2``, …, written when
  ``save_checkpoint(..., generations=N)`` with ``N > 1``) and degrades to a
  clean fresh start with a surfaced ``RuntimeWarning`` when nothing valid
  remains.  The drivers use this path so a garbled checkpoint can never
  abort a run.

The ``state`` payload is producer-defined but always contains the loop
index, the best-so-far solution, and the numpy bit-generator state, so a
resumed run continues the *same* random sequence it would have followed.
The format is documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_safe",
    "check_resume",
    "rng_state_checksum",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 2

PathLike = Union[str, Path]


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used (corrupt/kind/version/RNG)."""


def rng_state_checksum(bit_generator_state: dict) -> int:
    """Stable CRC32 of a numpy bit-generator state dict.

    Used both in the manifest (integrity of the stored stream) and by the
    drivers to fingerprint the RNG stream position at loop entry, which is a
    pure function of the run's seed configuration.
    """
    return zlib.crc32(pickle.dumps(bit_generator_state, protocol=4)) & 0xFFFFFFFF


def check_resume(state: dict, entry_rng_crc: int, starts: int, seeds: List[int]) -> None:
    """Reject a checkpoint of another seed configuration or start schedule.

    Both drivers fingerprint the RNG stream at loop entry and derive one
    seed per start before any start runs (none for a single start, which
    draws from the caller's RNG).  A checkpoint carries both, and resuming
    under a different seed or start count would silently diverge from both
    runs, so either mismatch raises :class:`CheckpointError`.
    """
    stored_crc = state.get("entry_rng_crc")
    if stored_crc is not None and stored_crc != entry_rng_crc:
        raise CheckpointError(
            "checkpoint was written by a run with a different seed configuration "
            "(RNG entry-state checksum mismatch); resuming would silently diverge "
            "from both runs — pass the original seed or start fresh"
        )
    if "start_seeds" not in state:
        raise CheckpointError(
            "checkpoint has no start schedule (it was written by a sequential "
            "loop this version no longer has); start fresh"
        )
    stored = state.get("starts", len(state["start_seeds"]))
    if stored != starts or [int(s) for s in state["start_seeds"]] != seeds:
        raise CheckpointError(
            f"checkpoint was written for {stored} starts, this run schedules "
            f"{starts}; resuming would replay another start schedule — pass the "
            "original start count or start fresh"
        )


def _rng_manifest(state: dict) -> Optional[dict]:
    """Manifest entry describing the RNG state carried by ``state``."""
    rng_state = state.get("rng_state") if isinstance(state, dict) else None
    if not isinstance(rng_state, dict):
        return None
    return {
        "bit_generator": rng_state.get("bit_generator"),
        "state_crc": rng_state_checksum(rng_state),
    }


def _generation_path(path: Path, gen: int) -> Path:
    """The rotated backup path for generation ``gen`` (1 = newest backup)."""
    return path.with_name(path.name + f".bak{gen}")


def save_checkpoint(
    path: PathLike,
    kind: str,
    state: dict,
    *,
    generations: int = 1,
    fault_plan=None,
    key: int = 0,
) -> None:
    """Atomically write ``state`` (pickle) tagged with ``kind``.

    With ``generations > 1`` the previous checkpoint is rotated to
    ``<path>.bak1`` (and older backups shift down) before the new file
    lands, so a corrupted newest generation can be recovered by
    :func:`load_checkpoint_safe`.  Every rename is atomic; a crash at any
    point leaves at least one valid generation on disk.

    ``fault_plan``/``key`` are the chaos-testing hook: a plan exposing
    ``corrupt_checkpoint(path, key)`` (see :class:`~repro.runtime.chaos.
    ChaosPlan`) is invoked after the write, simulating a torn file.
    """
    if generations < 1:
        raise ValueError("generations must be >= 1")
    path = Path(path)
    state_bytes = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    payload = {
        "version": CHECKPOINT_VERSION,
        "kind": str(kind),
        "crc": zlib.crc32(state_bytes) & 0xFFFFFFFF,
        "rng": _rng_manifest(state),
        "state": state_bytes,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        for gen in range(generations - 1, 1, -1):
            older = _generation_path(path, gen - 1)
            if older.exists():
                os.replace(older, _generation_path(path, gen))
        if generations > 1 and path.exists():
            os.replace(path, _generation_path(path, 1))
        os.replace(tmp, path)
    except BaseException:
        # cleanup of the temp file must not mask the original failure
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if fault_plan is not None:
        corrupt = getattr(fault_plan, "corrupt_checkpoint", None)
        if corrupt is not None:
            corrupt(path, key)


def _verify_rng(payload: dict, state: dict, path: Path, rng) -> None:
    """Cross-check the RNG manifest against the state and the resuming rng."""
    manifest = payload.get("rng")
    if not isinstance(manifest, dict):
        return
    rng_state = state.get("rng_state") if isinstance(state, dict) else None
    if isinstance(rng_state, dict):
        if rng_state_checksum(rng_state) != manifest.get("state_crc"):
            raise CheckpointError(
                f"checkpoint {path} RNG state does not match its manifest "
                "checksum; the file is corrupted"
            )
    if rng is not None:
        expected = type(rng.bit_generator).__name__
        stored = manifest.get("bit_generator")
        if stored is not None and stored != expected:
            raise CheckpointError(
                f"checkpoint {path} was produced with the {stored!r} bit "
                f"generator but this run uses {expected!r}; resuming would "
                "silently diverge from both seed configurations"
            )


def load_checkpoint(path: PathLike, kind: str, *, rng=None) -> Optional[dict]:
    """Load a checkpoint's state; ``None`` when the file does not exist.

    Raises :class:`CheckpointError` when the file is unreadable or fails its
    checksum, was written by a different loop kind, has an unknown format
    version, or (with ``rng`` given) carries a stream from a different bit
    generator than the resuming run's.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as f:
            payload = pickle.load(f)
    except (pickle.UnpicklingError, EOFError, OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or "state" not in payload:
        raise CheckpointError(f"checkpoint {path} has an unexpected shape")
    version = payload.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}; "
            f"this build reads versions 1..{CHECKPOINT_VERSION}"
        )
    if payload.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} was written by a {payload.get('kind')!r} loop, "
            f"not {kind!r}"
        )
    if version == 1:
        return payload["state"]
    state_bytes = payload["state"]
    if not isinstance(state_bytes, bytes):
        raise CheckpointError(f"checkpoint {path} has an unexpected shape")
    if zlib.crc32(state_bytes) & 0xFFFFFFFF != payload.get("crc"):
        raise CheckpointError(
            f"checkpoint {path} failed its checksum (truncated or bit-flipped)"
        )
    try:
        state = pickle.loads(state_bytes)
    except (pickle.UnpicklingError, EOFError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"cannot decode checkpoint {path}: {exc}") from exc
    _verify_rng(payload, state, path, rng)
    return state


def load_checkpoint_safe(
    path: PathLike,
    kind: str,
    *,
    rng=None,
    generations: int = 1,
) -> Tuple[Optional[dict], dict]:
    """Load the newest valid checkpoint generation; never raises for bad files.

    Tries ``path`` first, then the rotated backups ``<path>.bak1`` …
    ``.bak{generations-1}``.  Returns ``(state, recovery)`` where
    ``recovery`` is empty for a clean load, and otherwise records what was
    discarded and where the state came from::

        {"recovered_from": "run.ckpt.bak1",
         "discarded": ["run.ckpt: ... checksum ..."]}       # older gen won
        {"fresh_start": True, "discarded": [...]}           # nothing valid

    Any degradation is additionally surfaced as a ``RuntimeWarning`` so an
    operator watching the run learns that history was lost, while the run
    itself continues — a garbled checkpoint must never crash a resume.
    """
    path = Path(path)
    candidates = [path] + [_generation_path(path, g) for g in range(1, max(1, generations))]
    discarded: List[str] = []
    for pos, cand in enumerate(candidates):
        try:
            state = load_checkpoint(cand, kind, rng=rng)
        except CheckpointError as exc:
            discarded.append(f"{cand.name}: {exc}")
            continue
        if state is None:
            continue  # this generation does not exist
        if pos == 0 and not discarded:
            return state, {}
        recovery = {"recovered_from": cand.name, "discarded": list(discarded)}
        warnings.warn(
            f"checkpoint degraded to generation {cand.name!r}; discarded: "
            + "; ".join(discarded),
            RuntimeWarning,
            stacklevel=2,
        )
        return state, recovery
    if discarded:
        warnings.warn(
            "no valid checkpoint generation found; starting fresh (discarded: "
            + "; ".join(discarded) + ")",
            RuntimeWarning,
            stacklevel=2,
        )
        return None, {"fresh_start": True, "discarded": discarded}
    return None, {}
