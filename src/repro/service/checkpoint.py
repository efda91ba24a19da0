"""Crash-safe session checkpoints for the streaming service.

A checkpoint is one ``.npz`` per session holding the complete
:meth:`~repro.core.profiler2d.TwoDProfiler.state_dict` plus the number of
events folded into it.  Publication reuses the experiment cache's
primitives (:func:`repro.cachefs.atomic_savez` under an artifact lock),
so a server killed mid-checkpoint leaves either the previous checkpoint
or the new one — never a torn file — and a corrupt checkpoint is treated
as absent (logged, not fatal), the same corruption-as-miss rule the
experiment cache follows.

Resume is exact: ``load_checkpoint`` rebuilds a profiler that continues
byte-identically, and ``events`` tells the client which suffix of its
stream still needs to be sent.
"""

from __future__ import annotations

import logging
import re
import zipfile
from pathlib import Path

import numpy as np

from repro.cachefs import artifact_lock, atomic_savez, sweep_tmp_files
from repro.core.profiler2d import TwoDProfiler
from repro.errors import ExperimentError, ServiceError

log = logging.getLogger(__name__)

#: Bump on any change to the checkpoint file layout.
CHECKPOINT_VERSION = 1

_SUFFIX = ".ckpt.npz"

#: Session names double as file names; keep them to a safe charset.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def validate_session_name(name: str) -> str:
    """Return ``name`` if it is a safe session/checkpoint identifier."""
    if not isinstance(name, str) or not _NAME_RE.match(name) or ".." in name:
        raise ServiceError(f"invalid session name {name!r}")
    return name


def checkpoint_path(directory: str | Path, session_name: str) -> Path:
    """Where ``session_name``'s checkpoint lives under ``directory``."""
    return Path(directory) / f"{validate_session_name(session_name)}{_SUFFIX}"


def save_checkpoint(
    directory: str | Path,
    session_name: str,
    state: dict[str, np.ndarray],
    events_received: int,
) -> Path:
    """Atomically publish a session snapshot; returns the checkpoint path.

    ``state`` is the profiler's :meth:`~repro.core.profiler2d.TwoDProfiler.state_dict`,
    a copy, so the server can take it on its event loop and write it from
    a worker thread while the session keeps going.
    """
    path = checkpoint_path(directory, session_name)
    with artifact_lock(path):
        atomic_savez(path, **state, checkpoint_version=np.int64(CHECKPOINT_VERSION),
                     events_received=np.int64(events_received))
    return path


def load_checkpoint(directory: str | Path, session_name: str) -> tuple[TwoDProfiler, int] | None:
    """Load a session snapshot; ``None`` if absent or unreadable.

    Corruption (truncation, bad zip, wrong version, malformed state) is a
    miss: it is logged and the caller starts the session fresh, exactly
    like a corrupt experiment-cache entry.
    """
    path = checkpoint_path(directory, session_name)
    if not path.exists():
        return None
    try:
        # np.load leaks the handle it opened when the zip is corrupt.
        with open(path, "rb") as fh, np.load(fh) as data:
            state = {key: data[key] for key in data.files}
        version = int(state.pop("checkpoint_version"))
        if version != CHECKPOINT_VERSION:
            raise ExperimentError(f"unsupported checkpoint version {version}")
        events = int(state.pop("events_received"))
        return TwoDProfiler.from_state(state), events
    except (ExperimentError, KeyError, ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        log.warning("corrupt checkpoint %s (%s); starting fresh", path, exc)
        return None


def delete_checkpoint(directory: str | Path, session_name: str) -> bool:
    """Remove a session's checkpoint after a clean close; True if removed."""
    path = checkpoint_path(directory, session_name)
    try:
        path.unlink()
        return True
    except FileNotFoundError:
        return False


def list_checkpoints(directory: str | Path) -> list[str]:
    """Session names with a checkpoint under ``directory`` (sorted)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(p.name[: -len(_SUFFIX)] for p in directory.glob(f"*{_SUFFIX}"))


def sweep_checkpoint_dir(directory: str | Path) -> int:
    """Clear leftover ``*.tmp`` files from a crashed checkpointer."""
    return sweep_tmp_files(directory)
