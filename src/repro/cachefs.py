"""Crash-safe cache filesystem primitives.

The experiment cache is shared by concurrent worker processes (see
:mod:`repro.core.parallel`) and must survive workers being killed at any
instant.  Three rules make it safe:

* **Atomic publication** — artifacts are written to a temporary file in
  the destination directory and published with :func:`os.replace`, so a
  reader can never observe a half-written ``.npz``.  A killed writer
  leaves only a ``*.tmp`` file, which no loader ever opens.
* **Per-artifact locks** — writers serialize on a ``<artifact>.lock``
  sidecar via ``flock``, so two processes asked for the same missing
  artifact compute it once instead of racing (the loser of the lock
  re-checks the cache before recomputing).  Lock files are empty and are
  deliberately never unlinked: removing a lock file while another
  process holds its descriptor would let a third process lock a fresh
  inode and break mutual exclusion.
* **Corruption is a miss** — loaders treat unreadable entries as absent
  (see ``ExperimentRunner``), recompute, and atomically overwrite.

``flock`` is gated so the module still imports on platforms without
``fcntl``; there the lock degrades to a no-op, which only costs duplicate
work — atomic publication alone keeps the cache consistent.
"""

from __future__ import annotations

import contextlib
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from repro.obs import get_registry, get_tracer

try:  # pragma: no cover - fcntl is present on every POSIX platform.
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

log = logging.getLogger(__name__)

#: Suffix of in-flight temporary files; loaders and sweepers key off it.
TMP_SUFFIX = ".tmp"

#: Suffix of lock sidecar files.
LOCK_SUFFIX = ".lock"


def _observe_publish(seconds: float) -> None:
    get_registry().histogram("cachefs_publish_seconds").observe(seconds)


def _atomic_publish(path: str | Path, write: Callable[[BinaryIO], object]) -> Path:
    """The publication protocol: ``write`` a ``*.tmp`` sibling, fsync, rename.

    If this process dies mid-write, ``path`` is untouched and only a
    ``*.tmp`` file remains; any exception unlinks the tmp file.  Returns
    ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def atomic_savez(path: str | Path, **arrays) -> None:
    """Write a compressed ``.npz`` so that ``path`` is all-or-nothing."""
    with get_tracer().span("cachefs.publish", cat="cachefs", artifact=Path(path).name) as sp:
        start = time.perf_counter()
        path = _atomic_publish(path, lambda handle: np.savez_compressed(handle, **arrays))
        _observe_publish(time.perf_counter() - start)
        sp.set("bytes", path.stat().st_size)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Publish arbitrary bytes with the same all-or-nothing guarantee.

    Used for non-``.npz`` artifacts (e.g. the streaming service's session
    manifest).
    """
    with get_tracer().span("cachefs.publish", cat="cachefs",
                           artifact=Path(path).name, bytes=len(data)):
        start = time.perf_counter()
        _atomic_publish(path, lambda handle: handle.write(data))
        _observe_publish(time.perf_counter() - start)


def lock_path_for(path: str | Path) -> Path:
    """The lock sidecar protecting writes to ``path``."""
    path = Path(path)
    return path.with_name(path.name + LOCK_SUFFIX)


@contextlib.contextmanager
def artifact_lock(path: str | Path) -> Iterator[None]:
    """Exclusive advisory lock over one cache artifact.

    Blocks until the lock is available.  Reentrant use from the same
    process on *different* artifacts is fine; the runner only ever nests
    sim-lock -> trace-lock, so lock ordering is acyclic.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback.
        yield
        return
    lock_file = lock_path_for(path)
    lock_file.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_file, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        with get_tracer().span("cachefs.lock_wait", cat="cachefs",
                               artifact=Path(path).name):
            start = time.perf_counter()
            fcntl.flock(fd, fcntl.LOCK_EX)
            get_registry().histogram("cachefs_lock_wait_seconds").observe(
                time.perf_counter() - start)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def sweep_tmp_files(directory: str | Path) -> int:
    """Remove leftover ``*.tmp`` files from crashed writers; return count.

    Safe to call while other writers are active only at points where no
    writer can be mid-publication in ``directory`` (the parallel engine
    calls it before submitting any work).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for leftover in directory.glob(f"*{TMP_SUFFIX}"):
        with contextlib.suppress(OSError):
            leftover.unlink()
            removed += 1
    if removed:
        log.info("swept %d stale tmp file(s) from %s", removed, directory)
    return removed
