"""The warehouse manifest: a JSON snapshot plus an append-only commit log.

The manifest is the store's *only* source of truth — a run or segment
exists exactly when the manifest says so.  It lives in two files:

* ``manifest.json``, the **snapshot**: the whole image as one JSON
  object with a ``generation`` number, published atomically through
  :func:`repro.cachefs.atomic_write_bytes`;
* ``manifest.log``, the **commit log**: records of the form
  ``<u32 length><u32 crc32><JSON body>``, each body one commit's
  additions (its ``generation``, ``next_run``, segments and runs).

Every commit runs under the ``manifest.json.lock`` flock
(:func:`repro.cachefs.artifact_lock`), so concurrent committers
serialize and run ids are allocated in commit order.  A commit that only
adds runs and segments (every ingest) **appends** one record with one
``os.write`` on an ``O_APPEND`` descriptor and an ``fsync``: its cost
does not depend on how many runs are stored.  A commit that removes or
rewrites records (compaction, ``gc --purge-corrupt``), the first commit
to an empty store or one of an older version, and an append that grows the log past
``max(snapshot bytes, FOLD_MIN_BYTES)`` **fold**: they publish a new
snapshot at generation + 1, then replace the log with an empty one.  The
size rule keeps the amortised cost of a commit constant.

Readers apply only log records whose generation matches the snapshot's,
so a crash between a fold's two steps leaves a stale log that is
ignored: its runs are already in the new snapshot.  A final record that
is short or fails its checksum is a torn append that was never
acknowledged; readers stop before it and the next committer truncates
it.  A bad record followed by a valid one is damage and raises
:class:`~repro.errors.StoreError`, as a corrupt snapshot does.

Because segment data is written *before* the commit and is immutable
afterwards (append-only store), kill -9 at any instant leaves one of two
states: the new segment is unreferenced garbage (``gc`` sweeps it), or
it is fully committed.  There is no third state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.cachefs import artifact_lock, atomic_write_bytes
from repro.errors import StoreError
from repro.store.layout import LOG_NAME, STORE_VERSION, RunRecord, SegmentRecord

log = logging.getLogger(__name__)

#: The log is folded into the snapshot once it outgrows max(snapshot, this).
FOLD_MIN_BYTES = 1 << 20

#: Snapshot versions this code reads; version 1 stores have no log, and
#: versions 1 and 2 write a segment's columns as six ``.npy`` files.
READABLE_VERSIONS = (1, 2, STORE_VERSION)

_HEADER = struct.Struct("<II")  # body length, crc32 of the body


@dataclass
class Manifest:
    """In-memory image of the snapshot with the log applied.

    Records are immutable: a commit changes a run by replacing its
    record, which is how the commit tells an append from a fold.  Runs
    are added with :meth:`add_run` and removed with :meth:`remove_run`,
    which keep the dedupe-key index current once it has been built.
    """

    version: int = STORE_VERSION
    generation: int = 0
    next_run: int = 1
    runs: dict[str, RunRecord] = field(default_factory=dict)
    segments: dict[str, SegmentRecord] = field(default_factory=dict)
    #: {dedupe key: run ids in commit order}, built on first use.
    _by_key: dict[tuple, tuple[str, ...]] | None = field(
        default=None, repr=False, compare=False)

    def allocate_run_id(self) -> str:
        run_id = f"r{self.next_run:06d}"
        self.next_run += 1
        return run_id

    def add_run(self, record: RunRecord) -> None:
        self.runs[record.run_id] = record
        if self._by_key is not None:
            key = record.dedupe_key
            self._by_key[key] = self._by_key.get(key, ()) + (record.run_id,)

    def remove_run(self, run_id: str) -> None:
        del self.runs[run_id]
        self._by_key = None

    def run_ids(self, key: tuple) -> tuple[str, ...]:
        """Ids of the runs stored under a dedupe key, oldest first."""
        if self._by_key is None:
            # Filled before it is published: an image is shared by threads.
            by_key: dict[tuple, tuple[str, ...]] = {}
            for run_id, record in self.runs.items():
                stored = record.dedupe_key
                by_key[stored] = by_key.get(stored, ()) + (run_id,)
            self._by_key = by_key
        return self._by_key.get(key, ())

    def add_segment(self, record: SegmentRecord) -> None:
        self.segments[record.uid] = record

    def copy(self) -> "Manifest":
        """A copy whose run and segment maps change independently."""
        return dataclasses.replace(
            self, runs=dict(self.runs), segments=dict(self.segments),
            _by_key=None if self._by_key is None else dict(self._by_key))

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "generation": self.generation,
            "next_run": self.next_run,
            "runs": {run_id: rec.to_json() for run_id, rec in self.runs.items()},
            "segments": {uid: rec.to_json() for uid, rec in self.segments.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Manifest":
        if not isinstance(data, dict):
            raise StoreError("manifest must be a JSON object")
        version = data.get("version")
        if version not in READABLE_VERSIONS:
            raise StoreError(f"unsupported store version {version!r}")
        manifest = cls(version=version, generation=int(data.get("generation", 0)),
                       next_run=int(data.get("next_run", 1)))
        for run_id, rec in data.get("runs", {}).items():
            manifest.runs[run_id] = RunRecord.from_json(rec)
        for uid, rec in data.get("segments", {}).items():
            manifest.segments[uid] = SegmentRecord.from_json(rec)
        return manifest


def _encode_record(generation: int, next_run: int, segments: list[SegmentRecord],
                  runs: list[RunRecord]) -> bytes:
    """One log record: length- and checksum-prefixed JSON of a commit's additions."""
    body = json.dumps({
        "generation": generation,
        "next_run": next_run,
        "segments": [rec.to_json() for rec in segments],
        "runs": [rec.to_json() for rec in runs],
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _record_end(data: memoryview, pos: int) -> int | None:
    """End of the record at ``pos``, or None if it is short or fails its checksum."""
    if len(data) - pos < _HEADER.size:
        return None
    length, crc = _HEADER.unpack_from(data, pos)
    end = pos + _HEADER.size + length
    if length == 0 or end > len(data) or zlib.crc32(data[pos + _HEADER.size:end]) != crc:
        return None
    return end


def _decode_records(data: bytes, path: Path) -> tuple[list[dict], int]:
    """The complete records in ``data`` and the number of bytes they span.

    Stops at a torn final record (short, or failing its checksum with no
    valid record after it); a bad record followed by a valid one raises.
    """
    view = memoryview(data)
    bodies: list[dict] = []
    pos = 0
    while pos < len(view):
        end = _record_end(view, pos)
        if end is None:
            if len(view) - pos >= _HEADER.size:
                after = pos + _HEADER.size + _HEADER.unpack_from(view, pos)[0]
                if after < len(view) and _record_end(view, after) is not None:
                    raise StoreError(f"corrupt manifest log {path}: "
                                     f"bad record at byte {pos}")
            break
        try:
            body = json.loads(bytes(view[pos + _HEADER.size:end]))
        except ValueError as exc:
            raise StoreError(f"corrupt manifest log {path}: {exc}") from exc
        if not isinstance(body, dict):
            raise StoreError(f"corrupt manifest log {path}: record at byte {pos} "
                             "is not a JSON object")
        bodies.append(body)
        pos = end
    return bodies, pos


def _apply(manifest: Manifest, body: dict, path: Path) -> None:
    try:
        for rec in body["segments"]:
            manifest.add_segment(SegmentRecord.from_json(rec))
        for rec in body["runs"]:
            manifest.add_run(RunRecord.from_json(rec))
        manifest.next_run = int(body["next_run"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"corrupt manifest log {path}: malformed record: {exc}") from exc


def _additions(base: Manifest, work: Manifest) -> tuple[list, list] | None:
    """The segments and runs ``work`` adds to ``base``; None if it changes any."""
    added = []
    for before, after in ((base.segments, work.segments), (base.runs, work.runs)):
        if any(after.get(key) is not rec for key, rec in before.items()):
            return None
        added.append([rec for key, rec in after.items() if key not in before])
    return added[0], added[1]


def _parse_snapshot(data: bytes, path: Path) -> Manifest:
    """Decode ``manifest.json`` bytes; anything unparsable is external damage."""
    try:
        return Manifest.from_json(json.loads(data))
    except (ValueError, TypeError) as exc:
        raise StoreError(f"corrupt manifest {path}: {exc}") from exc


class ManifestFile:
    """The snapshot and log at ``path``, with a cached, incrementally read image.

    :meth:`read` re-parses the snapshot only when its identity (inode,
    mtime, size) changed, e.g. after another process folded; otherwise it
    reads just the log bytes appended since the last call.  The cache is
    guarded by a :class:`threading.Lock`, because one instance may serve
    many threads.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.log_path = self.path.with_name(LOG_NAME)
        self._lock = threading.Lock()
        self._snapshot_id: tuple | None = None  # (ino, mtime_ns, size); None: no file
        self._base = Manifest()                 # the snapshot alone
        self._image = self._base                # the snapshot with the log applied
        self._log_ino: int | None = None
        self._offset = 0                        # log bytes applied to the image
        self._stale = False                     # the log holds another generation's records

    def read(self) -> Manifest:
        """The committed image.  It is shared: callers must not change it."""
        with self._lock:
            return self._refresh()

    def _refresh(self) -> Manifest:
        """Bring the cached image up to date with the files (holding ``_lock``)."""
        while True:
            snapshot_id = self._load_snapshot()
            self._read_log()
            if _identity(self.path) == snapshot_id:
                return self._image

    def _load_snapshot(self) -> tuple | None:
        """Re-parse the snapshot if its identity changed; returns the identity."""
        data = None
        try:
            with open(self.path, "rb") as handle:
                snapshot_id = _stat_identity(os.fstat(handle.fileno()))
                if snapshot_id != self._snapshot_id:
                    data = handle.read()
        except FileNotFoundError:
            snapshot_id = None
        except OSError as exc:
            raise StoreError(f"cannot read manifest {self.path}: {exc}") from exc
        if snapshot_id != self._snapshot_id:
            self._base = Manifest() if data is None else _parse_snapshot(data, self.path)
            self._snapshot_id = snapshot_id
            self._log_ino = None  # re-read the log from its start
        return snapshot_id

    def _read_log(self) -> None:
        """Apply the log records appended since the last call."""
        try:
            with open(self.log_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if stat.st_ino != self._log_ino or stat.st_size < self._offset:
                    self._image, self._log_ino, self._offset = self._base, stat.st_ino, 0
                    self._stale = False
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            self._image, self._log_ino, self._offset, self._stale = self._base, None, 0, False
            return
        except OSError as exc:
            raise StoreError(f"cannot read manifest log {self.log_path}: {exc}") from exc
        bodies, consumed = _decode_records(data, self.log_path)
        fresh = [body for body in bodies if body.get("generation") == self._base.generation]
        self._stale |= len(fresh) < len(bodies)
        if fresh:
            image = self._image.copy()  # earlier callers keep their image
            for body in fresh:
                _apply(image, body, self.log_path)
            self._image = image
        self._offset += consumed

    @contextlib.contextmanager
    def commit(self) -> Iterator[Manifest]:
        """Read-modify-write one commit under the store's lock.

        Yields a copy of the image, brought up to date under the lock (so
        a concurrent committer's changes are visible).  On clean exit,
        additions are appended as one log record and anything else folds;
        if the body raises, nothing is written.
        """
        with artifact_lock(self.path):
            with self._lock:
                base = self._refresh()
                seen = (self._snapshot_id, self._log_ino, self._offset)
                fold = self._snapshot_id is None or base.version != STORE_VERSION
                stale = self._stale
            work = base.copy()
            yield work
            added = None if fold else _additions(base, work)
            if added is None:
                self._fold(work)
            elif any(added) or work.next_run != base.next_run:
                record = _encode_record(base.generation, work.next_run, *added)
                self._append(work, record, seen, stale)

    def _append(self, work: Manifest, record: bytes, seen: tuple, stale: bool) -> None:
        """Append one record durably (holding the flock), then maybe fold."""
        snapshot_id, log_ino, offset = seen
        if stale:
            self._reset_log()
        fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            stat = os.fstat(fd)
            if stat.st_ino != log_ino:
                offset = 0  # the log was created or replaced since the refresh
            if stat.st_size != offset:
                os.ftruncate(fd, offset)  # a torn tail nobody acknowledged
            try:
                written = os.write(fd, record)
                if written != len(record):
                    raise OSError(f"short write to {self.log_path}: "
                                  f"{written} of {len(record)} bytes")
                os.fsync(fd)
            except OSError:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, offset)
                raise
        finally:
            os.close(fd)
        size = offset + len(record)
        with self._lock:
            if (self._snapshot_id, self._log_ino, self._offset) == seen:
                self._image, self._log_ino, self._offset = work, stat.st_ino, size
                self._stale = False
        if size > max(snapshot_id[2], FOLD_MIN_BYTES):
            try:
                self._fold(work)
            except (OSError, StoreError) as exc:
                log.warning("manifest log %s not folded (%s); the next commit retries",
                            self.log_path, exc)

    def _fold(self, work: Manifest) -> None:
        """Publish ``work`` as the next generation's snapshot, then empty the log."""
        work = dataclasses.replace(work, version=STORE_VERSION,
                                   generation=work.generation + 1)
        body = json.dumps(work.to_json(), indent=1, sort_keys=True) + "\n"
        atomic_write_bytes(self.path, body.encode("utf-8"))
        try:
            self._reset_log()
        except OSError as exc:
            log.warning("manifest log %s not reset (%s); readers ignore its "
                        "stale records", self.log_path, exc)
        with self._lock:
            self._snapshot_id, self._base, self._image = _identity(self.path), work, work
            self._log_ino, self._offset, self._stale = None, 0, False

    def _reset_log(self) -> None:
        """Replace the log by an empty file: a new inode tells readers to start over."""
        if self.log_path.exists():
            atomic_write_bytes(self.log_path, b"")


def _stat_identity(stat: os.stat_result) -> tuple[int, int, int]:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def _identity(path: Path) -> tuple[int, int, int] | None:
    try:
        return _stat_identity(path.stat())
    except FileNotFoundError:
        return None
