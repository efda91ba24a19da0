"""Segment files: one-file atomic publication and zero-copy memmap reads.

A segment holds the six parallel flat arrays of :mod:`repro.store.layout`
(``SEGMENT_COLUMNS``) in one ``segment.bin``::

    <8-byte magic> <u32 header length> <u32 crc32 of the header>
    <header: JSON list of [column, dtype, byte offset, element count]>
    <zero padding to 64 bytes> <column> <padding to 64> <column> ...

Every column starts on a 64-byte boundary, so a reader maps the file
once and views each column in place: a query that touches one branch's
slab faults in only that slab's pages, never the rest of the file.

Writes follow the :mod:`repro.cachefs` discipline: the file goes to a
``*.tmp`` sibling, is fsynced, and is renamed into place, so a killed
writer leaves only tmp litter and an uncommitted directory, never a
half-written segment behind a committed name.  One file is one fsync,
where the six-file layout of store versions 1 and 2 cost six; those
segments (``acc.npy``, ``slice.npy``, ... in the directory) are still
read, through ``numpy.load(..., mmap_mode="r")``.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.cachefs import _atomic_publish
from repro.errors import StoreError
from repro.store.layout import SEGMENT_COLUMNS, SEGMENT_FILE, RunRecord

_MAGIC = b"2DPSEG03"
_PREFIX = struct.Struct("<8sII")  # magic, header length, crc32 of the header
_ALIGN = 64


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def write_segment(path: str | Path, arrays: dict[str, np.ndarray]) -> int:
    """Publish ``arrays`` (one per column) as one segment file; returns its size."""
    columns = [(key, np.ascontiguousarray(arrays[key], dtype=dtype))
               for key, dtype in SEGMENT_COLUMNS.items()]
    # Offsets depend on the header's length, which depends on the offsets'
    # digits: grow the header's reserved room until the two agree.
    start = _aligned(_PREFIX.size + 256)
    while True:
        entries, offset = [], start
        for key, array in columns:
            entries.append([key, array.dtype.str, offset, int(array.size)])
            offset = _aligned(offset + array.nbytes)
        header = json.dumps(entries, separators=(",", ":")).encode("ascii")
        if _PREFIX.size + len(header) <= start:
            break
        start = _aligned(_PREFIX.size + len(header))

    def write(handle) -> None:
        handle.write(_PREFIX.pack(_MAGIC, len(header), zlib.crc32(header)) + header)
        position = _PREFIX.size + len(header)
        for (_key, array), (*_, offset, _count) in zip(columns, entries):
            handle.write(b"\0" * (offset - position))
            handle.write(memoryview(array).cast("B"))
            position = offset + array.nbytes

    return _atomic_publish(path, write).stat().st_size


class SegmentBuilder:
    """Accumulates runs' columnar arrays, then writes one segment.

    ``add_run`` returns the offsets a :class:`~repro.store.layout.RunRecord`
    needs; ``write`` publishes the segment file atomically and returns the
    ``files`` map of its segment record.
    """

    def __init__(self):
        self._columns: dict[str, list[np.ndarray]] = {key: [] for key in SEGMENT_COLUMNS}
        self._entries = 0
        self._indptr_len = 0
        self._counts_len = 0
        self._overall_len = 0

    @property
    def entries(self) -> int:
        return self._entries

    def add_run(
        self,
        acc: np.ndarray,
        slice_idx: np.ndarray,
        indptr: np.ndarray,
        exec_counts: np.ndarray,
        correct_counts: np.ndarray,
        overall: np.ndarray,
    ) -> dict[str, int]:
        """Append one run's arrays; returns its offsets into the segment."""
        num_sites = indptr.size - 1
        if exec_counts.size != num_sites or correct_counts.size != num_sites:
            raise StoreError("exec/correct counts must have one value per site")
        if acc.size != slice_idx.size or acc.size != int(indptr[-1]):
            raise StoreError("CSR arrays disagree about the entry count")
        offsets = {
            "entry_start": self._entries,
            "entry_count": int(acc.size),
            "indptr_start": self._indptr_len,
            "counts_start": self._counts_len,
            "overall_start": self._overall_len,
        }
        run = {"acc": acc, "slice": slice_idx, "indptr": indptr,
               "exec": exec_counts, "correct": correct_counts, "overall": overall}
        for key, dtype in SEGMENT_COLUMNS.items():
            self._columns[key].append(np.asarray(run[key], dtype=dtype))
        self._entries += int(acc.size)
        self._indptr_len += int(indptr.size)
        self._counts_len += num_sites
        self._overall_len += int(overall.size)
        return offsets

    def write(self, segment_dir: str | Path) -> dict[str, int]:
        """Publish the segment; returns {file name: byte size}."""
        arrays = {key: np.concatenate(parts) if parts else np.zeros(0, SEGMENT_COLUMNS[key])
                  for key, parts in self._columns.items()}
        return {SEGMENT_FILE: write_segment(Path(segment_dir) / SEGMENT_FILE, arrays)}


class SegmentReader:
    """Memmap views over one committed segment's arrays.

    ``expected_sizes`` is the segment record's ``files`` map.  It names
    the layout: ``segment.bin`` for one file, the column keys for the
    six ``.npy`` files of store versions 1 and 2.  Files are mapped
    lazily and validated against the recorded byte sizes, so a truncated
    or overwritten segment surfaces as a :class:`~repro.errors.StoreError`
    before any data is trusted; corruption-as-miss is the caller's policy
    (see ``ProfileWarehouse``).
    """

    def __init__(self, segment_dir: str | Path, expected_sizes: dict[str, int] | None = None):
        self.segment_dir = Path(segment_dir)
        self._expected = expected_sizes or {}
        self._legacy = not self._expected.keys().isdisjoint(SEGMENT_COLUMNS)
        self._maps: dict[str, np.ndarray] | None = None

    def _files(self) -> dict[str, Path]:
        """{``files`` key: path} of every file the segment consists of."""
        if self._legacy:
            return {key: self.segment_dir / f"{key}.npy" for key in SEGMENT_COLUMNS}
        return {SEGMENT_FILE: self.segment_dir / SEGMENT_FILE}

    def validate(self) -> None:
        """Cheap integrity check: every file exists with its recorded size."""
        for key, path in self._files().items():
            try:
                size = path.stat().st_size
            except OSError as exc:
                raise StoreError(f"segment file missing: {path}") from exc
            expected = self._expected.get(key)
            if expected is not None and size != expected:
                raise StoreError(
                    f"segment file {path} has {size} bytes, manifest says {expected}"
                )

    def array(self, key: str) -> np.ndarray:
        """The memmapped array behind ``key`` (``acc``, ``indptr``, ...)."""
        if self._maps is None:
            self._maps = {} if self._legacy else self._map_segment()
        cached = self._maps.get(key)
        if cached is None:  # a legacy column, mapped on first use
            cached = self._maps[key] = self._map_npy(key)
        return cached

    def _map_segment(self) -> dict[str, np.ndarray]:
        """Map ``segment.bin`` once; returns a view per column."""
        path = self.segment_dir / SEGMENT_FILE
        try:
            raw = np.memmap(path, dtype=np.uint8, mode="r")
            magic, length, crc = _PREFIX.unpack_from(raw)
            header = bytes(raw[_PREFIX.size:_PREFIX.size + length])
            if magic != _MAGIC or len(header) != length or zlib.crc32(header) != crc:
                raise ValueError("bad segment header")
            columns = {key: (np.dtype(dtype), int(offset), int(count))
                       for key, dtype, offset, count in json.loads(header)}
        except (OSError, ValueError, TypeError, struct.error) as exc:
            raise StoreError(f"cannot map segment file {path}: {exc}") from exc
        views = {}
        for key, (dtype, offset, count) in columns.items():
            stop = offset + count * dtype.itemsize
            if (key not in SEGMENT_COLUMNS or dtype != np.dtype(SEGMENT_COLUMNS[key])
                    or offset % _ALIGN or min(offset, count) < 0 or stop > raw.size):
                raise StoreError(f"segment file {path}: column {key!r} is {dtype}"
                                 f"[{count}] at byte {offset}, not a valid column")
            views[key] = raw[offset:stop].view(dtype)
        if views.keys() != SEGMENT_COLUMNS.keys():
            raise StoreError(f"segment file {path} lacks columns "
                             f"{sorted(SEGMENT_COLUMNS.keys() - views.keys())}")
        return views

    def _map_npy(self, key: str) -> np.ndarray:
        path = self.segment_dir / f"{key}.npy"
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:
            raise StoreError(f"cannot map segment file {path}: {exc}") from exc
        expected = np.dtype(SEGMENT_COLUMNS[key])
        if array.dtype != expected or array.ndim != 1:
            raise StoreError(
                f"segment file {path} has dtype {array.dtype}/{array.ndim}-D, "
                f"expected 1-D {expected}"
            )
        return array

    def run_indptr(self, record: RunRecord) -> np.ndarray:
        view = self.array("indptr")[
            record.indptr_start: record.indptr_start + record.num_sites + 1
        ]
        if view.size != record.num_sites + 1:
            raise StoreError(f"run {record.run_id}: indptr out of segment bounds")
        return view

    def run_entries(self, record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
        """(slice indices, accuracies) of one whole run — memmap views."""
        start, stop = record.entry_start, record.entry_start + record.entry_count
        slice_idx = self.array("slice")[start:stop]
        acc = self.array("acc")[start:stop]
        if acc.size != record.entry_count:
            raise StoreError(f"run {record.run_id}: entries out of segment bounds")
        return slice_idx, acc

    def run_counts(self, record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
        """(exec, correct) per-site count views of one run."""
        start, stop = record.counts_start, record.counts_start + record.num_sites
        exec_counts = self.array("exec")[start:stop]
        correct_counts = self.array("correct")[start:stop]
        if exec_counts.size != record.num_sites:
            raise StoreError(f"run {record.run_id}: counts out of segment bounds")
        return exec_counts, correct_counts

    def run_overall(self, record: RunRecord) -> np.ndarray:
        view = self.array("overall")[
            record.overall_start: record.overall_start + record.n_slices
        ]
        if view.size != record.n_slices:
            raise StoreError(f"run {record.run_id}: overall series out of segment bounds")
        return view
