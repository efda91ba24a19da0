"""Segment files: atomic ``.npy`` publication and zero-copy memmap reads.

A segment is a directory of parallel flat ``.npy`` arrays (see
:mod:`repro.store.layout`).  Raw ``.npy`` — not the zipped ``.npz`` the
experiment cache uses — because ``numpy.load(..., mmap_mode="r")`` can
map it directly: a query that touches one branch's slab never faults in
the rest of the file.

Writes follow the :mod:`repro.cachefs` discipline: each array goes to a
``*.tmp`` sibling, is fsynced, and is renamed into place, so a killed
writer leaves only tmp litter and an uncommitted directory — never a
half-written array behind a committed name.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cachefs import _atomic_publish
from repro.errors import StoreError
from repro.store.layout import SEGMENT_FILES, RunRecord


def atomic_save_array(path: str | Path, array: np.ndarray) -> int:
    """Publish one ``.npy`` all-or-nothing; returns the published byte size."""
    return _atomic_publish(path, lambda handle: np.save(handle, array)).stat().st_size


class SegmentBuilder:
    """Accumulates runs' columnar arrays, then writes one segment.

    ``add_run`` returns the offsets a :class:`~repro.store.layout.RunRecord`
    needs; ``write`` publishes every array atomically and returns the
    per-file byte sizes for the segment record.
    """

    def __init__(self):
        self._acc: list[np.ndarray] = []
        self._slice: list[np.ndarray] = []
        self._indptr: list[np.ndarray] = []
        self._exec: list[np.ndarray] = []
        self._correct: list[np.ndarray] = []
        self._overall: list[np.ndarray] = []
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
        self._acc.append(np.asarray(acc, dtype=np.float64))
        self._slice.append(np.asarray(slice_idx, dtype=np.int32))
        self._indptr.append(np.asarray(indptr, dtype=np.int64))
        self._exec.append(np.asarray(exec_counts, dtype=np.int64))
        self._correct.append(np.asarray(correct_counts, dtype=np.int64))
        self._overall.append(np.asarray(overall, dtype=np.float64))
        self._entries += int(acc.size)
        self._indptr_len += int(indptr.size)
        self._counts_len += num_sites
        self._overall_len += int(overall.size)
        return offsets

    def write(self, segment_dir: str | Path) -> dict[str, int]:
        """Publish the segment's arrays; returns {file key: byte size}."""
        segment_dir = Path(segment_dir)
        arrays = {
            "acc": np.concatenate(self._acc) if self._acc else np.zeros(0, np.float64),
            "slice": np.concatenate(self._slice) if self._slice else np.zeros(0, np.int32),
            "indptr": np.concatenate(self._indptr) if self._indptr else np.zeros(0, np.int64),
            "exec": np.concatenate(self._exec) if self._exec else np.zeros(0, np.int64),
            "correct": np.concatenate(self._correct) if self._correct else np.zeros(0, np.int64),
            "overall": np.concatenate(self._overall) if self._overall else np.zeros(0, np.float64),
        }
        sizes: dict[str, int] = {}
        for key, (filename, dtype) in SEGMENT_FILES.items():
            sizes[key] = atomic_save_array(
                segment_dir / filename, arrays[key].astype(dtype, copy=False)
            )
        return sizes


class SegmentReader:
    """Memmap views over one committed segment's arrays.

    Arrays are mapped lazily and validated against the manifest's recorded
    byte sizes, so a truncated or overwritten segment file surfaces as a
    :class:`~repro.errors.StoreError` before any data is trusted —
    corruption-as-miss is the caller's policy (see ``ProfileWarehouse``).
    """

    def __init__(self, segment_dir: str | Path, expected_sizes: dict[str, int] | None = None):
        self.segment_dir = Path(segment_dir)
        self._expected = expected_sizes or {}
        self._maps: dict[str, np.ndarray] = {}

    def validate(self) -> None:
        """Cheap integrity check: every file exists with its recorded size."""
        for key, (filename, _dtype) in SEGMENT_FILES.items():
            path = self.segment_dir / filename
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
        cached = self._maps.get(key)
        if cached is not None:
            return cached
        filename, dtype = SEGMENT_FILES[key]
        path = self.segment_dir / filename
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:
            raise StoreError(f"cannot map segment file {path}: {exc}") from exc
        if array.dtype != np.dtype(dtype) or array.ndim != 1:
            raise StoreError(
                f"segment file {path} has dtype {array.dtype}/{array.ndim}-D, "
                f"expected 1-D {np.dtype(dtype)}"
            )
        self._maps[key] = array
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
