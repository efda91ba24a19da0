"""On-disk layout of the profile warehouse.

A warehouse root directory looks like::

    <root>/
        manifest.json            # snapshot: the catalog as of its generation
        manifest.log             # commit log: one record per commit since then
        manifest.json.lock       # flock sidecar (see repro.cachefs)
        segments/
            <segment-uid>/
                acc.npy          # float64[entries]  qualifying slice accuracies
                slice.npy        # int32[entries]    slice index of each entry
                indptr.npy       # int64[...]        per-run CSR row pointers
                exec.npy         # int64[...]        per-run per-site exec counts
                correct.npy      # int64[...]        per-run per-site correct counts
                overall.npy      # float64[...]      per-run per-slice overall accuracy

Each *run* (one 2D-profiling execution, keyed by workload / input /
predictor / profiler-config digest) is stored **columnar by branch**: the
qualifying per-slice accuracies of one branch are a contiguous slab of
``acc.npy`` (CSR layout, ``indptr`` delimiting sites), so retrieving one
branch's time-series from a memmap touches only that slab — never the
whole segment.  A segment holds one ingest batch (one run for a single
ingest, a whole population for a sweep); compaction rewrites every run
into one segment, concatenating the arrays and re-pointing each run's
offsets.

Only the manifest (the snapshot plus the log records of its generation,
see :mod:`repro.store.manifest`) makes data visible: a segment directory
it does not reference is garbage by definition (a crashed ingest), which
is what makes the store kill -9 safe — see :mod:`repro.store.warehouse`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StoreError

#: Bump on any change to the manifest schema or segment file layout.
#: Version 2 added the commit log: older code would not see logged runs.
STORE_VERSION = 2

MANIFEST_NAME = "manifest.json"
LOG_NAME = "manifest.log"
SEGMENTS_DIRNAME = "segments"

#: Segment file names and their required dtypes, in canonical order.
SEGMENT_FILES: dict[str, tuple[str, type]] = {
    "acc": ("acc.npy", np.float64),
    "slice": ("slice.npy", np.int32),
    "indptr": ("indptr.npy", np.int64),
    "exec": ("exec.npy", np.int64),
    "correct": ("correct.npy", np.int64),
    "overall": ("overall.npy", np.float64),
}


def config_digest(config: dict) -> str:
    """Stable short digest of a resolved profiler-config dict.

    Two runs with the same digest were profiled under identical slice
    geometry, FIR settings, and thresholds, so their matrices are directly
    comparable (and re-ingesting is a no-op).
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class IngestRun:
    """One run handed to :meth:`~repro.store.ProfileWarehouse.ingest`.

    ``report`` is a :class:`~repro.core.profiler2d.TwoDReport` profiled
    with ``keep_series=True``; ``sim`` optionally supplies the per-site
    exec/correct counts (anything with ``exec_counts``/``correct_counts``).
    """

    report: object
    workload: str
    input_name: str
    predictor: str
    scale: float = 1.0
    sim: object = None
    source: str = "experiment"


@dataclass(frozen=True)
class RunRecord:
    """One committed run: identity, provenance, and segment offsets."""

    run_id: str
    workload: str
    input: str
    predictor: str
    scale: float
    source: str                 # "experiment" | "service" | ...
    config: dict                # ProfilerConfig.to_dict() of the run
    num_sites: int
    n_slices: int
    overall_accuracy: float
    has_counts: bool            # exec/correct counts are real (not zero-filled)
    segment: str                # segment uid
    entry_start: int            # offset into acc/slice arrays
    entry_count: int
    indptr_start: int           # offset into indptr array (num_sites + 1 values)
    counts_start: int           # offset into exec/correct arrays (num_sites values)
    overall_start: int          # offset into overall array (n_slices values)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.workload, self.input, self.predictor)

    @property
    def digest(self) -> str:
        return config_digest(self.config)

    def to_json(self) -> dict:
        data = dict(vars(self))
        data["config"] = dict(self.config)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        try:
            return cls(**data)
        except TypeError as exc:
            raise StoreError(f"malformed run record: {exc}") from exc


@dataclass(frozen=True)
class SegmentRecord:
    """One committed segment: its files' byte sizes (for validation)."""

    uid: str
    entries: int
    files: dict[str, int] = field(default_factory=dict)  # name -> byte size

    def to_json(self) -> dict:
        return {"uid": self.uid, "entries": self.entries, "files": dict(self.files)}

    @classmethod
    def from_json(cls, data: dict) -> "SegmentRecord":
        try:
            return cls(**data)
        except TypeError as exc:
            raise StoreError(f"malformed segment record: {exc}") from exc


def csr_from_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnarize a raw (n_slices, num_sites) accuracy matrix.

    Returns ``(acc, slice_idx, indptr)``: the non-NaN entries grouped by
    site (and in slice order within a site), the slice index of each
    entry, and the per-site CSR row pointers.  NaN marks "branch did not
    qualify in this slice", exactly as :class:`~repro.core.profiler2d.TwoDReport`
    stores it.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise StoreError("series must be a 2-D (n_slices, num_sites) matrix")
    columns = np.ascontiguousarray(series.T)      # (num_sites, n_slices)
    mask = ~np.isnan(columns)
    acc = columns[mask]
    slice_idx = np.nonzero(mask)[1].astype(np.int32)
    counts = mask.sum(axis=1)
    indptr = np.zeros(series.shape[1] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return acc, slice_idx, indptr
