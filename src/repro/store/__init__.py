"""Profile warehouse: a columnar on-disk store and query engine for 2D-profiles.

Public surface::

    from repro.store import IngestRun, ProfileWarehouse, diff_runs, reclassify

    wh = ProfileWarehouse("~/.cache/repro-2dprof/warehouse")
    run_id, other = wh.ingest([          # one batch: one segment, one commit
        IngestRun(report, "gzipish", "train", "gshare", sim=sim),
        IngestRun(ref_report, "gzipish", "ref", "gshare", sim=ref_sim),
    ])
    run = wh.open_run(run_id)
    slices, acc = run.site_series(17)          # memmap slab, zero copy
    truth = diff_runs(run, [wh.open_run(other)])
    relabeled = reclassify(run, std_th=0.06)

Layers: :mod:`repro.store.layout` (schema + CSR columnarization),
:mod:`repro.store.segments` (atomic ``.npy`` publication, memmap reads),
:mod:`repro.store.manifest` (a JSON snapshot plus an append-only commit
log, on the :mod:`repro.cachefs` primitives), :mod:`repro.store.queries`
(the query engine), :mod:`repro.store.warehouse` (ingest, catalog, gc,
compaction).
See ``docs/warehouse.md``.
"""

from repro.store.layout import (
    STORE_VERSION,
    IngestRun,
    RunRecord,
    SegmentRecord,
    config_digest,
    csr_from_series,
)
from repro.store.manifest import Manifest, ManifestFile
from repro.store.queries import (
    StoredRun,
    WindowCounts,
    diff_runs,
    join_runs,
    reclassify,
)
from repro.store.segments import SegmentBuilder, SegmentReader, atomic_save_array
from repro.store.warehouse import CompactStats, GcStats, ProfileWarehouse

__all__ = [
    "STORE_VERSION",
    "IngestRun",
    "RunRecord",
    "SegmentRecord",
    "config_digest",
    "csr_from_series",
    "Manifest",
    "ManifestFile",
    "StoredRun",
    "WindowCounts",
    "diff_runs",
    "join_runs",
    "reclassify",
    "SegmentBuilder",
    "SegmentReader",
    "atomic_save_array",
    "CompactStats",
    "GcStats",
    "ProfileWarehouse",
]
