"""Profile warehouse: ingest and the three query families.

Not a paper exhibit: a guard for the storage subsystem.  Ingests the
deep workloads' train/ref profiles into a fresh store, then runs the
three query families against it: per-branch time series (memmap slab
reads), re-classification under new thresholds (the stored matrix
re-folded, no replay), and the cross-input ground-truth diff.

Shape assertions: every run lands uncorrupted, and queries answer from
the store alone (the stored diff equals the live pipeline's ground
truth).
"""

import tempfile
from pathlib import Path

from repro.core.profiler2d import ProfilerConfig
from repro.store import IngestRun, ProfileWarehouse, diff_runs, reclassify
from repro.workloads import deep_workloads

_KEEP = ProfilerConfig(keep_series=True)
_STORE_TMP = tempfile.TemporaryDirectory(prefix="bench-warehouse-")


def _stocked(runner) -> ProfileWarehouse:
    """One store per session, filled on first use from cached artifacts."""
    warehouse = ProfileWarehouse(Path(_STORE_TMP.name) / "wh")
    if warehouse.runs():
        return warehouse
    for workload in deep_workloads():
        for input_name in ("train", "ref"):
            report = runner.profile_2d(workload.name, "gshare",
                                       input_name=input_name, config=_KEEP)
            sim = runner.simulation(workload.name, input_name, "gshare")
            warehouse.ingest([IngestRun(report, workload.name, input_name, "gshare",
                                        scale=runner.config.scale, sim=sim)])
    return warehouse


def bench_warehouse_ingest(runner, archive):
    """Segment write + two-phase commit, amortized over the deep suite."""
    warehouse = _stocked(runner)
    stats = warehouse.stats()
    lines = ["Warehouse ingest (deep workloads, train+ref, gshare)",
             f"runs={stats['runs']} segments={stats['segments']} "
             f"rows={stats['entries']} bytes={stats['bytes']}"]
    archive("warehouse_ingest", "\n".join(lines))
    assert stats["runs"] == 2 * len(deep_workloads())
    assert stats["corrupt_runs"] == 0


def bench_warehouse_queries(runner, archive):
    """Time series + reclassify + diff over every stored train run."""
    warehouse = _stocked(runner)
    pairs = []
    for workload in deep_workloads():
        [train] = warehouse.runs(workload.name, "train", "gshare")
        [ref] = warehouse.runs(workload.name, "ref", "gshare")
        pairs.append((workload.name, *warehouse.open_runs([train, ref])))

    def query_all():
        rows = []
        for name, train_run, ref_run in pairs:
            hot = int(train_run.branch_counts().argmax())
            _slices, acc = train_run.site_series(hot)
            strict = reclassify(train_run, std_th=0.08)
            truth = diff_runs(train_run, [ref_run])
            rows.append((name, hot, len(acc),
                         len(strict["input_dependent"]),
                         len(truth.dependent), len(truth.universe)))
        return rows

    rows = query_all()
    lines = ["Warehouse queries (per deep workload, no re-simulation)",
             f"{'workload':12s} {'hot-site':>8s} {'slices':>6s} "
             f"{'strict-dep':>10s} {'truth-dep':>9s} {'universe':>8s}"]
    for name, hot, n_slices, strict_dep, dep, universe in rows:
        lines.append(f"{name:12s} {hot:8d} {n_slices:6d} "
                     f"{strict_dep:10d} {dep:9d} {universe:8d}")
    archive("warehouse_queries", "\n".join(lines))

    # The stored diff must reproduce the live pipeline's ground truth.
    for (name, train_run, ref_run) in pairs:
        live = runner.ground_truth(name, "gshare")
        stored = diff_runs(train_run, [ref_run])
        assert stored.dependent == live.dependent, name
        assert stored.universe == live.universe, name
