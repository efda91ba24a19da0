"""A tour of the profile warehouse: profile once, query forever.

Profiles two inputs of one workload into a columnar on-disk store, then
answers every question from the stored matrices — a branch's accuracy
time series, re-classification under tighter thresholds, and the
ground-truth input-dependence diff — without touching the VM or the
predictor again.  Finishes with compaction and a stats readout.

Run:  python examples/warehouse_tour.py [scale]
"""

import sys
import tempfile
from pathlib import Path

from repro import ExperimentRunner, ProfilerConfig, SuiteConfig
from repro.store import IngestRun, ProfileWarehouse, diff_runs, reclassify

WORKLOAD = "gzipish"


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    tmp = tempfile.TemporaryDirectory(prefix="warehouse-tour-")
    store_dir = Path(tmp.name) / "warehouse"

    # Ingest the way `db ingest` does: profile with keep_series so the
    # full accuracy matrix is preserved, and store it with its simulation.
    runner = ExperimentRunner(SuiteConfig(scale=scale))
    keep = ProfilerConfig(keep_series=True)

    def profiled(input_name):
        return IngestRun(
            runner.profile_2d(WORKLOAD, "gshare", input_name=input_name, config=keep),
            WORKLOAD, input_name, "gshare", scale=scale,
            sim=runner.simulation(WORKLOAD, input_name, "gshare"), source="experiment")

    warehouse = ProfileWarehouse(store_dir)
    [train_id] = warehouse.ingest([profiled("train")])
    [ref_id] = warehouse.ingest([profiled("ref")])
    assert warehouse.ingest([profiled("train")]) == [train_id]   # dedupe: still two runs

    print(f"catalog ({store_dir.name}):")
    for rec in warehouse.runs():
        print(f"  {rec.run_id}: {rec.workload}/{rec.input} {rec.predictor} "
              f"scale={rec.scale} sites={rec.num_sites} slices={rec.n_slices}")

    # 1. Time series (paper Fig. 8) — a zero-copy memmap slab per branch.
    run = warehouse.open_run(train_id)
    site = int(run.branch_counts().argmax())
    slices, acc = run.site_series(site)
    print(f"\nsite {site} accuracy over {len(slices)} slices "
          f"(min {acc.min():.3f}, max {acc.max():.3f}):")
    print("  " + "".join(" .:-=+*#"[min(7, int(a * 8))] for a in acc))

    # 2. Re-classification (paper Fig. 9 thresholds) — bit-identical to a
    #    fresh profile_trace, computed from the stored matrix alone.
    default = reclassify(run)
    strict = reclassify(run, std_th=0.08, pam_th=0.2)
    print(f"\ninput-dependent: {len(default['input_dependent'])} at defaults, "
          f"{len(strict['input_dependent'])} at std_th=0.08 pam_th=0.2")

    # 3. Cross-input ground truth (paper §4) — from stored int64 counts.
    truth = diff_runs(run, [warehouse.open_run(ref_id)])
    print(f"ground truth train-vs-ref: {len(truth.dependent)} dependent / "
          f"{len(truth.independent)} independent "
          f"(static fraction {truth.dependent_fraction:.1%})")

    # 4. Maintenance: one segment per ingest → one segment total.
    stats = warehouse.compact()
    print(f"\ncompacted: {stats.segments_before} -> {stats.segments_after} "
          f"segment(s), {stats.bytes_written} bytes rewritten")
    totals = warehouse.stats()
    print(f"store: {totals['runs']} runs, {totals['entries']} rows, "
          f"{totals['bytes']} bytes")
    tmp.cleanup()


if __name__ == "__main__":
    main()
