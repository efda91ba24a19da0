"""Ablation benches for the 2D-profiling design choices (DESIGN.md §5).

The paper defers its sensitivity study to an extended version [11]; these
benches produce it for our reproduction:

* FIR filter on/off, and warm- vs cold-start initialization;
* running-mean vs exact (end-of-run) PAM;
* each test in isolation (MEAN-only / STD-only / no-PAM);
* slice-count sensitivity;
* STD threshold sensitivity.

Each bench archives a small table of COV/ACC under the variants, measured
on the deep workloads with the base (train-vs-ref) ground truth.
"""

import math

from repro.analysis.tables import render_rows
from repro.core.metrics import average_metrics, evaluate_detection
from repro.core.profiler2d import ProfilerConfig
from repro.core.stats import TestThresholds

WORKLOADS = ("bzipish", "gzipish", "gapish", "vortexish")


def _evaluate_variant(runner, config: ProfilerConfig):
    metrics = []
    for workload in WORKLOADS:
        report = runner.profile_2d(workload, config=config)
        truth = runner.ground_truth(workload)
        metrics.append(evaluate_detection(report.input_dependent_sites(), truth))
    return average_metrics(metrics)


def _rows_for(runner, variants):
    rows = []
    for label, config in variants:
        row = {"variant": label}
        row.update(_evaluate_variant(runner, config))
        rows.append(row)
    return rows


def bench_ablation_fir_filter(runner, archive):
    variants = [
        ("paper (FIR, warm start)", ProfilerConfig()),
        ("no FIR filter", ProfilerConfig(use_fir=False)),
        ("FIR, cold start (literal Fig. 9)", ProfilerConfig(fir_cold_start=True)),
    ]
    rows = _rows_for(runner, variants)
    archive("ablation_fir", render_rows(rows, "Ablation: FIR filter variants"))
    assert len(rows) == 3


def bench_ablation_pam_running_vs_exact(runner, archive):
    variants = [
        ("running-mean PAM (paper)", ProfilerConfig()),
        ("exact end-of-run PAM", ProfilerConfig(pam_exact=True)),
    ]
    rows = _rows_for(runner, variants)
    archive("ablation_pam", render_rows(rows, "Ablation: PAM mean approximation"))
    # The approximation must not be catastropically different.
    a, b = rows
    for key in ("COV-dep", "ACC-indep"):
        if not math.isnan(a[key]) and not math.isnan(b[key]):
            assert abs(a[key] - b[key]) < 0.35


def bench_ablation_individual_tests(runner, archive):
    never, always = 2.0, -1.0  # Thresholds that disable a test.
    variants = [
        ("all three tests (paper)", ProfilerConfig()),
        ("MEAN+PAM only", ProfilerConfig(
            thresholds=TestThresholds(std_th=never))),
        ("STD+PAM only", ProfilerConfig(
            thresholds=TestThresholds(mean_th=always))),
        ("MEAN|STD, no PAM", ProfilerConfig(
            thresholds=TestThresholds(pam_th=-1.0))),
    ]
    rows = _rows_for(runner, variants)
    archive("ablation_tests", render_rows(rows, "Ablation: test combinations"))
    by_label = {r["variant"]: r for r in rows}
    # Removing the PAM filter can only increase the identified set, so
    # coverage of dependents must not drop.
    full = by_label["all three tests (paper)"]
    nopam = by_label["MEAN|STD, no PAM"]
    if not math.isnan(full["COV-dep"]) and not math.isnan(nopam["COV-dep"]):
        assert nopam["COV-dep"] >= full["COV-dep"] - 1e-9


def bench_ablation_slice_count(runner, archive):
    variants = [
        (f"{target} target slices", ProfilerConfig(target_slices=target))
        for target in (20, 40, 80, 160)
    ]
    rows = _rows_for(runner, variants)
    archive("ablation_slices", render_rows(rows, "Ablation: slice-count sensitivity"))
    assert len(rows) == 4


def bench_ablation_std_threshold(runner, archive):
    variants = [
        (f"STD_th={std_th}", ProfilerConfig(thresholds=TestThresholds(std_th=std_th)))
        for std_th in (0.02, 0.04, 0.08, 0.16)
    ]
    rows = _rows_for(runner, variants)
    archive("ablation_std_th", render_rows(rows, "Ablation: STD threshold sensitivity"))
    # Stricter thresholds shrink the identified set -> ACC-dep should not
    # systematically fall as the threshold rises.
    assert len(rows) == 4
