"""Ablation: how does the choice of target predictor change the story?

Extends the paper's Section 5.3 (gshare profiler vs perceptron target) with
the full predictor zoo as the *target machine*, including the post-paper
TAGE.  Reported per target predictor: the mean static dependent fraction
and the COV/ACC of gshare-based 2D-profiling, averaged over the deep
workloads with the base (train-vs-ref) ground truth.

Expected shape: the dependent *set* shifts with the target predictor, but
2D-profiling's indep-class accuracy stays high for every target — the
mechanism is not tied to the predictor it profiles with.
"""

import math

from repro.analysis.tables import render_rows
from repro.core.metrics import average_metrics
from repro.workloads import deep_workloads

TARGETS = ("gshare", "perceptron", "tournament", "local", "tage")


def _rows(runner):
    rows = []
    for target in TARGETS:
        metrics = []
        fractions = []
        for wl in deep_workloads():
            metrics.append(
                runner.evaluate(wl.name, profiler_predictor="gshare",
                                target_predictor=target)
            )
            truth = runner.ground_truth(wl.name, target)
            fractions.append(truth.dependent_fraction)
        row = {"target": target,
               "dep-fraction": sum(fractions) / len(fractions)}
        row.update(average_metrics(metrics))
        rows.append(row)
    return rows


def bench_ablation_target_predictor(runner, archive):
    rows = _rows(runner)
    archive("ablation_targets", render_rows(
        rows, "Ablation: target predictor (profiler fixed at gshare)",
        percent_keys=("dep-fraction",)))

    for row in rows:
        assert 0.0 <= row["dep-fraction"] <= 1.0
        if not math.isnan(row["ACC-indep"]):
            assert row["ACC-indep"] > 0.45, row
