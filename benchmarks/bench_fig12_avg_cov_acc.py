"""Figure 12: COV/ACC averaged over the six deep workloads as the number
of input sets defining the ground truth grows.

Paper shape: ACC-dep increases significantly with more input sets (beyond
70% at the maximum) while COV-dep drops slightly; the indep metrics stay
high.
"""

import math

from repro.analysis.tables import FIGURES, render_rows


def bench_fig12_average_cov_acc(runner, archive):
    figure = FIGURES["12"]
    rows = figure.rows(runner)
    archive("fig12_avg_cov_acc", render_rows(rows, figure.title, figure.percent_keys))

    first, last = rows[0], rows[-1]
    # The paper's headline: ACC-dep rises as more inputs define the truth.
    if not math.isnan(first["ACC-dep"]) and not math.isnan(last["ACC-dep"]):
        assert last["ACC-dep"] >= first["ACC-dep"] - 0.02, (
            f"ACC-dep fell: {first['ACC-dep']:.2f} -> {last['ACC-dep']:.2f}"
        )
    assert last["ACC-indep"] > 0.5 or math.isnan(last["ACC-indep"])
