"""Figure 14: fraction of input-dependent branches vs. #input sets when the
*target machine* uses the 16 KB perceptron predictor.

Paper shape: same growth pattern as Figure 11 (gshare) — the definition of
input dependence is predictor-relative but the growth with inputs is not.
"""

from conftest import once

from repro.analysis.tables import FIGURES, render_rows


def bench_fig14_perceptron_fraction(benchmark, runner, archive):
    figure = FIGURES["14"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("fig14_perceptron_fraction", render_rows(rows, figure.title, figure.percent_keys))

    for row in rows:
        steps = [row[k] for k in figure.percent_keys if k in row]
        assert all(b >= a - 1e-12 for a, b in zip(steps, steps[1:])), row["workload"]
