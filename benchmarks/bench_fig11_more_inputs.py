"""Figure 11: fraction of input-dependent branches as more input sets are
considered (base, base-ext1, ..., base-ext1-k) for the six deep workloads.

Paper shape: the fraction grows monotonically with the number of input
sets (gcc: 14% at base -> 33% at base-ext1-6).
"""

from conftest import once

from repro.analysis.tables import FIGURES, render_rows


def bench_fig11_fraction_growth(benchmark, runner, archive):
    figure = FIGURES["11"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("fig11_more_inputs", render_rows(rows, figure.title, figure.percent_keys))

    for row in rows:
        steps = [row[k] for k in figure.percent_keys if k in row]
        # Union definition: monotone non-decreasing.
        assert all(b >= a - 1e-12 for a, b in zip(steps, steps[1:])), row["workload"]
    # And at least some workloads actually grow.
    grew = sum(1 for row in rows
               if row[[k for k in figure.percent_keys if k in row][-1]] > row["base"] + 1e-9)
    assert grew >= 3
