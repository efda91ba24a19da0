"""Figure 4: distribution of input-dependent branches over prediction
accuracy bins (measured on the ref input).

Paper shape: a sizeable fraction of input-dependent branches is
easy-to-predict (>95% accuracy) — not all input-dependent branches are
hard-to-predict.
"""

from conftest import once

from repro.analysis.tables import FIGURES, render_rows


def bench_fig04_accuracy_distribution(benchmark, runner, archive):
    figure = FIGURES["4"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("fig04_distribution", render_rows(rows, figure.title, figure.percent_keys))

    # Shape: summed over workloads, some input-dependent branches live in
    # the easy (>=95%) bins.
    easy_mass = sum(r["95-99%"] + r["99-100%"] for r in rows if r["total"])
    assert easy_mass > 0.0, "no easy-to-predict input-dependent branches found"
    # And each row's distribution sums to ~1 when it has any branches.
    for row in rows:
        if row["total"]:
            assert abs(sum(row[k] for k in figure.percent_keys) - 1.0) < 1e-9
