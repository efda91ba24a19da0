"""Table 4: extended input-set characteristics — instruction/branch counts,
misprediction rates under both predictors, and the number of branches that
are input-dependent w.r.t. the train input, per ext input.

Paper shape: the dependent count varies wildly across ext inputs of the
same benchmark (gcc: 9 branches for ext-6 vs 821 for ext-5 in the paper) —
input sets differ in how much dependence they expose.
"""

from conftest import once

from repro.analysis.tables import FIGURES, render_rows


def bench_table4_extended_inputs(benchmark, runner, archive):
    figure = FIGURES["t4"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("table4_ext_inputs", render_rows(rows, figure.title, figure.percent_keys))

    assert rows
    for row in rows:
        assert row["branches"] > 0
        assert 0.0 <= row["gshare_mispred"] <= 0.6
        assert 0.0 <= row["perceptron_mispred"] <= 0.6

    # Dependence exposure varies across ext inputs of one workload.
    from collections import defaultdict
    per_workload = defaultdict(list)
    for row in rows:
        per_workload[row["workload"]].append(row["gshare_dep_vs_train"])
    spreads = [max(v) - min(v) for v in per_workload.values() if len(v) > 1]
    assert any(s > 0 for s in spreads), "every ext input exposed identical dependence"
