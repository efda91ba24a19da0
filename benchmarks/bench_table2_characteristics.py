"""Table 2: benchmark/input characteristics — instruction counts, dynamic
conditional branch counts, static branch counts, and the number of
input-dependent branches (train vs ref).
"""

from repro.analysis.tables import FIGURES, render_rows


def bench_table2_characteristics(runner, archive):
    figure = FIGURES["t2"]
    rows = figure.rows(runner)
    archive("table2_characteristics", render_rows(rows, figure.title, figure.percent_keys))

    assert len(rows) == 12
    for row in rows:
        # Dynamic branch counts are a fraction of instruction counts.
        assert 0 < row["train_branches"] < row["train_instructions"]
        assert 0 < row["ref_branches"] < row["ref_instructions"]
        assert 0 <= row["input_dependent"] <= row["static_branches"]
