"""Table 1: average branch misprediction rate per workload and input set.

Paper shape: rates in the ~1-15% range; some benchmarks shift noticeably
between train and ref while others (twolf, crafty in the paper) barely move
overall despite many input-dependent branches.
"""

from conftest import once

from repro.analysis.tables import FIGURES, render_rows


def bench_table1_misprediction_rates(benchmark, runner, archive):
    figure = FIGURES["t1"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("table1_mispred", render_rows(rows, figure.title, figure.percent_keys))

    for row in rows:
        assert 0.0 <= row["train"] <= 0.5
        assert 0.0 <= row["ref"] <= 0.5
    # Overall-rate similarity does not preclude input-dependent branches:
    # at least one workload has a small overall delta (<2%) while the
    # Figure 3 data shows real input dependence.  We assert the small-delta
    # population exists.
    small_delta = [r for r in rows if abs(r["train"] - r["ref"]) < 0.02]
    assert small_delta, "every workload shifted its overall rate, unlike the paper"
