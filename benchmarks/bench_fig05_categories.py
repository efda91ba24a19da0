"""Figure 5: fraction of branches in each accuracy bin that are
input-dependent.

Paper shape: the fraction rises as accuracy falls (low-accuracy branches
are more likely input-dependent), but even the lowest bin is not 100% —
hard-to-predict does not imply input-dependent.
"""

import math

from repro.analysis.tables import FIGURES, render_rows


def bench_fig05_fraction_per_bin(runner, archive):
    figure = FIGURES["5"]
    rows = figure.rows(runner)
    archive("fig05_categories", render_rows(rows, figure.title, figure.percent_keys))

    # Aggregate trend: low-accuracy bins have a larger dependent fraction
    # than the easiest bin.
    def mean_over(key):
        values = [r[key] for r in rows if not math.isnan(r[key])]
        return sum(values) / len(values) if values else float("nan")

    hard = mean_over("0-70%")
    easiest = mean_over("99-100%")
    assert math.isnan(hard) or math.isnan(easiest) or hard > easiest
