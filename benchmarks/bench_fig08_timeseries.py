"""Figure 8: time-varying per-slice prediction accuracy of an
input-dependent branch vs. an input-independent branch (gapish train run).

Paper shape: the input-dependent exemplar swings over time; the
input-independent exemplar is much flatter even when its absolute accuracy
is low.
"""

from repro.analysis.timeseries import figure8_series, render_ascii_series


def bench_fig08_time_series(runner, archive):
    varying, flat, overall = figure8_series(runner, "gapish")
    text = "\n\n".join([
        "Figure 8: per-slice prediction accuracy over time (gapish, train)",
        render_ascii_series(varying),
        render_ascii_series(flat),
        f"overall accuracy per slice: min={min(overall):.3f} max={max(overall):.3f}",
    ])
    archive("fig08_timeseries", text)

    assert varying.std > flat.std * 2, (
        f"exemplars not separated: varying std {varying.std:.4f} "
        f"vs flat std {flat.std:.4f}"
    )
    spread = max(varying.accuracies) - min(varying.accuracies)
    assert spread > 0.1, "input-dependent exemplar barely moves"
