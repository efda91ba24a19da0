"""Statistical suspiciousness scoring of branch sites, good vs bad run.

Statistical fault localization ranks program entities by how strongly
their appearance correlates with failing executions.  Here the analogue
of an "execution" is one qualifying slice observation of a branch, and
"failing" means the observation's raw accuracy fell below the run's
overall-accuracy line (see
:meth:`~repro.store.queries.StoredRun.window_counts`).  Two classic
scores are computed from the good/bad counters:

* **tarantula** — normalized failing-share ratio,
  ``(bad_low/F) / (bad_low/F + good_low/P)``;
* **ochiai** — geometric-mean association,
  ``bad_low / sqrt(F * (bad_low + good_low))``;

plus 2D-profile deltas (mean / std / PAM-fraction shift between the
runs) and the phase shape of each site's stored accuracy series
(:func:`repro.analysis.phases.classify_sites`) — a site whose shape
went ``flat`` → ``level-shift`` is the canonical regression signature.

The composite score deliberately weights ochiai highest (it degrades
gracefully when one run has few low observations), then tarantula, then
the variance delta scaled by the STD-test threshold, so a site that
newly oscillates scores even when its window counters are balanced.
"""

from __future__ import annotations

import math

from repro.analysis.phases import classify_sites
from repro.core.stats import classify
from repro.obs import get_tracer
from repro.store.queries import StoredRun

#: Composite-score weights (ochiai, tarantula, scaled |delta std|).
WEIGHTS = (0.6, 0.2, 0.2)


def tarantula(bad_low: int, good_low: int, total_bad: int, total_good: int) -> float:
    """Tarantula score from low-observation counters (0 when unobserved)."""
    if bad_low == 0 or total_bad == 0:
        return 0.0
    fail_share = bad_low / total_bad
    pass_share = good_low / total_good if total_good else 0.0
    return fail_share / (fail_share + pass_share)


def ochiai(bad_low: int, good_low: int, total_bad: int) -> float:
    """Ochiai score from low-observation counters (0 when unobserved)."""
    if bad_low == 0 or total_bad == 0:
        return 0.0
    return bad_low / math.sqrt(total_bad * (bad_low + good_low))


def score_sites(
    good: StoredRun,
    bad: StoredRun,
    std_th: float | None = None,
    pam_th: float | None = None,
) -> list[dict]:
    """Ranked per-site suspiciousness rows, most suspicious first.

    Rows are plain dicts (JSON-ready, table-ready) sorted by
    ``(-score, site)`` so the ranking is total and deterministic.
    """
    with get_tracer().span("triage.suspicion", cat="triage",
                           good=good.run_id, bad=bad.run_id):
        thresholds = bad.thresholds(std_th=std_th, pam_th=pam_th)
        wc_good = good.window_counts()
        wc_bad = bad.window_counts()
        total_bad_low = int(wc_bad.low.sum())
        total_good_low = int(wc_good.low.sum())
        stats_good = good.all_stats()
        stats_bad = bad.all_stats()
        sites = sorted(set(stats_good) | set(stats_bad))
        shapes_good = classify_sites(
            {site: good.site_series(site)[1] for site in sites})
        shapes_bad = classify_sites(
            {site: bad.site_series(site)[1] for site in sites})

        rows = []
        for site in sites:
            sg = stats_good.get(site)
            sb = stats_bad.get(site)
            bad_low = int(wc_bad.low[site])
            good_low = int(wc_good.low[site])
            tar = tarantula(bad_low, good_low, total_bad_low, total_good_low)
            och = ochiai(bad_low, good_low, total_bad_low)
            d_mean = (sb.mean if sb else 0.0) - (sg.mean if sg else 0.0)
            d_std = (sb.std if sb else 0.0) - (sg.std if sg else 0.0)
            d_pam = (sb.pam_fraction if sb else 0.0) - (sg.pam_fraction if sg else 0.0)
            w_och, w_tar, w_std = WEIGHTS
            score = (w_och * och + w_tar * tar
                     + w_std * min(1.0, abs(d_std) / thresholds.std_th))
            rows.append({
                "site": site,
                "score": score,
                "ochiai": och,
                "tarantula": tar,
                "bad_low": bad_low,
                "bad_total": int(wc_bad.total[site]),
                "good_low": good_low,
                "good_total": int(wc_good.total[site]),
                "d_mean": d_mean,
                "d_std": d_std,
                "d_pam": d_pam,
                "shape_good": shapes_good[site].shape.value,
                "shape_bad": shapes_bad[site].shape.value,
                "dependent_good": bool(
                    sg and classify(sg, thresholds, good.overall_accuracy)),
                "dependent_bad": bool(
                    sb and classify(sb, thresholds, bad.overall_accuracy)),
            })
        rows.sort(key=lambda row: (-row["score"], row["site"]))
        return rows
