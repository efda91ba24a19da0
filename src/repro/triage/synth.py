"""Deterministic synthetic good/bad run pairs for triage testing.

Real regressions need a fleet and a workload; tests, benchmarks, and the
walkthrough example need a *seeded* pair of warehouse runs whose
regression is known by construction.  :func:`synth_pair` fabricates two
:class:`~repro.core.profiler2d.TwoDReport` objects with everything the
warehouse wants (raw slice series, per-slice overall line, per-site
exec/correct counts whose ratio bit-matches the recorded overall
accuracy — so the bisection engine runs in its count-coupled mode):

* site 0 is a heavyweight *anchor* with low accuracy, pulling the
  overall-accuracy line below every other site's mean — it is
  input-dependent in both runs and must never appear in a flip set;
* ``regressed`` sites get a level-shift accuracy drop in the second
  half of the bad run — STD and PAM fire, the 2D verdict flips, and the
  expected minimal flipping set is exactly ``sorted(regressed)``;
* every other site carries sub-threshold noise and stays clean.

Everything derives from ``numpy.random.RandomState(seed)`` (MT19937 is
reproducible across platforms), so the same seed gives bit-identical
runs on every machine — which is what lets golden fixtures and the
hypothesis properties assert exact expected sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.profiler2d import ProfilerConfig, TwoDReport, report_from_series
from repro.core.stats import TestThresholds
from repro.predictors.simulate import SimulationResult
from repro.store.layout import IngestRun

#: Executions per slice for ordinary sites; the anchor gets 50x this.
_EXEC_PER_SLICE = 2000
_ANCHOR_WEIGHT = 50
_ANCHOR_ACCURACY = 0.70
_NOISE_STD = 0.004
_REGRESSION_DROP = 0.25


def _build_report(series: np.ndarray, exec_counts: np.ndarray,
                  predictor: str) -> tuple[TwoDReport, SimulationResult]:
    num_sites = series.shape[1]
    config = ProfilerConfig(
        slice_size=_EXEC_PER_SLICE, exec_threshold=10,
        thresholds=TestThresholds(), keep_series=True)
    correct_counts = np.rint(
        series.mean(axis=0) * exec_counts).astype(np.int64)
    overall = float(int(correct_counts.sum()) / int(exec_counts.sum()))
    weights = exec_counts / exec_counts.sum()
    slice_overall = series @ weights
    report = report_from_series(series, slice_overall, overall, config)
    sim = SimulationResult(
        predictor_name=predictor, num_sites=num_sites,
        correct=np.zeros(0, dtype=np.uint8),
        exec_counts=exec_counts, correct_counts=correct_counts)
    return report, sim


def synth_pair(
    num_sites: int = 24,
    n_slices: int = 48,
    regressed: tuple = (3, 7, 11),
    seed: int = 7,
    predictor: str = "gshare",
) -> tuple[TwoDReport, SimulationResult, TwoDReport, SimulationResult]:
    """(good report, good sim, bad report, bad sim), all seed-determined."""
    if 0 in regressed:
        raise ValueError("site 0 is the anchor; regress a site >= 1")
    rng = np.random.RandomState(seed)
    base = 0.88 + 0.08 * rng.rand(num_sites)
    base[0] = _ANCHOR_ACCURACY
    good = np.clip(base + _NOISE_STD * rng.randn(n_slices, num_sites),
                   0.05, 0.995)
    bad = np.clip(base + _NOISE_STD * rng.randn(n_slices, num_sites),
                  0.05, 0.995)
    for site in regressed:
        bad[n_slices // 2:, site] -= _REGRESSION_DROP
    bad = np.clip(bad, 0.05, 0.995)

    exec_counts = np.full(num_sites, _EXEC_PER_SLICE * n_slices,
                          dtype=np.int64)
    exec_counts[0] *= _ANCHOR_WEIGHT
    good_report, good_sim = _build_report(good, exec_counts, predictor)
    bad_report, bad_sim = _build_report(bad, exec_counts, predictor)
    return good_report, good_sim, bad_report, bad_sim


def seeded_run_pair(
    warehouse,
    workload: str = "synthetic",
    predictor: str = "gshare",
    num_sites: int = 24,
    n_slices: int = 48,
    regressed: tuple = (3, 7, 11),
    seed: int = 7,
) -> tuple[str, str]:
    """Ingest a seeded good/bad pair; returns ``(good_id, bad_id)``.

    The good run is stored under input ``base``, the bad one under
    ``regressed`` — the same (workload, predictor) group, so the
    telemetry plane's run selection pairs them automatically.
    """
    good_report, good_sim, bad_report, bad_sim = synth_pair(
        num_sites=num_sites, n_slices=n_slices, regressed=regressed,
        seed=seed, predictor=predictor)
    good_id, bad_id = warehouse.ingest([
        IngestRun(good_report, workload, "base", predictor,
                  sim=good_sim, source="synthetic"),
        IngestRun(bad_report, workload, "regressed", predictor,
                  sim=bad_sim, source="synthetic"),
    ])
    return good_id, bad_id
