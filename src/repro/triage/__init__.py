"""Regression triage: localize *why* a profiling run's verdict changed.

The warehouse can say *that* two runs disagree (``db diff``); the fleet
can say *when* a metric degraded (SLO alerts).  This package closes the
gap with the *which*: given a known-good and a bad run of the same
workload/predictor, it

1. bisects the branch-site set to a minimal subset whose substitution
   flips the run-level 2D classification
   (:class:`~repro.triage.engine.BisectionEngine` — deterministic,
   order-invariant, resumable across ``kill -9``),
2. ranks every site by statistical suspiciousness over the stored
   per-slice observations (:func:`~repro.triage.suspicion.score_sites`),
3. bundles both into a :class:`~repro.triage.report.TriageReport`
   (``triage_report.json`` + rendered table).

Entry points: :func:`triage_runs` below (used by ``repro-2dprof db
bisect`` and by :class:`~repro.obs.telemetry.FleetTelemetry` when an SLO
alert fires), and :func:`~repro.triage.synth.seeded_run_pair` for
fabricating known regressions.  See ``docs/triage.md``.
"""

from __future__ import annotations

import time

from repro.obs import get_registry
from repro.store.queries import StoredRun
from repro.triage.engine import STATE_VERSION, STEP_DELAY_ENV, BisectionEngine
from repro.triage.report import REPORT_VERSION, TriageReport, load_report
from repro.triage.suspicion import score_sites
from repro.triage.synth import seeded_run_pair, synth_pair

__all__ = [
    "STATE_VERSION",
    "STEP_DELAY_ENV",
    "REPORT_VERSION",
    "BisectionEngine",
    "TriageReport",
    "load_report",
    "score_sites",
    "seeded_run_pair",
    "synth_pair",
    "triage_runs",
]


def triage_runs(
    warehouse,
    good,
    bad,
    std_th: float | None = None,
    pam_th: float | None = None,
    state_path=None,
    thresholds_search: bool = False,
    meta: dict | None = None,
) -> TriageReport:
    """One full triage pass over a good/bad run pair.

    ``good``/``bad`` are run ids or :class:`StoredRun` handles from
    ``warehouse``.  Returns the finished report; writing it anywhere is
    the caller's decision (CLI prints and/or saves, the telemetry plane
    drops it next to the flight recordings).
    """
    start = time.perf_counter()
    if not isinstance(good, StoredRun):
        good = warehouse.open_run(good)
    if not isinstance(bad, StoredRun):
        bad = warehouse.open_run(bad)
    engine = BisectionEngine(good, bad, std_th=std_th, pam_th=pam_th,
                             state_path=state_path)
    bisect = engine.run(thresholds_search=thresholds_search)
    suspicion = score_sites(good, bad, std_th=std_th, pam_th=pam_th)
    report = TriageReport(
        good_run=good.run_id,
        bad_run=bad.run_id,
        workload=bad.record.workload,
        predictor=bad.record.predictor,
        good_input=good.record.input,
        bad_input=bad.record.input,
        bisect=bisect,
        suspicion=suspicion,
        meta=dict(meta or {}, wall_seconds=time.perf_counter() - start),
    )
    get_registry().counter("triage_reports_total").inc()
    return report
