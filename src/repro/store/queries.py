"""Query layer: the paper's questions answered from stored matrices.

Everything here reads committed runs through memmap views — no trace is
ever replayed.  Four query families:

* **Time-series retrieval** — :meth:`StoredRun.site_series` returns one
  branch's (slice indices, per-slice accuracies) as zero-copy slabs of
  the segment memmap (Figure 8 without re-simulation).
* **Re-classification** — :meth:`StoredRun.report` refolds the stored raw
  slices through :func:`~repro.core.profiler2d.report_from_series`, the
  live profiler's own Figure 9b update, into a
  :class:`~repro.core.profiler2d.TwoDReport` (bit-identical to the live
  report, by property test); :func:`reclassify` and :func:`join_runs`
  read their verdicts from it, under *new* thresholds if asked.
* **Cross-input deltas** — :func:`diff_runs` rebuilds the paper's
  ground-truth input-dependence straight from stored per-site counts,
  through the very :func:`repro.core.groundtruth.ground_truth` function
  the live pipeline uses, so labels match bit-for-bit.
* **Cross-predictor joins** — :func:`join_runs` aligns two runs of the
  same (workload, input) under different predictors per branch.
* **Windowed observation counts** — :meth:`StoredRun.window_counts`
  extracts per-site good/bad slice-observation counters over a slice
  window, the raw material of the triage engine's statistical
  suspiciousness scores (:mod:`repro.triage.suspicion`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.core.groundtruth import (
    DEFAULT_MIN_EXECUTIONS,
    DEFAULT_THRESHOLD,
    GroundTruth,
    ground_truth,
)
from repro.core.profiler2d import ProfilerConfig, TwoDReport, report_from_series
from repro.core.stats import BranchSliceStats, TestThresholds
from repro.errors import StoreError
from repro.obs import get_registry, get_tracer
from repro.predictors.simulate import SimulationResult
from repro.store.layout import RunRecord
from repro.store.segments import SegmentReader


def observe_query(kind: str, seconds: float) -> None:
    """Record one query's latency in the store's histogram."""
    get_registry().histogram(
        "store_query_seconds", "warehouse query latency"
    ).labels(kind=kind).observe(seconds)


class timed_query:
    """Context manager: one ``store.query.<kind>`` span + latency sample."""

    def __init__(self, kind: str, **attrs):
        self.kind = kind
        self.attrs = attrs

    def __enter__(self):
        self._span = get_tracer().span(f"store.query.{self.kind}", cat="store",
                                       **self.attrs)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        observe_query(self.kind, time.perf_counter() - self._start)
        return self._span.__exit__(exc_type, exc, tb)


@dataclass(frozen=True)
class WindowCounts:
    """Per-site observation counters over one slice window.

    The stored-run analogue of statistical fault localization's pass/fail
    coverage frequencies: ``total[site]`` counts the site's qualifying
    slices inside the window, ``low[site]`` the subset whose raw accuracy
    fell below ``line``.  :mod:`repro.triage.suspicion` combines a good
    run's and a bad run's counters into tarantula/ochiai scores.
    """

    total: np.ndarray
    low: np.ndarray
    line: float
    lo_slice: int
    hi_slice: int


class StoredRun:
    """Query handle over one committed run (validated memmap views)."""

    def __init__(self, record: RunRecord, reader: SegmentReader):
        self.record = record
        self.reader = reader

    @property
    def run_id(self) -> str:
        return self.record.run_id

    @property
    def num_sites(self) -> int:
        return self.record.num_sites

    @property
    def overall_accuracy(self) -> float:
        return self.record.overall_accuracy

    def thresholds(self, mean_th=..., std_th: float | None = None,
                   pam_th: float | None = None) -> TestThresholds:
        """The run's stored thresholds, with optional per-test overrides."""
        stored = ProfilerConfig.from_dict(self.record.config).thresholds
        return TestThresholds(
            mean_th=stored.mean_th if mean_th is ... else mean_th,
            std_th=stored.std_th if std_th is None else std_th,
            pam_th=stored.pam_th if pam_th is None else pam_th,
        )

    # -- columnar reads (all zero-copy memmap views) -------------------

    def branch_counts(self) -> np.ndarray:
        """Per-site qualifying-slice counts — the run's branch index."""
        indptr = self.reader.run_indptr(self.record)
        return np.diff(indptr)

    def profiled_sites(self) -> set[int]:
        """Sites with at least one qualifying slice (reads only the index)."""
        return {int(site) for site in np.nonzero(self.branch_counts())[0]}

    def site_series(self, site_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(slice indices, raw accuracies) of one branch.

        Returns contiguous **views into the segment memmap** — the rest of
        the segment is never read, which is the store's zero-copy
        guarantee (asserted in tests).
        """
        if not 0 <= site_id < self.record.num_sites:
            raise StoreError(f"site {site_id} out of range "
                             f"for run {self.record.run_id}")
        with timed_query("timeseries", run=self.record.run_id, site=site_id):
            indptr = self.reader.run_indptr(self.record)
            start = self.record.entry_start + int(indptr[site_id])
            stop = self.record.entry_start + int(indptr[site_id + 1])
            return (self.reader.array("slice")[start:stop],
                    self.reader.array("acc")[start:stop])

    def slice_overall(self) -> np.ndarray:
        """Per-slice overall program accuracy (Figure 8's black line)."""
        return self.reader.run_overall(self.record)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(exec, correct) per-site totals of the whole run."""
        if not self.record.has_counts:
            raise StoreError(
                f"run {self.record.run_id} was stored without per-site counts"
            )
        return self.reader.run_counts(self.record)

    def window_counts(
        self,
        lo_slice: int = 0,
        hi_slice: int | None = None,
        low_line: float | None = None,
    ) -> "WindowCounts":
        """Per-site observation counters over a slice window.

        Each qualifying slice of a branch is one *observation*; an
        observation whose raw accuracy fell below ``low_line`` (default:
        the run's overall accuracy) is a *low* observation.  Restricting
        to ``[lo_slice, hi_slice)`` lets callers score only the window an
        alert or a phase change points at.  These counters are what
        tarantula/ochiai-style suspiciousness scoring consumes — the
        stored-run analogue of good/bad coverage frequencies in
        statistical fault localization.
        """
        record = self.record
        hi = record.n_slices if hi_slice is None else int(hi_slice)
        lo = int(lo_slice)
        line = record.overall_accuracy if low_line is None else float(low_line)
        with timed_query("window_counts", run=record.run_id, lo=lo, hi=hi):
            sites, slice_idx, acc = self._entries()
            in_window = (slice_idx >= lo) & (slice_idx < hi)
            total = np.bincount(
                sites[in_window], minlength=record.num_sites).astype(np.int64)
            low = np.bincount(
                sites[in_window & (acc < line)],
                minlength=record.num_sites).astype(np.int64)
            return WindowCounts(total=total, low=low, line=line,
                                lo_slice=lo, hi_slice=hi)

    def as_simulation(self) -> SimulationResult:
        """A counts-only :class:`SimulationResult` view for truth queries."""
        exec_counts, correct_counts = self.counts()
        return SimulationResult(
            predictor_name=self.record.predictor,
            num_sites=self.record.num_sites,
            correct=np.zeros(0, dtype=np.uint8),
            exec_counts=np.asarray(exec_counts),
            correct_counts=np.asarray(correct_counts),
        )

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(site, slice index, raw accuracy) of every stored entry of the run."""
        slice_idx, acc = self.reader.run_entries(self.record)
        indptr = self.reader.run_indptr(self.record)
        sites = np.repeat(np.arange(self.record.num_sites), np.diff(indptr))
        return sites, np.asarray(slice_idx), np.asarray(acc)

    # -- derived statistics --------------------------------------------

    def report(self, mean_th=..., std_th: float | None = None,
               pam_th: float | None = None) -> TwoDReport:
        """The run refolded into a :class:`TwoDReport` (no replay).

        Rebuilds the dense raw (slice, site) accuracy matrix from the CSR
        slabs and feeds it through
        :func:`~repro.core.profiler2d.report_from_series` under the stored
        profiler config (``pam_exact`` included), with the given threshold
        overrides.  Records that predate the ``pam_exact``/``keep_series``
        fields decode them as ``False``.
        """
        record = self.record
        sites, slice_idx, acc = self._entries()
        series = np.full((record.n_slices, record.num_sites), np.nan)
        series[slice_idx, sites] = acc
        config = replace(
            ProfilerConfig.from_dict(record.config),
            thresholds=self.thresholds(mean_th, std_th, pam_th),
            keep_series=True,
        )
        return report_from_series(series, self.slice_overall(),
                                  record.overall_accuracy, config)

    def all_stats(self) -> dict[int, BranchSliceStats]:
        """Stats for every profiled branch (a view over :meth:`report`)."""
        report = self.report()
        return {site: report.stats[site] for site in sorted(report.profiled_sites())}


def reclassify(
    run: StoredRun,
    mean_th=...,
    std_th: float | None = None,
    pam_th: float | None = None,
) -> dict:
    """Re-run Figure 9c over a stored run under (possibly new) thresholds.

    Defaults reproduce the classification of the original run; overrides
    answer "what if ``std_th``/``pam_th`` were different" with no replay.
    Returns ``{"run", "thresholds", "profiled", "input_dependent", "verdicts"}``.
    """
    with timed_query("reclassify", run=run.run_id):
        report = run.report(mean_th=mean_th, std_th=std_th, pam_th=pam_th)
        return {
            "run": run.run_id,
            "thresholds": asdict(report.thresholds),
            "profiled": sorted(report.profiled_sites()),
            "input_dependent": sorted(report.input_dependent_sites()),
            "verdicts": report.verdicts(),
        }


def diff_runs(
    train: StoredRun,
    others: list[StoredRun],
    threshold: float = DEFAULT_THRESHOLD,
    min_executions: int = DEFAULT_MIN_EXECUTIONS,
) -> GroundTruth:
    """Ground-truth input-dependence from stored runs — no trace replay.

    Feeds the stored per-site counts through the same
    :func:`repro.core.groundtruth.ground_truth` the live pipeline uses,
    so the resulting labels are bit-identical to a fresh simulation-based
    computation (acceptance-tested in ``tests/test_store.py``).
    """
    if not others:
        raise StoreError("diff needs at least one non-train run")
    with timed_query("diff", train=train.run_id,
                     others=",".join(o.run_id for o in others)):
        return ground_truth(
            train.as_simulation(),
            [other.as_simulation() for other in others],
            threshold=threshold,
            min_executions=min_executions,
        )


def join_runs(a: StoredRun, b: StoredRun) -> list[dict]:
    """Per-branch join of two stored runs (e.g. gshare vs perceptron).

    One row per site profiled in both runs: each run's mean/std/PAM
    statistics and verdict, plus an ``agree`` flag — the stored-data
    version of the paper's Section 5.3 cross-predictor comparison.
    """
    with timed_query("join", a=a.run_id, b=b.run_id):
        verdicts_a = a.report().verdicts()
        verdicts_b = b.report().verdicts()
        rows = []
        for site in sorted(verdicts_a.keys() & verdicts_b.keys()):
            va, vb = verdicts_a[site], verdicts_b[site]
            rows.append({
                "site": site,
                "a_mean": va.mean, "a_std": va.std, "a_pam": va.pam_fraction,
                "a_dependent": va.input_dependent,
                "b_mean": vb.mean, "b_std": vb.std, "b_pam": vb.pam_fraction,
                "b_dependent": vb.input_dependent,
                "agree": va.input_dependent == vb.input_dependent,
            })
        return rows
