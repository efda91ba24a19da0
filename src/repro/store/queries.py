"""Query layer: the paper's questions answered from stored matrices.

Everything here reads committed runs through memmap views — no trace is
ever replayed.  Four query families:

* **Time-series retrieval** — :meth:`StoredRun.site_series` returns one
  branch's (slice indices, per-slice accuracies) as zero-copy slabs of
  the segment memmap (Figure 8 without re-simulation).
* **Re-classification** — :func:`reclassify` folds the stored raw slices
  through the same FIR/accumulator arithmetic as
  :func:`~repro.core.profiler2d.profile_trace` (bit-identical, by
  property test) and applies MEAN/STD/PAM under *new* thresholds.
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
from dataclasses import dataclass

import numpy as np

from repro.core.groundtruth import (
    DEFAULT_MIN_EXECUTIONS,
    DEFAULT_THRESHOLD,
    GroundTruth,
    ground_truth,
)
from repro.core.stats import PAM_EPSILON, BranchSliceStats, TestThresholds, classify
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


def fold_slice_values(values, use_fir: bool, fir_cold_start: bool) -> BranchSliceStats:
    """Fold one branch's raw per-slice accuracies into Figure 9a stats.

    Performs exactly the arithmetic :func:`~repro.core.profiler2d.profile_trace`
    applies to that branch — same FIR filter, same running-mean NPAM
    comparison, same operation order — so the resulting statistics (and
    any classification over them) are bit-identical to a fresh profiling
    run.  ``tests/test_store.py`` pins this with a property test.
    """
    n = 0
    spa = 0.0
    sspa = 0.0
    npam = 0
    lpa = 0.0
    has_lpa = bool(fir_cold_start)
    for raw in values:
        value = (raw + lpa) / 2.0 if (use_fir and has_lpa) else raw
        n += 1
        spa += value
        sspa += value * value
        if value > spa / n + PAM_EPSILON:
            npam += 1
        lpa = value
        has_lpa = True
    return BranchSliceStats(
        N=n, SPA=float(spa), SSPA=float(sspa), NPAM=npam,
        LPA=float(lpa), has_lpa=has_lpa,
    )


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
        config = self.record.config
        return TestThresholds(
            mean_th=config["mean_th"] if mean_th is ... else mean_th,
            std_th=config["std_th"] if std_th is None else std_th,
            pam_th=config["pam_th"] if pam_th is None else pam_th,
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
            indptr = np.asarray(self.reader.run_indptr(record))
            start = record.entry_start
            stop = record.entry_start + record.entry_count
            slice_idx = np.asarray(self.reader.array("slice")[start:stop])
            acc = np.asarray(self.reader.array("acc")[start:stop])
            sites = np.repeat(
                np.arange(record.num_sites), np.diff(indptr - indptr[0]))
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

    # -- derived statistics --------------------------------------------

    def all_stats(self) -> dict[int, BranchSliceStats]:
        """Stats for every profiled branch (one pass over the run's slab)."""
        indptr = np.asarray(self.reader.run_indptr(self.record))
        start, stop = self.record.entry_start, self.record.entry_start + self.record.entry_count
        acc = self.reader.array("acc")[start:stop]
        config = self.record.config
        use_fir, cold = config["use_fir"], config["fir_cold_start"]
        return {
            site: fold_slice_values(acc[indptr[site]:indptr[site + 1]], use_fir, cold)
            for site in range(self.record.num_sites)
            if indptr[site + 1] > indptr[site]
        }


def reclassify(
    run: StoredRun,
    mean_th=...,
    std_th: float | None = None,
    pam_th: float | None = None,
) -> dict:
    """Re-run Figure 9c over a stored run under (possibly new) thresholds.

    Defaults reproduce the classification of the original run; overrides
    answer "what if ``std_th``/``pam_th`` were different" with no replay.
    Returns ``{"input_dependent", "profiled", "thresholds", "verdicts"}``.
    """
    with timed_query("reclassify", run=run.run_id):
        thresholds = run.thresholds(mean_th=mean_th, std_th=std_th, pam_th=pam_th)
        stats = run.all_stats()
        dependent = sorted(
            site for site, st in stats.items()
            if classify(st, thresholds, run.overall_accuracy)
        )
        return {
            "run": run.run_id,
            "thresholds": {
                "mean_th": thresholds.mean_th,
                "std_th": thresholds.std_th,
                "pam_th": thresholds.pam_th,
            },
            "profiled": sorted(stats),
            "input_dependent": dependent,
            "stats": stats,
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
        stats_a = a.all_stats()
        stats_b = b.all_stats()
        th_a = a.thresholds()
        th_b = b.thresholds()
        rows = []
        for site in sorted(stats_a.keys() & stats_b.keys()):
            sa, sb = stats_a[site], stats_b[site]
            dep_a = classify(sa, th_a, a.overall_accuracy)
            dep_b = classify(sb, th_b, b.overall_accuracy)
            rows.append({
                "site": site,
                "a_mean": sa.mean, "a_std": sa.std, "a_pam": sa.pam_fraction,
                "a_dependent": dep_a,
                "b_mean": sb.mean, "b_std": sb.std, "b_pam": sb.pam_fraction,
                "b_dependent": dep_b,
                "agree": dep_a == dep_b,
            })
        return rows
