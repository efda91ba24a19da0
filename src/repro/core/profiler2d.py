"""The 2D-profiling algorithm (paper Section 3, Figure 9).

:class:`TwoDProfiler` maintains exactly the seven per-branch variables of
Figure 9a and performs the slice update of Figure 9b, including the 2-tap
FIR filter and the running-mean NPAM approximation the paper describes in
footnote 5.  It has two entry points that are tested against each other:

* ``record(site, correct)`` — one call per dynamic branch (used behind the
  Pin-style callback hook, as the paper's actual tool runs); this is the
  reference path;
* ``record_batch(sites, correct)`` — folds whole slices at once with
  flattened numpy bincounts.  The streaming service and
  :func:`profile_trace` (how the experiment suite runs) both use it.

Either way, :meth:`TwoDProfiler._fold_row` is the one Figure 9b update.
:func:`report_from_series` feeds it stored raw-accuracy rows (warehouse
runs, the ``pam_exact`` ablation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.core.stats import (
    PAM_EPSILON,
    BranchSliceStats,
    TestThresholds,
    classify,
    mean_test,
    pam_test,
    std_test,
)
from repro.predictors.base import Predictor
from repro.predictors.simulate import SimulationResult, simulate
from repro.trace.trace import BranchTrace


_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_BOOLS = (bool, np.bool_)

#: The encoded fields of a resolved config (see :meth:`ProfilerConfig.to_dict`):
#: name -> (accepted types, converter, may be None, least value).
_CONFIG_FIELDS = {
    "slice_size": (_INTS, int, True, 1),
    "exec_threshold": (_INTS, int, True, 0),
    "mean_th": (_REALS, float, True, None),
    "std_th": (_REALS, float, False, None),
    "pam_th": (_REALS, float, False, None),
    "use_fir": (_BOOLS, bool, False, None),
    "fir_cold_start": (_BOOLS, bool, False, None),
    "pam_exact": (_BOOLS, bool, False, None),
    "keep_series": (_BOOLS, bool, False, None),
}


def _config_field(key: str, value):
    """One config field as its JSON-safe Python value, type-checked."""
    kinds, convert, nullable, least = _CONFIG_FIELDS[key]
    if value is None and nullable:
        return None
    # bool is an int subclass: refuse it for numbers, require it for flags.
    if not isinstance(value, kinds) or isinstance(value, _BOOLS) != (convert is bool):
        raise ExperimentError(f"profiler config field {key!r} has bad value {value!r}")
    if least is not None and value < least:
        raise ExperimentError(f"profiler config field {key!r} must be >= {least}")
    return convert(value)


@dataclass(frozen=True)
class ProfilerConfig:
    """Configuration of one 2D-profiling run.

    ``slice_size`` is in *dynamic conditional branches* (the paper fixes it
    at 15 M branches for multi-billion-branch SPEC runs; our runs are
    shorter, so :func:`profile_trace` auto-scales it to give
    ``target_slices`` slices when it is ``None``).  ``exec_threshold``
    discards per-branch slice samples with too few executions (paper: 1000
    for 15 M-branch slices); when ``None`` it scales proportionally to the
    chosen slice size.  ``use_fir`` and ``pam_exact`` exist for the
    ablation studies; the paper's algorithm is the default.
    """

    slice_size: int | None = None
    exec_threshold: int | None = None
    thresholds: TestThresholds = field(default_factory=TestThresholds)
    use_fir: bool = True
    fir_cold_start: bool = False
    pam_exact: bool = False
    keep_series: bool = False
    target_slices: int = 80
    min_slice_size: int = 500

    #: paper ratio: exec_threshold 1000 for 15M-branch slices.
    _EXEC_THRESHOLD_RATIO = 1000 / 15_000_000

    def resolve(self, total_branches: int) -> "ProfilerConfig":
        """Fill in auto-scaled slice_size / exec_threshold for a run length."""
        slice_size = self.slice_size
        if slice_size is None:
            slice_size = max(self.min_slice_size, total_branches // self.target_slices)
        exec_threshold = self.exec_threshold
        if exec_threshold is None:
            exec_threshold = max(4, int(slice_size * self._EXEC_THRESHOLD_RATIO))
        return dataclasses.replace(
            self,
            slice_size=slice_size,
            exec_threshold=exec_threshold,
            keep_series=self.keep_series or self.pam_exact,
        )

    def to_dict(self) -> dict:
        """The resolved config as nine JSON-safe fields — its one encoding.

        The service's ``open`` frame, profiler checkpoints and warehouse
        run records all carry this dict; :meth:`from_dict` reads it back.
        """
        if self.slice_size is None:
            raise ExperimentError("encoding a config needs an explicit slice_size")
        config = self.resolve(0)
        values = {**dataclasses.asdict(config), **dataclasses.asdict(config.thresholds)}
        return {key: _config_field(key, values[key]) for key in _CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, mapping) -> "ProfilerConfig":
        """Decode the :meth:`to_dict` fields of ``mapping``; other keys are ignored.

        An absent field takes the dataclass default; a value of the wrong
        type (a bool where a number belongs, a string, a list, ``None``
        for a required threshold) raises :class:`ExperimentError`.
        """
        fields = {key: _config_field(key, mapping[key])
                  for key in _CONFIG_FIELDS if key in mapping}
        names = [item.name for item in dataclasses.fields(TestThresholds)]
        thresholds = TestThresholds(**{key: fields.pop(key) for key in names if key in fields})
        return cls(thresholds=thresholds, **fields)


@dataclass(frozen=True)
class BranchVerdict:
    """Final per-branch output of a 2D-profiling run."""

    site_id: int
    input_dependent: bool
    n_slices: int
    mean: float
    std: float
    pam_fraction: float
    passed_mean: bool
    passed_std: bool
    passed_pam: bool


class TwoDReport:
    """Results of one 2D-profiling run (Figure 9c applied to every branch)."""

    def __init__(
        self,
        num_sites: int,
        stats: list[BranchSliceStats],
        thresholds: TestThresholds,
        overall_accuracy: float,
        config: ProfilerConfig,
        series: np.ndarray | None = None,
        slice_overall: np.ndarray | None = None,
    ):
        self.num_sites = num_sites
        self.stats = stats
        self.thresholds = thresholds
        self.overall_accuracy = overall_accuracy
        self.config = config
        #: Optional (n_slices, num_sites) matrix of raw per-slice accuracies
        #: with NaN where the branch did not qualify in that slice.
        self.series = series
        #: Optional per-slice overall program accuracy (Fig. 8's black line).
        self.slice_overall = slice_overall

    # ------------------------------------------------------------------
    # Classification (Figure 9c)
    # ------------------------------------------------------------------

    @property
    def mean_threshold(self) -> float:
        mean_th = self.thresholds.mean_th
        return mean_th if mean_th is not None else self.overall_accuracy

    def verdict(self, site_id: int) -> BranchVerdict:
        stats = self.stats[site_id]
        passed_mean = mean_test(stats, self.mean_threshold)
        passed_std = std_test(stats, self.thresholds.std_th)
        passed_pam = pam_test(stats, self.thresholds.pam_th)
        return BranchVerdict(
            site_id=site_id,
            input_dependent=(passed_mean or passed_std) and passed_pam,
            n_slices=stats.N,
            mean=stats.mean,
            std=stats.std,
            pam_fraction=stats.pam_fraction,
            passed_mean=passed_mean,
            passed_std=passed_std,
            passed_pam=passed_pam,
        )

    def verdicts(self) -> dict[int, BranchVerdict]:
        """Verdicts for every branch that qualified in at least one slice."""
        return {
            site: self.verdict(site)
            for site in range(self.num_sites)
            if self.stats[site].N > 0
        }

    def input_dependent_sites(self) -> set[int]:
        """The set the algorithm predicts to be input-dependent."""
        return {
            site
            for site in range(self.num_sites)
            if self.stats[site].N > 0
            and classify(self.stats[site], self.thresholds, self.overall_accuracy)
        }

    def profiled_sites(self) -> set[int]:
        """Branches with at least one qualifying slice (the decidable set)."""
        return {site for site in range(self.num_sites) if self.stats[site].N > 0}

    def site_series(self, site_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(slice_indices, raw accuracies) for one branch — Figure 8 data."""
        if self.series is None:
            raise ExperimentError("run with keep_series=True to get time series")
        column = self.series[:, site_id]
        valid = ~np.isnan(column)
        return np.nonzero(valid)[0], column[valid]


def _slice_counts(
    sites: np.ndarray, weights: np.ndarray, slice_size: int, num_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(slice, site) execution and weighted-correct sums in one pass.

    Flattens the ``(slice index, site)`` pair into a single bincount key,
    pricing every slice of the span at once instead of one bincount per
    slice.  ``bincount`` accumulates in array order, so each bin's float
    sum adds the same 0/1 values in the same order a per-slice bincount
    would — and 0/1 sums are exact integers in float64 regardless — so
    the result is bit-identical to the slice-at-a-time fold.  The last
    slice may be shorter than ``slice_size``.
    """
    n = int(sites.size)
    n_slices = (n + slice_size - 1) // slice_size
    slice_ids = np.arange(n, dtype=np.int64) // slice_size
    flat = slice_ids * num_sites + sites.astype(np.int64)
    length = n_slices * num_sites
    exec_matrix = np.bincount(flat, minlength=length).reshape(n_slices, num_sites)
    weight_matrix = np.bincount(
        flat, weights=weights, minlength=length
    ).reshape(n_slices, num_sites)
    return exec_matrix, weight_matrix


#: On-disk / over-the-wire profiler-state format version (see
#: :meth:`TwoDProfiler.state_dict`).  Bump on any layout change.
PROFILER_STATE_VERSION = 1

#: Array fields of the serialized profiler state, in canonical order.
_STATE_ARRAYS = ("N", "SPA", "SSPA", "NPAM", "LPA", "has_lpa",
                 "exec_counter", "predict_counter")


class TwoDProfiler:
    """The 2D-profiler: :meth:`record` per branch or :meth:`record_batch`.

    State lives in per-site numpy arrays (the columns of Figure 9a), which
    makes three things cheap: batched ingestion (:meth:`record_batch`
    folds whole event batches with bincounts, bit-identical to the scalar
    path), snapshotting (:meth:`state_dict` returns plain arrays that
    round-trip through ``.npz``), and resuming (:meth:`from_state`
    reconstructs a profiler that continues byte-identically — the
    streaming service's checkpoint/resume is built on this pair).
    """

    def __init__(self, num_sites: int, config: ProfilerConfig):
        if config.slice_size is None:
            raise ExperimentError("online profiling needs an explicit slice_size")
        self.num_sites = num_sites
        self.config = config.resolve(total_branches=0)
        self._slice_size = self.config.slice_size
        self._exec_threshold = self.config.exec_threshold
        self._use_fir = self.config.use_fir
        self._N = np.zeros(num_sites, dtype=np.int64)
        self._SPA = np.zeros(num_sites, dtype=np.float64)
        self._SSPA = np.zeros(num_sites, dtype=np.float64)
        self._NPAM = np.zeros(num_sites, dtype=np.int64)
        self._LPA = np.zeros(num_sites, dtype=np.float64)
        self._has_lpa = np.full(num_sites, self.config.fir_cold_start)
        self._exec = np.zeros(num_sites, dtype=np.int64)
        self._pred = np.zeros(num_sites, dtype=np.int64)
        self._in_slice = 0
        self.total_branches = 0
        self.total_correct = 0
        self._series_rows: list[np.ndarray] | None = [] if self.config.keep_series else None
        self._slice_overall: list[float] = []
        self._slice_correct = 0

    @property
    def stats(self) -> list[BranchSliceStats]:
        """A snapshot view of the per-branch Figure 9a variables.

        Built on demand from the array state; mutating the returned
        objects does not feed back into the profiler.
        """
        return [
            BranchSliceStats(
                N=int(self._N[site]),
                SPA=float(self._SPA[site]),
                SSPA=float(self._SSPA[site]),
                NPAM=int(self._NPAM[site]),
                LPA=float(self._LPA[site]),
                exec_counter=int(self._exec[site]),
                predict_counter=int(self._pred[site]),
                has_lpa=bool(self._has_lpa[site]),
            )
            for site in range(self.num_sites)
        ]

    def record(self, site_id: int, correct: int) -> None:
        """Observe one dynamic branch: was the prediction correct?"""
        self._exec[site_id] += 1
        if correct:
            self._pred[site_id] += 1
            self.total_correct += 1
            self._slice_correct += 1
        self.total_branches += 1
        self._in_slice += 1
        if self._in_slice >= self._slice_size:
            self._end_slice()

    def record_batch(self, sites: np.ndarray, correct: np.ndarray) -> None:
        """Fold a batch of dynamic branches, bit-identical to a record() loop.

        ``sites[i]`` is the static site id of the *i*-th branch in the
        batch and ``correct[i]`` is 1 if its prediction was right.  Any
        span of whole slices inside the batch is priced with a single
        flattened ``(slice, site)`` bincount (see :func:`_slice_counts`);
        partial slices at the batch edges accumulate as before.  Because
        the per-slice arithmetic is the same float operations in the same
        order — and the per-bin integer sums are grouping-invariant — the
        end state is exactly what the one-event-at-a-time path produces.
        """
        sites = np.asarray(sites)
        correct = np.asarray(correct)
        if sites.shape != correct.shape:
            raise ExperimentError("sites and correct must have the same length")
        n = int(sites.size)
        if n == 0:
            return
        if sites.size and (int(sites.min()) < 0 or int(sites.max()) >= self.num_sites):
            raise ExperimentError("batch references a site id beyond num_sites")
        correct_int = correct.astype(np.int64)
        pos = 0
        while pos < n:
            whole = (n - pos) // self._slice_size
            if self._in_slice == 0 and whole:
                # Aligned on a slice boundary with >= 1 whole slice left:
                # price them all in one shot.
                take = whole * self._slice_size
                exec_matrix, pred_matrix = _slice_counts(
                    sites[pos:pos + take], correct_int[pos:pos + take],
                    self._slice_size, self.num_sites,
                )
                pred_matrix = pred_matrix.astype(np.int64)
                per_slice_correct = pred_matrix.sum(axis=1)
                for row in range(whole):
                    n_correct = int(per_slice_correct[row])
                    self.total_correct += n_correct
                    self.total_branches += self._slice_size
                    self._fold_slice(
                        exec_matrix[row], pred_matrix[row],
                        self._slice_size, n_correct,
                    )
                pos += take
                continue
            take = min(self._slice_size - self._in_slice, n - pos)
            chunk = sites[pos:pos + take]
            chunk_correct = correct_int[pos:pos + take]
            self._exec += np.bincount(chunk, minlength=self.num_sites)
            self._pred += np.bincount(
                chunk, weights=chunk_correct, minlength=self.num_sites
            ).astype(np.int64)
            n_correct = int(chunk_correct.sum())
            self.total_correct += n_correct
            self._slice_correct += n_correct
            self.total_branches += take
            self._in_slice += take
            pos += take
            if self._in_slice >= self._slice_size:
                self._end_slice()

    def _end_slice(self) -> None:
        self._fold_slice(self._exec, self._pred, self._in_slice, self._slice_correct)
        self._exec[:] = 0
        self._pred[:] = 0
        self._in_slice = 0
        self._slice_correct = 0

    def _fold_slice(
        self,
        exec_counts: np.ndarray,
        pred_counts: np.ndarray,
        slice_len: int,
        slice_correct: int,
    ) -> None:
        """Price one slice's per-site counts into a raw-accuracy row and fold it."""
        qualified = exec_counts > self._exec_threshold
        row = np.full(self.num_sites, np.nan)
        row[qualified] = pred_counts[qualified] / exec_counts[qualified]
        self._fold_row(row, slice_correct / slice_len if slice_len else 0.0)

    def _fold_row(self, row: np.ndarray, slice_overall: float) -> np.ndarray:
        """The Figure 9b slice update over one row of raw accuracies.

        ``row[site]`` is the branch's prediction accuracy in this slice, NaN
        where it did not qualify.  Returns the FIR-filtered row (NaN where
        the branch did not qualify).
        """
        if self._series_rows is not None:
            self._series_rows.append(row)
        self._slice_overall.append(slice_overall)
        qualified = ~np.isnan(row)
        filtered_row = (
            np.where(self._has_lpa, (row + self._LPA) / 2.0, row) if self._use_fir else row
        )
        filtered = filtered_row[qualified]
        self._has_lpa |= qualified
        self._N += qualified
        self._SPA[qualified] += filtered
        self._SSPA[qualified] += filtered * filtered
        running_mean = self._SPA[qualified] / self._N[qualified]
        self._NPAM[qualified] += filtered > running_mean + PAM_EPSILON
        self._LPA[qualified] = filtered
        return filtered_row

    # ------------------------------------------------------------------
    # Serialization (checkpoint/resume)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """The complete profiler state as numpy values (``.npz``-ready).

        :meth:`from_state` reconstructs a profiler from this dict that
        continues — and finishes — byte-identically.  Every field is a
        numpy scalar or array so the dict can go straight through
        ``savez``/``load`` without pickling; the config fields are
        :meth:`ProfilerConfig.to_dict` (an unset ``mean_th`` stored as NaN).
        """
        config = self.config.to_dict()
        if config["mean_th"] is None:
            config["mean_th"] = np.nan
        series = (
            np.array(self._series_rows)
            if self._series_rows
            else np.zeros((0, self.num_sites), dtype=np.float64)
        )
        return {
            "state_version": np.int64(PROFILER_STATE_VERSION),
            "num_sites": np.int64(self.num_sites),
            **{key: np.asarray(value) for key, value in config.items()},
            "N": self._N.copy(),
            "SPA": self._SPA.copy(),
            "SSPA": self._SSPA.copy(),
            "NPAM": self._NPAM.copy(),
            "LPA": self._LPA.copy(),
            "has_lpa": self._has_lpa.copy(),
            "exec_counter": self._exec.copy(),
            "predict_counter": self._pred.copy(),
            "in_slice": np.int64(self._in_slice),
            "total_branches": np.int64(self.total_branches),
            "total_correct": np.int64(self.total_correct),
            "slice_correct": np.int64(self._slice_correct),
            "series": series,
            "slice_overall": np.asarray(self._slice_overall, dtype=np.float64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TwoDProfiler":
        """Rebuild a profiler from a :meth:`state_dict` snapshot."""
        try:
            version = int(state["state_version"])
            if version != PROFILER_STATE_VERSION:
                raise ExperimentError(f"unsupported profiler state version {version}")
            num_sites = int(state["num_sites"])
            fields = {key: np.asarray(state[key])[()] for key in _CONFIG_FIELDS}
            if np.isnan(fields["mean_th"]):
                fields["mean_th"] = None
            config = ProfilerConfig.from_dict(fields)
            profiler = cls(num_sites, config)
            for name, target in zip(
                _STATE_ARRAYS,
                ("_N", "_SPA", "_SSPA", "_NPAM", "_LPA", "_has_lpa", "_exec", "_pred"),
            ):
                array = np.asarray(state[name])
                if array.shape != (num_sites,):
                    raise ExperimentError(f"state array {name!r} has wrong shape")
                template = getattr(profiler, target)
                setattr(profiler, target, array.astype(template.dtype, copy=True))
            profiler._in_slice = int(state["in_slice"])
            profiler.total_branches = int(state["total_branches"])
            profiler.total_correct = int(state["total_correct"])
            profiler._slice_correct = int(state["slice_correct"])
            series = np.asarray(state["series"], dtype=np.float64)
            if series.ndim != 2 or series.shape[1] != num_sites:
                raise ExperimentError("state array 'series' has wrong shape")
            if profiler._series_rows is not None:
                profiler._series_rows = [row.copy() for row in series]
            profiler._slice_overall = [float(v) for v in np.asarray(state["slice_overall"])]
            return profiler
        except (KeyError, ValueError, TypeError) as exc:
            raise ExperimentError(f"malformed profiler state: {exc}") from exc

    def finish(self) -> TwoDReport:
        """Close the run (folding a sufficiently full final slice) and report.

        A trailing partial slice is processed only if it holds at least
        half a slice worth of branches; tiny tails would only add noise.
        A ``pam_exact`` run is reported through :func:`report_from_series`.
        """
        if self._in_slice and self._in_slice >= self._slice_size // 2:
            self._end_slice()
        elif self._in_slice:
            # A dropped tail leaves no trace: clear the intra-slice
            # scratch so the report's exec/predict counters read zero.
            self._exec[:] = 0
            self._pred[:] = 0
            self._in_slice = 0
        overall = self.total_correct / self.total_branches if self.total_branches else 0.0
        if self.config.pam_exact:
            series = np.array(self._series_rows).reshape(len(self._series_rows), self.num_sites)
            return report_from_series(series, self._slice_overall, overall, self.config)
        return self._report(overall)

    def _report(self, overall_accuracy: float) -> TwoDReport:
        return TwoDReport(
            num_sites=self.num_sites,
            stats=self.stats,
            thresholds=self.config.thresholds,
            overall_accuracy=overall_accuracy,
            config=self.config,
            series=np.array(self._series_rows) if self._series_rows else None,
            slice_overall=np.array(self._slice_overall) if self._slice_overall else None,
        )


def report_from_series(
    series: np.ndarray,
    slice_overall,
    overall_accuracy: float,
    config: ProfilerConfig,
) -> TwoDReport:
    """Fold a raw (n_slices, num_sites) accuracy matrix into a report.

    ``series`` holds each branch's per-slice accuracy, NaN where it did not
    qualify — what a ``keep_series`` report or a warehouse run stores — and
    ``slice_overall`` the per-slice program accuracy.  Every row goes
    through :meth:`TwoDProfiler._fold_row`, so the report is bit-identical
    to the live run that produced the matrix.  With ``config.pam_exact``
    (ablation, footnote 5) NPAM counts the filtered values above the
    end-of-run mean instead of the running mean.
    """
    series = np.asarray(series, dtype=np.float64)
    profiler = TwoDProfiler(series.shape[1], config)
    filtered = np.full_like(series, np.nan)
    for index, (row, overall) in enumerate(zip(series, slice_overall, strict=True)):
        filtered[index] = profiler._fold_row(row, float(overall))
    if profiler.config.pam_exact:
        final_mean = profiler._SPA / np.maximum(profiler._N, 1)
        profiler._NPAM = np.sum(filtered > final_mean + PAM_EPSILON, axis=0)
    return profiler._report(overall_accuracy)


class OnlineProfilerTool:
    """Pin-style tool: predictor + online 2D-profiler ("2D+Gshare" mode)."""

    def __init__(self, predictor: Predictor, num_sites: int, config: ProfilerConfig):
        self.predictor = predictor
        self.profiler = TwoDProfiler(num_sites, config)

    def on_branch(self, site_id: int, taken: int) -> None:
        predicted = self.predictor.predict_and_update(site_id, taken)
        self.profiler.record(site_id, 1 if predicted == taken else 0)

    def finish(self) -> TwoDReport:
        return self.profiler.finish()


def profile_trace(
    trace: BranchTrace,
    predictor: Predictor | None = None,
    config: ProfilerConfig | None = None,
    simulation: SimulationResult | None = None,
) -> TwoDReport:
    """Run 2D-profiling over a captured trace.

    Either pass a ``predictor`` (it will be simulated over the trace) or a
    precomputed ``simulation`` for the same trace.  The whole correctness
    stream goes through one :meth:`TwoDProfiler.record_batch` call, so the
    result is exactly what the online profiler reports.
    """
    if (predictor is None) == (simulation is None):
        raise ExperimentError("pass exactly one of predictor or simulation")
    if simulation is None:
        simulation = simulate(predictor, trace)
    if simulation.num_branches != len(trace):
        raise ExperimentError("simulation does not match the trace length")

    config = (config or ProfilerConfig()).resolve(total_branches=len(trace))
    profiler = TwoDProfiler(trace.num_sites, config)
    profiler.record_batch(trace.sites, simulation.correct)
    return profiler.finish()
