"""Experiment orchestration with on-disk caching.

Every figure/table in the paper is a function of a small set of expensive
artifacts: branch traces (one VM run per workload x input) and predictor
simulations (one replay per trace x predictor).  :class:`ExperimentRunner`
computes these lazily and caches them both in memory and on disk, keyed by
(workload, input, scale) and predictor name, so the benchmark suite shares
runs across figures.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro.errors import ExperimentError, TraceError
from repro.cachefs import artifact_lock, atomic_savez
from repro.obs import get_registry, get_tracer
from repro.core.groundtruth import (
    DEFAULT_MIN_EXECUTIONS,
    DEFAULT_THRESHOLD,
    GroundTruth,
    dynamic_dependent_fraction,
    ground_truth,
)
from repro.core.metrics import CovAccMetrics, evaluate_detection
from repro.core.profiler2d import ProfilerConfig, TwoDReport, profile_trace
from repro.predictors import make_predictor
from repro.predictors.simulate import SimulationResult, simulate
from repro.trace.capture import capture_traces
from repro.trace.trace import BranchTrace
from repro.workloads import get_workload

log = logging.getLogger(__name__)

_A = TypeVar("_A")


def default_cache_dir() -> Path:
    """Cache root: $REPRO_2DPROF_CACHE or ~/.cache/repro-2dprof."""
    env = os.environ.get("REPRO_2DPROF_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-2dprof"


@dataclass
class SuiteConfig:
    """Shared parameters of one experiment campaign.

    ``jobs`` is the default worker-process count for :meth:`ExperimentRunner.prefetch`
    (1 = in-process serial; 0/None = one per CPU).  ``warehouse_dir``
    enables the profile warehouse: every profiling run is auto-ingested
    into the columnar store at that path (see :mod:`repro.store`).
    """

    scale: float = 1.0
    cache_dir: Path = field(default_factory=default_cache_dir)
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)
    dep_threshold: float = DEFAULT_THRESHOLD
    min_executions: int = DEFAULT_MIN_EXECUTIONS
    use_disk_cache: bool = True
    jobs: int = 1
    warehouse_dir: Path | None = None


class ExperimentRunner:
    """Lazily computes and caches traces, simulations, and derived results."""

    def __init__(self, config: SuiteConfig | None = None):
        self.config = config or SuiteConfig()
        self._traces: dict[tuple[str, str], BranchTrace] = {}
        self._sims: dict[tuple[str, str, str], SimulationResult] = {}
        self._warehouse = None

    @property
    def warehouse(self):
        """The configured :class:`~repro.store.warehouse.ProfileWarehouse`.

        Raises :class:`ExperimentError` when ``SuiteConfig.warehouse_dir``
        is unset — callers must opt in to the store.
        """
        if self.config.warehouse_dir is None:
            raise ExperimentError("SuiteConfig.warehouse_dir is not configured")
        if self._warehouse is None:
            from repro.store import ProfileWarehouse

            self._warehouse = ProfileWarehouse(self.config.warehouse_dir)
        return self._warehouse

    # ------------------------------------------------------------------
    # Cache paths
    # ------------------------------------------------------------------

    def _scale_tag(self) -> str:
        return f"s{self.config.scale:g}"

    def _trace_path(self, workload: str, input_name: str) -> Path:
        return self.config.cache_dir / "traces" / f"{workload}-{input_name}-{self._scale_tag()}.npz"

    def _sim_path(self, workload: str, input_name: str, predictor: str) -> Path:
        return (
            self.config.cache_dir
            / "sims"
            / f"{workload}-{input_name}-{self._scale_tag()}-{predictor}.npz"
        )

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------

    def _load_or_compute(
        self,
        path: Path,
        load: Callable[[Path], _A],
        compute: Callable[[], _A],
        save: Callable[[Path, _A], None],
        kind: str = "artifact",
        **span_attrs,
    ) -> _A:
        """Disk-cache protocol shared by traces and simulations.

        A corrupt or truncated cache entry is treated as a miss: it is
        logged, recomputed, and atomically overwritten.  Computation of a
        missing entry holds the artifact's lock so concurrent processes
        asked for the same artifact do the work once; the cache is
        re-checked after acquiring the lock because the previous holder
        usually just published the entry we want.

        The whole protocol runs under one ``experiment.<kind>`` span, and
        every outcome bumps the matching ``cache_*_total{kind=...}``
        counter (corrupt entries are counted where they are detected, in
        :meth:`_try_load`).
        """
        with get_tracer().span(f"experiment.{kind}", cat="experiment", **span_attrs) as sp:
            if not self.config.use_disk_cache:
                sp.set("cache", "off")
                return compute()
            artifact = self._try_load(path, load, kind)
            if artifact is not None:
                self._count_cache("hits", kind)
                sp.set("cache", "hit")
                return artifact
            with artifact_lock(path):
                artifact = self._try_load(path, load, kind)
                if artifact is not None:
                    # The previous lock holder published it while we waited.
                    self._count_cache("hits", kind)
                    sp.set("cache", "hit-after-wait")
                    return artifact
                self._count_cache("misses", kind)
                sp.set("cache", "miss")
                artifact = compute()
                save(path, artifact)
            return artifact

    @staticmethod
    def _count_cache(outcome: str, kind: str) -> None:
        get_registry().counter(
            f"cache_{outcome}_total", f"disk-cache {outcome} by artifact kind"
        ).labels(kind=kind).inc()

    @classmethod
    def _try_load(cls, path: Path, load: Callable[[Path], _A], kind: str = "artifact") -> _A | None:
        if not path.exists():
            return None
        try:
            return load(path)
        except (TraceError, ExperimentError) as exc:
            log.warning("corrupt cache entry %s (%s); recomputing", path, exc)
            cls._count_cache("corrupt", kind)
            return None

    def trace(self, workload: str, input_name: str) -> BranchTrace:
        """The branch trace of one (workload, input) run."""
        key = (workload, input_name)
        if key in self._traces:
            return self._traces[key]

        def compute() -> BranchTrace:
            wl = get_workload(workload)
            # capture_traces is the one capture entry point of the pipeline;
            # the sweep passes it whole populations, the runner one input.
            inputs = [wl.make_input(input_name, self.config.scale)]
            return capture_traces(wl.program(), inputs)[0]

        trace = self._load_or_compute(
            self._trace_path(workload, input_name),
            BranchTrace.load,
            compute,
            lambda path, trace: trace.save(path),
            kind="trace",
            workload=workload,
            input=input_name,
        )
        self._traces[key] = trace
        return trace

    def simulation(self, workload: str, input_name: str, predictor: str = "gshare") -> SimulationResult:
        """Predictor simulation over one trace (cold-start replay)."""
        key = (workload, input_name, predictor)
        if key in self._sims:
            return self._sims[key]

        def compute() -> SimulationResult:
            trace = self.trace(workload, input_name)
            return simulate(make_predictor(predictor), trace)

        sim = self._load_or_compute(
            self._sim_path(workload, input_name, predictor),
            self._load_sim,
            compute,
            self._save_sim,
            kind="sim",
            workload=workload,
            input=input_name,
            predictor=predictor,
        )
        self._sims[key] = sim
        return sim

    def prefetch(
        self,
        sims: Iterable[tuple[str, str, str]] = (),
        traces: Iterable[tuple[str, str]] = (),
        jobs: int | None = None,
    ):
        """Warm the cache for a grid of artifacts, possibly in parallel.

        ``sims`` is an iterable of (workload, input, predictor) triples and
        ``traces`` of extra (workload, input) pairs not implied by a sim.
        With ``jobs`` != 1 the work fans out over worker processes with
        traces computed before the simulations that replay them; see
        :class:`repro.core.parallel.ParallelRunner`.  Returns its
        :class:`repro.core.parallel.WarmStats`.
        """
        from repro.core.parallel import ParallelRunner

        if jobs is None:
            jobs = self.config.jobs
        return ParallelRunner(self, jobs=jobs).warm(sims, traces)

    @staticmethod
    def _save_sim(path: Path, sim: SimulationResult) -> None:
        atomic_savez(
            path,
            predictor_name=np.bytes_(sim.predictor_name.encode()),
            num_sites=np.int64(sim.num_sites),
            correct=sim.correct,
            exec_counts=sim.exec_counts,
            correct_counts=sim.correct_counts,
        )

    @staticmethod
    def _load_sim(path: Path) -> SimulationResult:
        try:
            with np.load(path) as data:
                return SimulationResult(
                    predictor_name=bytes(data["predictor_name"].item()).decode(),
                    num_sites=int(data["num_sites"]),
                    correct=data["correct"],
                    exec_counts=data["exec_counts"],
                    correct_counts=data["correct_counts"],
                )
        except (KeyError, ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
            raise ExperimentError(f"cannot load simulation from {path}: {exc}") from exc

    # ------------------------------------------------------------------
    # Derived results
    # ------------------------------------------------------------------

    def profile_2d(
        self,
        workload: str,
        predictor: str = "gshare",
        input_name: str = "train",
        config: ProfilerConfig | None = None,
    ) -> TwoDReport:
        """Run 2D-profiling for a workload (train input, by default).

        With ``SuiteConfig.warehouse_dir`` set, the report (profiled with
        ``keep_series=True``) is also ingested into the profile warehouse;
        identical re-runs dedupe against the stored copy.
        """
        trace = self.trace(workload, input_name)
        sim = self.simulation(workload, input_name, predictor)
        config = config or self.config.profiler
        if self.config.warehouse_dir is not None and not config.keep_series:
            config = dataclasses.replace(config, keep_series=True)
        report = profile_trace(trace, simulation=sim, config=config)
        if self.config.warehouse_dir is not None:
            from repro.store import IngestRun

            self.warehouse.ingest([IngestRun(
                report, workload, input_name, predictor,
                scale=self.config.scale, sim=sim, source="experiment",
            )])
        return report

    def ground_truth(
        self,
        workload: str,
        predictor: str = "gshare",
        others: list[str] | None = None,
    ) -> GroundTruth:
        """Ground-truth input-dependence vs. the train input.

        ``others`` defaults to ``["ref"]`` (the paper's base definition);
        pass e.g. ``["ref", "ext-1", "ext-2"]`` for the Section 5.2 unions.
        """
        others = others or ["ref"]
        return ground_truth(
            self.simulation(workload, "train", predictor),
            [self.simulation(workload, name, predictor) for name in others],
            threshold=self.config.dep_threshold,
            min_executions=self.config.min_executions,
        )

    def evaluate(
        self,
        workload: str,
        profiler_predictor: str = "gshare",
        target_predictor: str | None = None,
        others: list[str] | None = None,
        config: ProfilerConfig | None = None,
    ) -> CovAccMetrics:
        """End-to-end COV/ACC of 2D-profiling for one workload.

        The profiler runs with ``profiler_predictor`` on the train input;
        the ground truth uses ``target_predictor`` (defaults to the same),
        enabling the paper's Section 5.3 cross-predictor experiment.
        """
        target_predictor = target_predictor or profiler_predictor
        report = self.profile_2d(workload, profiler_predictor, config=config)
        truth = self.ground_truth(workload, target_predictor, others)
        return evaluate_detection(report.input_dependent_sites(), truth)

    def dependent_fractions(
        self,
        workload: str,
        predictor: str = "gshare",
        others: list[str] | None = None,
    ) -> tuple[float, float]:
        """(dynamic, static) fraction of input-dependent branches (Fig. 3)."""
        truth = self.ground_truth(workload, predictor, others)
        ref_sim = self.simulation(workload, "ref", predictor)
        return dynamic_dependent_fraction(ref_sim, truth), truth.dependent_fraction

    def incremental_input_sets(self, workload: str) -> list[list[str]]:
        """The paper's base, base-ext1, ..., base-ext1-k comparison lists."""
        wl = get_workload(workload)
        lists: list[list[str]] = [["ref"]]
        current = ["ref"]
        for ext in wl.ext_names:
            current = current + [ext]
            lists.append(list(current))
        return lists
