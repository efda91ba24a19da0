"""Parallel experiment engine.

Every figure/table is a function of two kinds of expensive artifacts — one
branch trace per (workload x input) run and one predictor replay per
(trace x predictor) — forming a two-level dependency DAG.
:class:`ParallelRunner` fans that grid out over a process pool with
dependency-aware scheduling: all missing traces are dispatched first, and
each trace's simulations are submitted the moment *its* trace lands (no
barrier between the levels, so a slow trace does not hold up replays of
fast ones).

Workers communicate exclusively through the on-disk cache, which
:mod:`repro.cachefs` makes safe under concurrent writers and crashes
(atomic publication + per-artifact locks).  Because warming only
*populates the cache* and the figures are then computed serially by the
parent from the very same artifacts, a parallel run produces
byte-identical rows and verdicts to a serial one.
"""

from __future__ import annotations

import logging
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.cachefs import sweep_tmp_files
from repro.errors import ExperimentError
from repro.obs import get_registry, get_tracer
from repro.obs.spool import merge_spool, remove_spool, worker_capture

log = logging.getLogger(__name__)

#: (workload, input) — one VM run.
TraceSpec = tuple[str, str]
#: (workload, input, predictor) — one replay of the trace above.
SimSpec = tuple[str, str, str]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0/negative means one per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class WarmStats:
    """What one :meth:`ParallelRunner.warm` pass did."""

    jobs: int
    traces: int
    sims: int

    @property
    def artifacts(self) -> int:
        return self.traces + self.sims


# ----------------------------------------------------------------------
# Worker entry points (module-level so they pickle under every start
# method).  Each builds a fresh runner from the pickled SuiteConfig and
# lets the normal artifact protocol do the caching.
# ----------------------------------------------------------------------


def _queue_wait(submit_ts: float) -> float:
    """Seconds this task sat in the pool's queue (wall clock, same host)."""
    wait_s = max(0.0, time.time() - submit_ts)
    get_registry().histogram("parallel_queue_wait_seconds").observe(wait_s)
    return wait_s


def _warm_trace(config, workload: str, input_name: str,
                spool_dir, submit_ts: float) -> TraceSpec:
    from repro.core.experiment import ExperimentRunner

    with worker_capture(spool_dir):
        with get_tracer().span("warm.trace", cat="parallel", workload=workload,
                               input=input_name) as sp:
            sp.set("queue_wait_s", round(_queue_wait(submit_ts), 6))
            ExperimentRunner(config).trace(workload, input_name)
    return (workload, input_name)


def _warm_sim(config, workload: str, input_name: str, predictor: str,
              spool_dir, submit_ts: float) -> SimSpec:
    from repro.core.experiment import ExperimentRunner

    with worker_capture(spool_dir):
        with get_tracer().span("warm.sim", cat="parallel", workload=workload,
                               input=input_name, predictor=predictor) as sp:
            sp.set("queue_wait_s", round(_queue_wait(submit_ts), 6))
            ExperimentRunner(config).simulation(workload, input_name, predictor)
    return (workload, input_name, predictor)


class ParallelRunner:
    """Fans an artifact grid out over worker processes to warm the cache."""

    def __init__(self, runner, jobs: int | None = None):
        self.runner = runner
        self.jobs = resolve_jobs(jobs)

    def warm(
        self,
        sims: "list[SimSpec] | tuple | set" = (),
        traces: "list[TraceSpec] | tuple | set" = (),
    ) -> WarmStats:
        """Ensure every artifact in the grid exists (computing in parallel).

        ``sims`` are (workload, input, predictor) triples; ``traces`` are
        extra (workload, input) pairs wanted on their own (each sim's
        trace is implied).  Raises :class:`ExperimentError` if any worker
        fails, after draining the rest.
        """
        sim_specs = list(dict.fromkeys(tuple(s) for s in sims))
        trace_specs = list(
            dict.fromkeys(
                [tuple(t) for t in traces] + [(w, i) for (w, i, _p) in sim_specs]
            )
        )
        parallel = self.jobs > 1
        with get_tracer().span("warm", cat="parallel", jobs=self.jobs,
                               traces=len(trace_specs), sims=len(sim_specs),
                               mode="parallel" if parallel else "serial"):
            if parallel:
                self._warm_parallel(trace_specs, sim_specs)
            else:
                self._warm_serial(trace_specs, sim_specs)
        return WarmStats(jobs=self.jobs, traces=len(trace_specs), sims=len(sim_specs))

    # ------------------------------------------------------------------

    def _warm_serial(self, traces: list[TraceSpec], sims: list[SimSpec]) -> None:
        for workload, input_name in traces:
            self.runner.trace(workload, input_name)
        for workload, input_name, predictor in sims:
            self.runner.simulation(workload, input_name, predictor)

    def _warm_parallel(self, traces: list[TraceSpec], sims: list[SimSpec]) -> None:
        config = self.runner.config
        sweep_tmp_files(config.cache_dir / "traces")
        sweep_tmp_files(config.cache_dir / "sims")
        config.cache_dir.mkdir(parents=True, exist_ok=True)
        spool_dir = tempfile.mkdtemp(prefix="obs-spool-", dir=config.cache_dir)
        pending_gauge = get_registry().gauge("parallel_pending_tasks")

        # Group each trace's dependent simulations so they can be
        # released as soon as that trace is published.
        sims_by_trace: dict[TraceSpec, list[SimSpec]] = {key: [] for key in traces}
        for spec in sims:
            sims_by_trace[(spec[0], spec[1])].append(spec)

        errors: list[str] = []
        try:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                pending: dict[Future, TraceSpec | SimSpec] = {}

                def submit(fn, spec) -> None:
                    pending[pool.submit(fn, config, *spec,
                                        spool_dir=spool_dir,
                                        submit_ts=time.time())] = spec
                    pending_gauge.set(len(pending))

                for trace_key in traces:
                    if self.runner._trace_path(*trace_key).exists():
                        # Cached trace: its sims have no dependency to wait on.
                        for spec in sims_by_trace.pop(trace_key):
                            submit(_warm_sim, spec)
                    else:
                        submit(_warm_trace, trace_key)
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        spec = pending.pop(future)
                        exc = future.exception()
                        if exc is not None:
                            errors.append(f"{spec}: {exc}")
                            sims_by_trace.pop(spec[:2], None)  # type: ignore[index]
                            continue
                        if len(spec) == 2:  # a trace landed; release its sims
                            for sim_spec in sims_by_trace.pop(spec, ()):
                                submit(_warm_sim, sim_spec)
                    pending_gauge.set(len(pending))
        finally:
            merged = merge_spool(spool_dir)
            remove_spool(spool_dir)
            pending_gauge.set(0)
            log.debug("merged %d worker spool file(s)", merged)
        if errors:
            raise ExperimentError(
                f"parallel warm-up failed for {len(errors)} artifact(s): "
                + "; ".join(sorted(errors))
            )
