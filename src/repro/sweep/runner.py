"""The sweep runner: trace a population, profile and ingest each lane.

One :func:`run_sweep` call prices an entire input population:

1. expand the :class:`~repro.sweep.population.PopulationSpec` into its
   input-set lanes;
2. trace every lane with :func:`repro.trace.capture.capture_traces`,
   which block-compiles the program once and runs each lane on the
   compiled VM (bit-identical to the interpreter);
3. replay every lane's trace through the (vectorized) predictor and the
   2D profiler;
4. ingest the whole population into the profile warehouse as one
   batch (one segment, one manifest commit, run ids in lane order) under
   the population's source tag and each lane's ``base~seed.i`` input
   name, so `sweep report` and ``db bisect --population`` can find the
   family later.  The batch is all-or-nothing: a failed or killed sweep
   commits no lane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.profiler2d import ProfilerConfig, TwoDReport, profile_trace
from repro.obs import get_registry, get_tracer
from repro.predictors import make_predictor
from repro.predictors.simulate import simulate
from repro.sweep.population import PopulationSpec, generate_population
from repro.trace.capture import capture_traces
from repro.vm.machine import DEFAULT_FUEL
from repro.workloads import get_workload


@dataclass
class SweepLane:
    """One profiled population member."""

    lane: int
    input_name: str
    report: TwoDReport
    events: int
    instructions: int
    run_id: str | None = None


@dataclass
class SweepResult:
    """Everything `sweep run` produced for one population."""

    spec: PopulationSpec
    predictor: str
    lanes: list[SweepLane] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def tag(self) -> str:
        return self.spec.tag

    @property
    def run_ids(self) -> list[str]:
        return [lane.run_id for lane in self.lanes if lane.run_id is not None]

    @property
    def total_events(self) -> int:
        return sum(lane.events for lane in self.lanes)


def run_sweep(
    spec: PopulationSpec,
    predictor: str = "gshare",
    warehouse=None,
    profiler_config: ProfilerConfig | None = None,
    fuel: int = DEFAULT_FUEL,
) -> SweepResult:
    """Profile one input population end to end.

    With ``warehouse`` (a :class:`~repro.store.ProfileWarehouse`), the
    lanes' reports are ingested as one batch under the population tag;
    identical re-runs dedupe against the stored copies.  Without it the
    reports are only returned in memory.
    """
    started = time.perf_counter()
    workload = get_workload(spec.workload)
    program = workload.program()
    config = profiler_config or ProfilerConfig()
    batch = None
    if warehouse is not None:
        import dataclasses

        from repro.store.layout import IngestRun

        config = dataclasses.replace(config, keep_series=True)
        batch = []

    with get_tracer().span(
        "sweep.run", cat="sweep", workload=spec.workload,
        population=spec.tag, lanes=spec.size, predictor=predictor,
    ):
        input_sets = generate_population(spec)
        traces = capture_traces(program, input_sets, fuel=fuel)
        result = SweepResult(spec=spec, predictor=predictor)
        for lane, (input_set, trace) in enumerate(zip(input_sets, traces)):
            sim = simulate(make_predictor(predictor), trace)
            report = profile_trace(trace, simulation=sim, config=config)
            entry = SweepLane(
                lane=lane,
                input_name=input_set.name,
                report=report,
                events=len(trace),
                instructions=trace.instructions,
            )
            if batch is not None:
                batch.append(IngestRun(
                    report, spec.workload, input_set.name, predictor,
                    scale=spec.scale, sim=sim, source=spec.tag,
                ))
            result.lanes.append(entry)
        if batch is not None:
            for entry, run_id in zip(result.lanes, warehouse.ingest(batch)):
                entry.run_id = run_id

    result.elapsed_seconds = time.perf_counter() - started
    registry = get_registry()
    registry.counter("sweep_lanes_total", "population lanes profiled").inc(spec.size)
    registry.counter("sweep_events_total", "branch events profiled by sweeps").inc(
        result.total_events
    )
    return result
