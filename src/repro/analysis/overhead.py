"""Instrumentation-overhead harness — the paper's Figure 16.

The paper compares benchmark execution time under five conditions: the
bare binary, Pin with no user tool, edge-profiling instrumentation, gshare
modelling, and full 2D-profiling with gshare.  Our analogues run the same
program in the VM's three observation modes with progressively heavier
tools; :func:`measure_overheads` wall-clocks each mode.  It is the one
Figure 16 timer: the ``overhead`` CLI and ``bench_fig16_overhead.py`` both
call it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.profiler2d import OnlineProfilerTool, ProfilerConfig
from repro.predictors import paper_gshare
from repro.vm.inputs import InputSet
from repro.vm.instrument import EdgeProfilerTool, NullTool, PredictorTool
from repro.vm.machine import Machine
from repro.workloads import get_workload

#: The Figure 16 conditions, in the paper's order.
MODES = ("binary", "pin-base", "edge", "gshare", "2d+gshare")


def run_mode(machine: Machine, input_set: InputSet, mode: str, slice_size: int = 10000):
    """Execute one run under a Figure 16 condition; returns the tool (or None)."""
    if mode == "binary":
        machine.run(input_set, mode="none")
        return None
    if mode == "pin-base":
        tool = NullTool()
        machine.run(input_set, mode="callback", hook=tool.on_branch)
        return tool
    if mode == "edge":
        tool = EdgeProfilerTool(machine.program.num_sites)
        machine.run(input_set, mode="callback", hook=tool.on_branch)
        return tool
    if mode == "gshare":
        tool = PredictorTool(paper_gshare(), machine.program.num_sites)
        machine.run(input_set, mode="callback", hook=tool.on_branch)
        return tool
    if mode == "2d+gshare":
        tool = OnlineProfilerTool(
            paper_gshare(),
            machine.program.num_sites,
            ProfilerConfig(slice_size=slice_size),
        )
        machine.run(input_set, mode="callback", hook=tool.on_branch)
        return tool
    raise ValueError(f"unknown overhead mode {mode!r}; known: {MODES}")


@dataclass
class OverheadRow:
    workload: str
    mode: str
    seconds: float
    normalized: float  # Relative to the "binary" condition.


def measure_overheads(
    workload: str,
    scale: float = 0.3,
    modes: tuple = MODES,
    repeats: int = 1,
) -> list[OverheadRow]:
    """Wall-clock one workload's train run under each instrumentation mode."""
    wl = get_workload(workload)
    machine = Machine(wl.program())
    input_set = wl.make_input("train", scale)
    timings: dict[str, float] = {}
    for mode in modes:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run_mode(machine, input_set, mode)
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
    base = timings.get("binary", next(iter(timings.values())))
    return [
        OverheadRow(workload=workload, mode=mode, seconds=t, normalized=t / base)
        for mode, t in timings.items()
    ]
