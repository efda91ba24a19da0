"""Trace capture: run a compiled program and collect its branch trace."""

from __future__ import annotations

from repro.bytecode.program import Program
from repro.trace.trace import BranchTrace
from repro.vm.inputs import InputSet
from repro.vm.machine import DEFAULT_FUEL, Machine, RunResult


def _trace_of(program: Program, input_set: InputSet, result: RunResult) -> BranchTrace:
    return BranchTrace.from_packed(
        result.packed_trace,
        program=program.name,
        input_name=input_set.name,
        num_sites=program.num_sites,
        instructions=result.instructions,
    )


def capture_trace(program: Program, input_set: InputSet, fuel: int = DEFAULT_FUEL) -> BranchTrace:
    """Execute ``program`` on ``input_set`` and return its branch trace."""
    result = Machine(program, fuel=fuel).run(input_set, mode="trace")
    return _trace_of(program, input_set, result)


def capture_traces(
    program: Program, input_sets: list[InputSet], fuel: int = DEFAULT_FUEL
) -> list[BranchTrace]:
    """Capture one trace per input set: ``[capture_trace(p, s) for s in sets]``.

    All inputs share one machine, and the program is compiled to Python
    once however many inputs there are.
    """
    machine = Machine(program, fuel=fuel)
    return [_trace_of(program, s, machine.run(s, mode="trace")) for s in input_sets]
