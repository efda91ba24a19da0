"""Function-compiled VM vs the interpreter, per workload.

Not a paper exhibit: the perf guard for trace-mode execution.  Every
shipped workload's train and ref traces are captured twice, once on the
function-compiled VM (the default trace engine: one Python function per
guest function) and once on the interpreter;
both must agree bit for bit (instructions, sites, outcomes).  The table
gives branch events/s per workload and engine (fastest of three runs
each) plus the one-time per-program compile cost, which the compiled
column excludes.

The acceptance floor is aggregate events/s at >= 3x the interpreter.
"""

import time

import numpy as np

from repro.vm import Machine
from repro.vm.compiled import compiled
from repro.workloads import all_workloads

_SCALE = 0.02


def _timed(run, input_set, repeats=3):
    """The result and the fastest of ``repeats`` wall times."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run(input_set, mode="trace")
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_vm_throughput(archive):
    rows = []
    for workload in all_workloads():
        program = workload.program()
        start = time.perf_counter()
        compiled(program)
        compile_s = time.perf_counter() - start
        machine = Machine(program)
        events = interp_s = compiled_s = 0.0
        for name in ("train", "ref"):
            input_set = workload.make_input(name, _SCALE)
            want, t_interp = _timed(machine._run, input_set)  # the interpreter
            got, t_compiled = _timed(machine.run, input_set)
            # The speedup only counts if the answer is the same answer.
            assert got.instructions == want.instructions
            np.testing.assert_array_equal(np.asarray(got.packed_trace),
                                          np.asarray(want.packed_trace))
            events += want.branches
            interp_s += t_interp
            compiled_s += t_compiled
        rows.append((workload.name, int(events), interp_s, compiled_s, compile_s))

    events = sum(r[1] for r in rows)
    interp_s = sum(r[2] for r in rows)
    compiled_s = sum(r[3] for r in rows)
    lines = [f"Function-compiled VM vs interpreter, train + ref (scale {_SCALE:g})",
             f"{'workload':10s} {'events':>8s} {'interp ev/s':>12s} "
             f"{'compiled ev/s':>14s} {'speedup':>8s} {'compile ms':>11s}"]
    for name, ev, t_i, t_c, t_comp in rows + [
            ("aggregate", events, interp_s, compiled_s, sum(r[4] for r in rows))]:
        lines.append(f"{name:10s} {ev:8d} {ev / t_i:12.0f} {ev / t_c:14.0f} "
                     f"{t_i / t_c:7.2f}x {t_comp * 1e3:11.1f}")
    archive("vm_throughput", "\n".join(lines))

    speedup = interp_s / compiled_s
    assert speedup >= 3.0, (
        f"acceptance floor: compiled VM >= 3x the interpreter, got {speedup:.2f}x")
