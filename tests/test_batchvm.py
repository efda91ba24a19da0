"""Function-compiled VM vs the interpreter: the differential oracle.

Trace mode runs compiled code (:mod:`repro.vm.compiled`); the
interpreter is its reference.  The contract is absolute: for every
program and input, the compiled run's trace bytes, instruction count,
return value and output equal the interpreter's, and wherever the
interpreter raises, the compiled code bails (with the matching reason)
and the machine re-raises the interpreter's exact error, type and
message.  This also covers multi-input capture (``capture_traces``, the
sweep and experiment entry point), hence the module name.

Covered: every shipped workload on its named inputs (train, ref, ext-*)
and on seeded populations, Hypothesis-generated programs from the fuzz
generator, each control-flow shape the compiler structures (with fuel
swept over every value), the interpreter's edge semantics (fuel
exhaustion mid-call, out-of-range indexing, shift-count masking,
truncating division, division by zero, the RNG, recursion overflow,
Python's own recursion limit), and the counted fallback path.

``REPRO_VM_FUZZ_EXAMPLES`` sets the number of generated programs (CI's
vm-differential job raises it).
"""

from __future__ import annotations

import contextlib
import inspect
import logging
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bytecode.opcodes import Opcode
from repro.bytecode.program import Function, Program
from repro.errors import FuelExhausted, VMError, VMRuntimeError
from repro.lang import compile_source
from repro.obs import get_registry, get_tracer
from repro.sweep import PopulationSpec, generate_population
from repro.trace.capture import capture_trace, capture_traces
from repro.vm import InputSet, Machine
from repro.vm.compiled import Bail, compiled
from repro.vm.machine import DEFAULT_FUEL
from repro.workloads import all_workloads, get_workload
from tests.test_fuzz import ProgramGenerator

_FUZZ_EXAMPLES = int(os.environ.get("REPRO_VM_FUZZ_EXAMPLES", "60"))

#: (lanes, scale) of each workload's seeded population.
_POPULATIONS = {
    "bzipish": (6, 0.02),
    "gzipish": (8, 0.03),
    "twolfish": (6, 0.03),
    "gapish": (8, 0.03),
    "craftyish": (2, 0.01),
    "parserish": (6, 0.02),
    "mcfish": (8, 0.03),
    "gccish": (6, 0.03),
    "vprish": (4, 0.02),
    "vortexish": (8, 0.03),
    "perlish": (8, 0.03),
    "eonish": (8, 0.03),
}


def _interpreted(program, input_set, fuel=DEFAULT_FUEL):
    """The interpreter's observable outcome: a result tuple or the error."""
    try:
        result = Machine(program, fuel=fuel)._run(input_set, mode="trace")
    except VMError as exc:
        return exc
    return (np.asarray(result.packed_trace, dtype=np.int64).tobytes(),
            result.instructions, result.branches, result.return_value,
            list(result.output))


def _compiled_only(program, input_set, fuel=DEFAULT_FUEL):
    """The compiled code's outcome with no replay: a result tuple or a Bail."""
    globals_ = Machine(program)._fresh_globals()
    try:
        return_value, executed, output, trace = compiled(program).run(
            input_set, fuel, globals_)
    except Bail as bail:
        return bail
    return (np.asarray(trace, dtype=np.int64).tobytes(), executed, len(trace),
            return_value, list(output))


def _bail_reason(error: VMError) -> str:
    if isinstance(error, FuelExhausted):
        return "fuel"
    if "recursion too deep" in str(error):
        return "depth"
    return "fault"


def _assert_parity(program, input_set, fuel=DEFAULT_FUEL):
    """Compiled == interpreter for one input; returns the interpreter's outcome."""
    want = _interpreted(program, input_set, fuel)
    got = _compiled_only(program, input_set, fuel)
    if isinstance(want, VMError):
        assert isinstance(got, Bail), f"interpreter raised {want!r}, compiled ran"
        assert got.reason == _bail_reason(want)
        # The machine replays the bail and raises the interpreter's error.
        with pytest.raises(type(want)) as raised:
            Machine(program, fuel=fuel).run(input_set, mode="trace")
        assert str(raised.value) == str(want)
        if isinstance(want, FuelExhausted):
            assert raised.value.executed == want.executed
    else:
        assert not isinstance(got, Bail), f"compiled bailed ({got.reason}) on a clean run"
        assert got == want
    return want


def _assert_traces_identical(got_traces, want_traces):
    assert len(got_traces) == len(want_traces)
    for got, want in zip(got_traces, want_traces):
        assert got.instructions == want.instructions
        np.testing.assert_array_equal(got.sites, want.sites)
        np.testing.assert_array_equal(got.outcomes, want.outcomes)


def test_every_workload_is_covered():
    assert _POPULATIONS.keys() == {wl.name for wl in all_workloads()}


@pytest.mark.parametrize("workload", sorted(_POPULATIONS))
def test_named_inputs_differential(workload):
    """Train, ref and every ext input: compiled == interpreter."""
    wl = get_workload(workload)
    program = wl.program()
    for name in wl.input_names:
        _assert_parity(program, wl.make_input(name, 0.02))


@pytest.mark.parametrize("workload", sorted(_POPULATIONS))
def test_workload_population_differential(workload):
    """A seeded population through capture_traces == the interpreter."""
    lanes, scale = _POPULATIONS[workload]
    spec = PopulationSpec(workload=workload, base_input="ref",
                          size=lanes, seed=5, scale=scale)
    program = get_workload(workload).program()
    input_sets = generate_population(spec)
    fallbacks = get_registry().counter("vm_compiled_fallbacks_total")
    before = fallbacks.total()
    traces = capture_traces(program, input_sets)
    assert fallbacks.total() == before  # the compiled code ran every lane
    for input_set, trace in zip(input_sets, traces):
        want = _interpreted(program, input_set)
        assert np.asarray(
            trace.sites.astype(np.int64) * 2 + trace.outcomes, dtype=np.int64
        ).tobytes() == want[0]
        assert trace.instructions == want[1]


@settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       optimize=st.booleans(),
       fuel=st.sampled_from([40, 400, 5_000, 3_000_000]))
def test_generated_programs_differential(seed, optimize, fuel):
    """Random valid Minic programs, including fuel cut-offs at any point."""
    source = ProgramGenerator(seed).program()
    program = compile_source(source, name="fuzz", optimize=optimize)
    _assert_parity(program, InputSet.make("fuzz"), fuel)


class TestEdgeParity:
    """Interpreter edge semantics honoured identically by the compiled VM."""

    def _check(self, source, input_sets, fuel=DEFAULT_FUEL):
        program = compile_source(source, name="edge")
        return [_assert_parity(program, s, fuel) for s in input_sets]

    def test_fuel_exhaustion_mid_call(self):
        # Inputs burn fuel at different rates and die inside the callee at
        # different depths; FuelExhausted.executed must match exactly.
        source = """
        func burn(n) {
            var i = 0;
            var acc = 0;
            while (i < n) { acc = acc + i; i = i + 1; }
            return acc;
        }
        func main() {
            var total = 0;
            var j = 0;
            while (j < 50) { total = total + burn(arg(0)); j = j + 1; }
            return total;
        }
        """
        sets = [InputSet.make(f"l{k}", args=[k]) for k in (1, 7, 40, 200)]
        outcomes = self._check(source, sets, fuel=6000)
        assert any(isinstance(o, FuelExhausted) for o in outcomes)
        assert any(not isinstance(o, VMError) for o in outcomes)

    def test_fuel_exact_at_the_limit(self):
        # Every fuel value up to the run's length: the compiled code must
        # bail exactly where the interpreter raises and finish where it
        # does, including a jump that runs straight into the final return.
        source = """
        func main() {
            var i = 0;
            while (i < 5) { if (i % 2 == 0) { output(i); } i = i + 1; }
            if (arg(0) > 0) { i = 1; } else { i = 2; }
            return i;
        }
        """
        program = compile_source(source, name="edge")
        for args in ([1], [0]):
            input_set = InputSet.make("x", args=args)
            total = Machine(program).run(input_set).instructions
            for fuel in range(total + 2):
                _assert_parity(program, input_set, fuel)

    def test_out_of_range_indexing(self):
        # Some inputs index in range, some out; error strings must match
        # the interpreter byte for byte.
        source = """
        global data[4];
        func main() {
            data[0] = 11;
            return data[arg(0)];
        }
        """
        sets = [InputSet.make(f"l{k}", args=[k]) for k in (0, 3, 4, -1, 100)]
        outcomes = self._check(source, sets)
        assert sum(isinstance(o, VMRuntimeError) for o in outcomes) == 3

    def test_shift_count_masking(self):
        # Shift counts are masked to 6 bits like x86-64 shifts; values are
        # unbounded ints (1 << 63 does not wrap).
        source = """
        func main() {
            output(1 << arg(0));
            output(1000 >> arg(0));
            output(5 << 70);
            return (arg(1) << arg(0)) + (arg(1) >> arg(0));
        }
        """
        shifts = (0, 1, 5, 63, 64, 65, 130)
        self._check(source, [InputSet.make(f"l{k}", args=[k, 3]) for k in shifts])

    def test_truncating_division_on_negatives(self):
        # Minic division truncates toward zero (C semantics), unlike
        # Python's floor division; mod takes the dividend's sign.
        source = """
        func main() {
            var a = arg(0);
            var b = arg(1);
            output(a / b);
            output(a % b);
            output(a / 3);
            output(a % -3);
            return (a / b) * b + (a % b) - a;
        }
        """
        cases = [(7, 2), (-7, 2), (7, -2), (-7, -2), (-1, 3), (1, -3), (0, -5)]
        sets = [InputSet.make(f"l{i}", args=list(c)) for i, c in enumerate(cases)]
        for outcome in self._check(source, sets):
            assert outcome[3] == 0  # the div/mod identity holds

    def test_division_by_zero_parity(self):
        source = "func main() { return arg(0) / arg(1) + arg(0) % 1; }"
        sets = [InputSet.make("ok", args=[8, 2]), InputSet.make("boom", args=[8, 0])]
        outcomes = self._check(source, sets)
        assert "division by zero" in str(outcomes[1])
        self._check("func main() { return arg(0) % arg(1); }", sets)

    def test_rng_parity(self):
        # The LCG stream and srand reseeding must match.
        source = """
        func main() {
            srand(arg(0));
            var i = 0;
            var acc = 0;
            while (i < 20) {
                if (rand() % 3 == 0) { acc = acc + 1; }
                i = i + 1;
            }
            return acc;
        }
        """
        self._check(source, [InputSet.make(f"l{k}", args=[k])
                             for k in (0, 1, 12345, 999999)])

    def test_recursion_overflow(self):
        # Guarded recursion within the depth limit runs; past it, the
        # interpreter's "recursion too deep" error comes back exactly.
        source = """
        func down(n) {
            if (n == 0) { return 0; }
            return 1 + down(n - 1);
        }
        func main() { return down(arg(0)); }
        """
        outcomes = self._check(source, [InputSet.make(f"d{k}", args=[k])
                                        for k in (10, 3999, 4000, 10000)])
        assert outcomes[1][3] == 3999
        assert "recursion too deep" in str(outcomes[2])

    def test_discarded_expression_still_faults(self):
        # An expression statement's value is dropped, but its evaluation
        # (here: arithmetic on an array) must fault as in the interpreter.
        source = """
        func main() {
            var a = array(2);
            var n = arg(0);
            if (n > 0) { a = n; }
            a + 1;
            return 0;
        }
        """
        outcomes = self._check(source, [InputSet.make("int", args=[1]),
                                        InputSet.make("array", args=[0])])
        assert isinstance(outcomes[1], VMRuntimeError)

    def test_pending_load_survives_store(self):
        # Hand-written bytecode: a local is loaded, then overwritten while
        # the loaded value is still on the stack.
        ops = [Opcode.LOAD_LOCAL, Opcode.LOAD_GLOBAL, Opcode.CONST,
               Opcode.STORE_LOCAL, Opcode.CONST, Opcode.STORE_GLOBAL,
               Opcode.SUB, Opcode.RET]
        main = Function(name="main", num_params=0, num_locals=1,
                        ops=[int(op) for op in ops],
                        args=[0, 0, 5, 0, 9, 0, None, None], lines=[1] * 8)
        program = Program(name="handmade", functions=[main],
                          func_index={"main": 0}, global_names=["g"],
                          global_init=[3], sites=[])
        assert _assert_parity(program, InputSet.make("x"))[3] == -3

    def test_halt_in_a_callee_ends_the_run(self):
        # Hand-written bytecode (Minic never emits HALT): a HALT below main
        # ends the whole run with return value 0.
        helper = Function(name="stop", num_params=1, num_locals=1,
                          ops=[int(Opcode.LOAD_LOCAL), int(Opcode.CALL_BUILTIN),
                               int(Opcode.POP), int(Opcode.HALT)],
                          args=[0, (4, 1), None, None], lines=[1] * 4)
        main = Function(name="main", num_params=0, num_locals=0,
                        ops=[int(Opcode.CONST), int(Opcode.CALL), int(Opcode.POP),
                             int(Opcode.CONST), int(Opcode.RET)],
                        args=[5, (0, 1), None, 9, None], lines=[1] * 5)
        program = Program(name="halting", functions=[helper, main],
                          func_index={"stop": 0, "main": 1}, global_names=[],
                          global_init=[], sites=[])
        outcome = _assert_parity(program, InputSet.make("x"))
        assert (outcome[3], outcome[4]) == (0, [5])

    def test_bad_builtin_arguments(self):
        # Negative sizes and indexes must not wrap or silently succeed.
        source = """
        func main() {
            var a = array(arg(0));
            output(len(a));
            output(input(arg(1)));
            return abs(min(arg(0), arg(1))) + max(arg(0), 2);
        }
        """
        self._check(source, [
            InputSet.make("ok", data=[4, 5], args=[3, 1]),
            InputSet.make("neg-size", data=[4], args=[-1, 0]),
            InputSet.make("neg-input", data=[4], args=[2, -1]),
            InputSet.make("big-input", data=[4], args=[2, 1]),
        ])



def _sweep_fuel(program, input_set):
    """Parity at every fuel value until the run no longer runs out, and one more."""
    fuel = 0
    while isinstance(_assert_parity(program, input_set, fuel), FuelExhausted):
        fuel += 1
    _assert_parity(program, input_set, fuel + 1)


class TestControlFlowShapes:
    """The shapes the function compiler structures, each run to parity.

    Fuel is swept over every value of each run, so a fuel check placed
    anywhere but where the interpreter checks shows up as a wrong bail.
    """

    def _check(self, source, input_sets):
        program = compile_source(source, name="shape")
        for input_set in input_sets:
            _sweep_fuel(program, input_set)
        return [_interpreted(program, s) for s in input_sets]

    def test_while_with_break_and_continue(self):
        source = """
        func main() {
            var i = 0;
            var acc = 0;
            while (i < 20) {
                i = i + 1;
                if (i % 3 == 0) { continue; }
                if (acc > arg(0)) { break; }
                acc = acc + i;
                while (1) { if (acc % 2 == 0) { break; } acc = acc + 1; }
            }
            return acc * 100 + i;
        }
        """
        outcomes = self._check(source, [InputSet.make(f"l{k}", args=[k])
                                        for k in (0, 5, 40, 1000)])
        assert len({o[3] for o in outcomes}) == 4

    def test_do_while(self):
        source = """
        func main() {
            var n = arg(0);
            var steps = 0;
            do {
                steps = steps + 1;
                if (n % 2 == 0) { n = n / 2; continue; }
                n = 3 * n + 1;
            } while (n > 1 && steps < 50);
            do { output(n); } while (0);
            return steps;
        }
        """
        self._check(source, [InputSet.make(f"l{k}", args=[k]) for k in (1, 6, 7, 27)])

    def test_short_circuit_in_branch_and_value_context(self):
        # Chains whose arms cannot simply meet: the selector guards them.
        source = """
        func main() {
            var a = arg(0);
            var b = arg(1);
            var r = 0;
            if (a > 0 && b > 0) { r = 1; } else { r = 2; }
            if (a > 0 || b > 0) { r = r * 10 + 3; } else { r = r * 10 + 4; }
            if ((a > 1 && b > 1) || (a < -1 && b < -1)) { r = r * 10 + 5; }
            var v = (a && b) + (a || b) * 2 + ((a > b) && (b > 0 || a == 3)) * 4;
            output(v);
            while (a > 0 && (b > 0 || a % 2 == 1)) { a = a - 1; b = b - 1; r = r + 1; }
            return r;
        }
        """
        pairs = [(0, 0), (2, 0), (0, 2), (3, 3), (-2, -2), (5, -1), (3, 1)]
        self._check(source, [InputSet.make(f"l{i}", args=list(p))
                             for i, p in enumerate(pairs)])

    def test_calls_inside_expressions(self):
        # Operands computed before a call stay live across it; the callee
        # branches, so fuel checks inside it see an exact count.
        source = """
        global g = 2;
        func bump(x) { if (x > 3) { g = g + 1; } return x * g; }
        func main() {
            var a = arg(0);
            var r = a + bump(a) * (g + bump(a + 1)) - bump(bump(a) % 7);
            output(g + bump(2) + g);
            return r + (a > 2 && bump(a) > 10);
        }
        """
        self._check(source, [InputSet.make(f"l{k}", args=[k]) for k in (0, 3, 9)])

    def test_return_inside_loop(self):
        source = """
        func find(n) {
            var i = 0;
            while (1) {
                for (var j = 0; j < 4; j = j + 1) {
                    if (i * 4 + j == n) { return i * 10 + j; }
                }
                i = i + 1;
                if (i > 5) { return -1; }
            }
            return -2;
        }
        func main() { return find(arg(0)) + find(arg(0) + 7); }
        """
        self._check(source, [InputSet.make(f"l{k}", args=[k]) for k in (0, 5, 17, 30)])

    def test_depth_guarded_recursive_helper(self):
        source = """
        func fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        func walk(n, acc) {
            if (n <= 0) { return acc; }
            return walk(n - 1, acc + fib(n % 6));
        }
        func main() { return walk(arg(0) & 15, 0) + fib(arg(0) % 9); }
        """
        self._check(source, [InputSet.make(f"l{k}", args=[k]) for k in (0, 7, 15)])

    def test_faults_at_the_fuel_limit_stay_faults(self):
        # The interpreter computes a branch condition and a call's
        # arguments before its fuel check, so at the limit a faulting one
        # (ordering an array, adding to it) is a fault, not a fuel stop.
        source = """
        func id(x) { return x; }
        func main() {
            var a = array(2);
            var n = arg(0);
            if (n > 0) { a = n; }
            var r = 0;
            if (a < 5) { r = 1; }
            return r + id(a + 1);
        }
        """
        self._check(source, [InputSet.make("int", args=[1]),
                             InputSet.make("array", args=[0])])

    def test_irreducible_loop_runs_as_a_dispatch_loop(self):
        # Hand-written bytecode: a loop with two entries (blocks at 2 and
        # 6 both reached from outside it), which no while/if nest expresses.
        ops = [Opcode.LOAD_LOCAL, Opcode.BR_FALSE,
               Opcode.LOAD_LOCAL, Opcode.CONST, Opcode.ADD, Opcode.STORE_LOCAL,
               Opcode.LOAD_LOCAL, Opcode.CONST, Opcode.LT, Opcode.BR_TRUE,
               Opcode.LOAD_LOCAL, Opcode.RET]
        args = [0, (6, 0), 0, 1, None, 0, 0, 5, None, (2, 1), 0, None]
        main = Function(name="main", num_params=0, num_locals=1,
                        ops=[int(op) for op in ops], args=args, lines=[1] * 12)
        program = Program(name="irreducible", functions=[main],
                          func_index={"main": 0}, global_names=[],
                          global_init=[], sites=[])
        _sweep_fuel(program, InputSet.make("x"))
        assert _assert_parity(program, InputSet.make("x"))[3] == 5


class TestRecursionLimit:
    """Deep guest recursion runs compiled; the Python limit is restored."""

    _SOURCE = """
    func down(n) {
        if (n == 0) { return 0; }
        return 1 + down(n - 1);
    }
    func main() { return down(arg(0)); }
    """

    def test_limit_unchanged_after_clean_faulting_and_bailed_runs(self):
        program = compile_source(self._SOURCE, name="deep")
        faulty = compile_source(
            "func f(n) { if (n == 0) { return 1 / n; } return f(n - 1); }"
            "func main() { return f(arg(0)); }", name="deep-fault")
        machine = Machine(program)
        saved = sys.getrecursionlimit()
        # Below what 4000 guest frames need, so every run has to raise it.
        sys.setrecursionlimit(len(inspect.stack(0)) + 500)
        try:
            limit = sys.getrecursionlimit()
            result = machine.run(InputSet.make("clean", args=[3999]), mode="trace")
            assert result.return_value == 3999
            assert sys.getrecursionlimit() == limit
            with pytest.raises(VMRuntimeError):  # a depth bail, replayed
                machine.run(InputSet.make("overflow", args=[4000]), mode="trace")
            assert sys.getrecursionlimit() == limit
            with pytest.raises(VMRuntimeError):  # a fault bail, replayed
                Machine(faulty).run(InputSet.make("fault", args=[2000]), mode="trace")
            assert sys.getrecursionlimit() == limit
        finally:
            sys.setrecursionlimit(saved)

    def test_low_limit_bails_depth_and_replays_exactly(self, monkeypatch):
        import repro.vm.compiled as compiled_module

        program = compile_source(self._SOURCE, name="deep-low")
        input_set = InputSet.make("d", args=[3999])
        want = _interpreted(program, input_set)
        # Without the headroom the run overflows Python's own stack.
        monkeypatch.setattr(compiled_module, "_recursion_headroom",
                            lambda frames: contextlib.nullcontext())
        fallbacks = get_registry().counter("vm_compiled_fallbacks_total").labels(
            reason="depth")
        before = fallbacks.value
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            result = Machine(program).run(input_set, mode="trace")
        finally:
            sys.setrecursionlimit(limit)
        assert fallbacks.value == before + 1
        assert (np.asarray(result.packed_trace, dtype=np.int64).tobytes(),
                result.instructions, result.branches, result.return_value,
                list(result.output)) == want

def test_capture_traces_matches_serial_loop():
    """The documented equivalence: capture_traces == [capture_trace...]."""
    workload = get_workload("mcfish")
    program = workload.program()
    sets = [workload.make_input("train", 0.05),
            workload.make_input("ref", 0.05),
            workload.make_input("train", 0.05)]  # duplicates allowed
    _assert_traces_identical(capture_traces(program, sets),
                             [capture_trace(program, s) for s in sets])
    assert capture_traces(program, []) == []


def test_program_compiles_once(monkeypatch):
    """A whole population shares one compiled form per Program object."""
    import repro.vm.compiled as compiled_module

    built = []
    original = compiled_module.CompiledProgram.__init__

    def counting_init(self, program):
        built.append(program.name)
        original(self, program)

    monkeypatch.setattr(compiled_module.CompiledProgram, "__init__", counting_init)
    program = compile_source(
        "func main() { var i = 0; while (i < arg(0)) { i = i + 1; } return i; }",
        name="once")
    sets = [InputSet.make(f"i{k}", args=[k]) for k in range(64)]
    capture_traces(program, sets)
    capture_trace(program, sets[0])
    assert built == ["once"]


class TestCountedFallbacks:
    """Each bail is counted, logged, and replayed to the interpreter's answer."""

    def _fallbacks(self, reason: str) -> float:
        return get_registry().counter("vm_compiled_fallbacks_total").labels(
            reason=reason).value

    def test_fault_is_counted_logged_and_replayed(self, caplog):
        program = compile_source(
            "func main() { output(7); return 10 / arg(0); }", name="faulty")
        input_set = InputSet.make("zero", args=[0])
        want = _interpreted(program, input_set)
        assert isinstance(want, VMRuntimeError)
        before = self._fallbacks("fault")
        with caplog.at_level(logging.INFO, logger="repro.vm.machine"):
            with pytest.raises(VMRuntimeError) as raised:
                Machine(program).run(input_set, mode="trace")
        assert str(raised.value) == str(want)
        assert self._fallbacks("fault") == before + 1
        events = [r for r in caplog.records
                  if getattr(r, "structured_event", None) == "vm_compiled_fallback"]
        assert len(events) == 1
        assert events[0].structured_fields == {
            "reason": "fault", "program": "faulty", "input": "zero"}

    def test_compiler_bug_is_not_a_guest_fault(self, monkeypatch):
        # Only exceptions guest code can raise become a fault bail; an
        # error in the generated code itself must not be replayed away.
        program = compile_source("func main() { return 1; }", name="bug")
        code = compiled(program)

        def broken(*args):
            raise NameError("name 'x' is not defined")

        monkeypatch.setattr(code, "_run", broken)
        before = self._fallbacks("fault")
        with pytest.raises(NameError):
            Machine(program).run(InputSet.make("x"), mode="trace")
        assert self._fallbacks("fault") == before

    @pytest.mark.parametrize("reason, source, fuel", [
        ("fuel", "func main() { while (1) { } return 0; }", 1000),
        ("depth", "func f(n) { return f(n + 1); } func main() { return f(0); }",
         DEFAULT_FUEL),
    ])
    def test_fuel_and_depth_are_counted(self, reason, source, fuel):
        program = compile_source(source, name=reason)
        before = self._fallbacks(reason)
        with pytest.raises(VMError):
            Machine(program, fuel=fuel).run(InputSet.make("x"), mode="trace")
        assert self._fallbacks(reason) == before + 1

    def test_unstatic_stack_depth_is_replayed(self):
        # Hand-written bytecode whose operand-stack depth at pc 4 depends
        # on the path taken: the compiled function bails on entry and the
        # interpreter returns the answer.
        ops = [Opcode.LOAD_LOCAL, Opcode.BR_FALSE, Opcode.CONST, Opcode.JUMP,
               Opcode.CONST, Opcode.RET]
        main = Function(name="main", num_params=0, num_locals=1,
                        ops=[int(op) for op in ops],
                        args=[0, (4, 0), 7, 4, 1, None], lines=[1] * 6)
        program = Program(name="unstatic", functions=[main],
                          func_index={"main": 0}, global_names=[],
                          global_init=[], sites=[])
        assert isinstance(_compiled_only(program, InputSet.make("x")), Bail)
        before = self._fallbacks("fault")
        assert Machine(program).run(InputSet.make("x"), mode="trace").return_value == 1
        assert self._fallbacks("fault") == before + 1

    def test_clean_runs_do_not_fall_back(self):
        program = get_workload("gzipish").program()
        before = get_registry().counter("vm_compiled_fallbacks_total").total()
        capture_traces(program, [get_workload("gzipish").make_input("ref", 0.02)])
        assert get_registry().counter("vm_compiled_fallbacks_total").total() == before

    def test_vm_run_span_names_the_engine(self):
        program = compile_source("func main() { return 1; }", name="span")
        tracer = get_tracer()
        tracer.clear()
        tracer.configure(enabled=True)
        try:
            machine = Machine(program)
            machine.run(InputSet.make("x"), mode="trace")
            machine.run(InputSet.make("x"), mode="none")
            events = [e for e in tracer.events() if e["name"] == "vm.run"]
        finally:
            tracer.configure(enabled=False)
            tracer.clear()
        assert [(e["args"]["mode"], e["args"]["engine"]) for e in events] == [
            ("trace", "compiled"), ("none", "interpreter")]
