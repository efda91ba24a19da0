"""The Minic virtual machine: function-compiled trace mode plus the interpreter.

Trace-mode runs execute the program's compiled form
(:mod:`repro.vm.compiled`: one generated Python function per guest
function), over ten times faster than interpretation.  Any
guest fault, fuel overrun or call-depth overflow there abandons the run,
which is then replayed from scratch on the interpreter; such fallbacks are
counted (``vm_compiled_fallbacks_total{reason}``) and logged.

The interpreter is a classic threaded loop over parallel op/arg lists.  It
runs the ``none`` and ``callback`` modes (so Figure 16's overhead ratios
compare like with like) and is the reference the compiled form is tested
against.  Opcodes are compared as plain ints, hot locals are bound once,
and the conditional-branch observation is a single packed-int append in
trace mode.

Semantics notes
---------------
* Integers are Python ints (unbounded); division and modulo truncate toward
  zero like C.  Shift counts are masked to 6 bits.
* Arrays are Python lists created by ``array(n)``, ``var x[n];`` or
  ``global g[n];`` declarations.  Out-of-range indexing raises
  :class:`repro.errors.VMRuntimeError`.
* A conditional branch is *taken* when it transfers control to its target
  (BR_FALSE taken iff the popped value is zero).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro.errors import FuelExhausted, VMRuntimeError
from repro.bytecode.opcodes import Opcode
from repro.bytecode.program import Program
from repro.obs import get_registry, get_tracer
from repro.obs.logs import log_event
from repro.vm.compiled import MAX_CALL_DEPTH, Bail, compiled
from repro.vm.inputs import InputSet

log = logging.getLogger(__name__)

# Plain-int opcode constants: dispatching on ints instead of IntEnum
# members keeps the hot loop free of enum __eq__ overhead.
_CONST = int(Opcode.CONST)
_LOAD_LOCAL = int(Opcode.LOAD_LOCAL)
_STORE_LOCAL = int(Opcode.STORE_LOCAL)
_LOAD_GLOBAL = int(Opcode.LOAD_GLOBAL)
_STORE_GLOBAL = int(Opcode.STORE_GLOBAL)
_LOAD_INDEX = int(Opcode.LOAD_INDEX)
_STORE_INDEX = int(Opcode.STORE_INDEX)
_NEW_ARRAY = int(Opcode.NEW_ARRAY)
_POP = int(Opcode.POP)
_DUP = int(Opcode.DUP)
_DUP2 = int(Opcode.DUP2)
_ADD = int(Opcode.ADD)
_SUB = int(Opcode.SUB)
_MUL = int(Opcode.MUL)
_DIV = int(Opcode.DIV)
_MOD = int(Opcode.MOD)
_AND = int(Opcode.AND)
_OR = int(Opcode.OR)
_XOR = int(Opcode.XOR)
_SHL = int(Opcode.SHL)
_SHR = int(Opcode.SHR)
_EQ = int(Opcode.EQ)
_NE = int(Opcode.NE)
_LT = int(Opcode.LT)
_LE = int(Opcode.LE)
_GT = int(Opcode.GT)
_GE = int(Opcode.GE)
_NEG = int(Opcode.NEG)
_NOT = int(Opcode.NOT)
_BNOT = int(Opcode.BNOT)
_JUMP = int(Opcode.JUMP)
_BR_FALSE = int(Opcode.BR_FALSE)
_BR_TRUE = int(Opcode.BR_TRUE)
_CALL = int(Opcode.CALL)
_CALL_BUILTIN = int(Opcode.CALL_BUILTIN)
_RET = int(Opcode.RET)
_HALT = int(Opcode.HALT)

_RNG_MULT = 1103515245
_RNG_INC = 12345
_RNG_MASK = 0x7FFFFFFF

#: Default guest instruction budget; generous enough for every shipped
#: workload but bounds accidental infinite loops in user programs.
DEFAULT_FUEL = 2_000_000_000


@dataclass
class RunResult:
    """Outcome of one program execution."""

    return_value: int
    output: list[int]
    instructions: int
    branches: int
    #: Packed trace entries ``site_id * 2 + taken`` (trace mode only).
    packed_trace: list[int] = field(default_factory=list)


class Machine:
    """Executes one compiled :class:`Program` against input sets.

    A machine instance is reusable across runs; each :meth:`run` starts
    from freshly initialized globals.
    """

    def __init__(self, program: Program, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        # Per-function (ops, args, num_locals) untangled once.
        self._code = [(f.ops, f.args, f.num_locals) for f in program.functions]

    def _fresh_globals(self) -> list:
        values = []
        for init in self.program.global_init:
            if isinstance(init, tuple):  # ("array", size)
                values.append([0] * init[1])
            else:
                values.append(init)
        return values

    def run(self, input_set: InputSet, mode: str = "none", hook=None) -> RunResult:
        """Execute ``main`` with the given input.

        Parameters
        ----------
        input_set:
            The program input (data array + scalar args).
        mode:
            ``"none"`` (uninstrumented), ``"trace"`` (record packed branch
            trace), or ``"callback"`` (invoke ``hook(site_id, taken)`` per
            conditional branch).
        hook:
            Required for ``mode="callback"``.

        Trace mode runs the compiled form (see the module docstring); the
        other modes run on the interpreter.
        """
        start = time.perf_counter()
        if mode == "trace":
            result, engine = self._run_compiled(input_set)
        else:
            result, engine = self._run(input_set, mode, hook), "interpreter"
        elapsed = time.perf_counter() - start
        registry = get_registry()
        registry.counter("vm_instructions_total").inc(result.instructions)
        registry.counter("vm_branches_total").inc(result.branches)
        registry.histogram("vm_run_seconds").observe(elapsed)
        events_per_sec = result.branches / elapsed if elapsed > 0 else 0.0
        registry.gauge("vm_events_per_second").set(round(events_per_sec, 1))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                "vm.run", ts_us=(time.time_ns() / 1e3) - elapsed * 1e6,
                dur_us=elapsed * 1e6, cat="vm", mode=mode, engine=engine,
                instructions=result.instructions, branches=result.branches,
                events_per_sec=round(events_per_sec, 1),
            )
        return result

    def _run_compiled(self, input_set: InputSet) -> tuple[RunResult, str]:
        """A trace-mode run on the compiled form, replayed if it bails."""
        try:
            return_value, executed, output, trace = compiled(self.program).run(
                input_set, self.fuel, self._fresh_globals())
        except Bail as bail:
            get_registry().counter("vm_compiled_fallbacks_total").labels(
                reason=bail.reason).inc()
            log_event(log, "vm_compiled_fallback", reason=bail.reason,
                      program=self.program.name, input=input_set.name)
            return self._run(input_set, "trace"), "interpreter"
        result = RunResult(return_value=return_value, output=output,
                           instructions=executed, branches=len(trace),
                           packed_trace=trace)
        return result, "compiled"

    def _run(self, input_set: InputSet, mode: str = "none", hook=None) -> RunResult:
        if mode not in ("none", "trace", "callback"):
            raise ValueError(f"unknown run mode {mode!r}")
        if mode == "callback" and hook is None:
            raise ValueError("mode='callback' requires a hook")

        tracing = mode == "trace"
        calling = mode == "callback"
        trace: list[int] = []
        trace_append = trace.append

        code = self._code
        globals_ = self._fresh_globals()
        input_data = input_set.data
        input_len = len(input_data)
        scalar_args = input_set.args
        output: list[int] = []
        rng_state = 12345

        main_ops, main_args, main_nlocals = code[self.program.main_index]
        ops, args = main_ops, main_args
        locals_: list = [0] * main_nlocals
        frames: list = []
        stack: list = []
        push = stack.append
        pop = stack.pop
        pc = 0
        executed = 0
        branches = 0
        fuel = self.fuel

        try:
            while True:
                op = ops[pc]
                arg = args[pc]
                pc += 1
                executed += 1

                if op == _LOAD_LOCAL:
                    push(locals_[arg])
                elif op == _CONST:
                    push(arg)
                elif op == _BR_FALSE:
                    if executed > fuel:
                        raise FuelExhausted(executed)
                    branches += 1
                    if pop() == 0:
                        taken = 1
                        pc = arg[0]
                    else:
                        taken = 0
                    if tracing:
                        trace_append(arg[1] * 2 + taken)
                    elif calling:
                        hook(arg[1], taken)
                elif op == _BR_TRUE:
                    if executed > fuel:
                        raise FuelExhausted(executed)
                    branches += 1
                    if pop() != 0:
                        taken = 1
                        pc = arg[0]
                    else:
                        taken = 0
                    if tracing:
                        trace_append(arg[1] * 2 + taken)
                    elif calling:
                        hook(arg[1], taken)
                elif op == _STORE_LOCAL:
                    locals_[arg] = pop()
                elif op == _LOAD_INDEX:
                    idx = pop()
                    base = pop()
                    if idx < 0 or idx >= len(base):
                        raise VMRuntimeError(f"array index {idx} out of range (len {len(base)})")
                    push(base[idx])
                elif op == _STORE_INDEX:
                    value = pop()
                    idx = pop()
                    base = pop()
                    if idx < 0 or idx >= len(base):
                        raise VMRuntimeError(f"array index {idx} out of range (len {len(base)})")
                    base[idx] = value
                elif op == _ADD:
                    right = pop()
                    stack[-1] = stack[-1] + right
                elif op == _SUB:
                    right = pop()
                    stack[-1] = stack[-1] - right
                elif op == _MUL:
                    right = pop()
                    stack[-1] = stack[-1] * right
                elif op == _LT:
                    right = pop()
                    stack[-1] = 1 if stack[-1] < right else 0
                elif op == _LE:
                    right = pop()
                    stack[-1] = 1 if stack[-1] <= right else 0
                elif op == _GT:
                    right = pop()
                    stack[-1] = 1 if stack[-1] > right else 0
                elif op == _GE:
                    right = pop()
                    stack[-1] = 1 if stack[-1] >= right else 0
                elif op == _EQ:
                    right = pop()
                    stack[-1] = 1 if stack[-1] == right else 0
                elif op == _NE:
                    right = pop()
                    stack[-1] = 1 if stack[-1] != right else 0
                elif op == _LOAD_GLOBAL:
                    push(globals_[arg])
                elif op == _STORE_GLOBAL:
                    globals_[arg] = pop()
                elif op == _JUMP:
                    if executed > fuel:
                        raise FuelExhausted(executed)
                    pc = arg
                elif op == _DIV:
                    right = pop()
                    left = stack[-1]
                    if right == 0:
                        raise VMRuntimeError("division by zero")
                    quotient = left // right
                    if quotient < 0 and quotient * right != left:
                        quotient += 1
                    stack[-1] = quotient
                elif op == _MOD:
                    right = pop()
                    left = stack[-1]
                    if right == 0:
                        raise VMRuntimeError("modulo by zero")
                    quotient = left // right
                    if quotient < 0 and quotient * right != left:
                        quotient += 1
                    stack[-1] = left - right * quotient
                elif op == _AND:
                    right = pop()
                    stack[-1] = stack[-1] & right
                elif op == _OR:
                    right = pop()
                    stack[-1] = stack[-1] | right
                elif op == _XOR:
                    right = pop()
                    stack[-1] = stack[-1] ^ right
                elif op == _SHL:
                    right = pop()
                    stack[-1] = stack[-1] << (right & 63)
                elif op == _SHR:
                    right = pop()
                    stack[-1] = stack[-1] >> (right & 63)
                elif op == _NEG:
                    stack[-1] = -stack[-1]
                elif op == _NOT:
                    stack[-1] = 1 if stack[-1] == 0 else 0
                elif op == _BNOT:
                    stack[-1] = ~stack[-1]
                elif op == _POP:
                    pop()
                elif op == _DUP:
                    push(stack[-1])
                elif op == _DUP2:
                    push(stack[-2])
                    push(stack[-2])
                elif op == _NEW_ARRAY:
                    size = pop()
                    if size < 0:
                        raise VMRuntimeError(f"negative array size {size}")
                    push([0] * size)
                elif op == _CALL_BUILTIN:
                    builtin_id, _argc = arg
                    if builtin_id == 0:  # input(i)
                        idx = pop()
                        if idx < 0 or idx >= input_len:
                            raise VMRuntimeError(f"input index {idx} out of range (len {input_len})")
                        push(input_data[idx])
                    elif builtin_id == 1:  # input_len()
                        push(input_len)
                    elif builtin_id == 2:  # arg(i)
                        idx = pop()
                        if idx < 0 or idx >= len(scalar_args):
                            raise VMRuntimeError(f"arg index {idx} out of range (count {len(scalar_args)})")
                        push(scalar_args[idx])
                    elif builtin_id == 3:  # arg_count()
                        push(len(scalar_args))
                    elif builtin_id == 4:  # output(v)
                        output.append(pop())
                        push(0)
                    elif builtin_id == 5:  # abs(x)
                        value = pop()
                        push(-value if value < 0 else value)
                    elif builtin_id == 6:  # min(a, b)
                        right = pop()
                        left = pop()
                        push(left if left < right else right)
                    elif builtin_id == 7:  # max(a, b)
                        right = pop()
                        left = pop()
                        push(left if left > right else right)
                    elif builtin_id == 8:  # array(n)
                        size = pop()
                        if size < 0:
                            raise VMRuntimeError(f"negative array size {size}")
                        push([0] * size)
                    elif builtin_id == 9:  # len(a)
                        base = pop()
                        if not isinstance(base, list):
                            raise VMRuntimeError("len() of a non-array value")
                        push(len(base))
                    elif builtin_id == 10:  # srand(seed)
                        rng_state = pop() & _RNG_MASK
                        push(0)
                    elif builtin_id == 11:  # rand()
                        rng_state = (_RNG_MULT * rng_state + _RNG_INC) & _RNG_MASK
                        # Return the high bits: the low bits of a power-of-2
                        # LCG have short periods (bit k cycles every 2^(k+1)),
                        # which freezes guest code that computes rand() % n.
                        push(rng_state >> 16)
                    else:  # pragma: no cover - codegen only emits known ids
                        raise VMRuntimeError(f"unknown builtin id {builtin_id}")
                elif op == _CALL:
                    if executed > fuel:
                        raise FuelExhausted(executed)
                    func_index, argc = arg
                    callee_ops, callee_args, callee_nlocals = code[func_index]
                    new_locals = [0] * callee_nlocals
                    for i in range(argc - 1, -1, -1):
                        new_locals[i] = pop()
                    frames.append((ops, args, pc, locals_))
                    if len(frames) > MAX_CALL_DEPTH:
                        raise VMRuntimeError("guest call stack overflow (recursion too deep)")
                    ops, args, locals_ = callee_ops, callee_args, new_locals
                    pc = 0
                elif op == _RET:
                    return_value = pop()
                    if not frames:
                        return RunResult(
                            return_value=return_value,
                            output=output,
                            instructions=executed,
                            branches=branches,
                            packed_trace=trace,
                        )
                    ops, args, pc, locals_ = frames.pop()
                    push(return_value)
                elif op == _HALT:
                    return RunResult(
                        return_value=0,
                        output=output,
                        instructions=executed,
                        branches=branches,
                        packed_trace=trace,
                    )
                else:  # pragma: no cover - compiler emits only known opcodes
                    raise VMRuntimeError(f"unknown opcode {op} at pc {pc - 1}")
        except (TypeError, IndexError) as exc:
            raise VMRuntimeError(f"guest fault at pc {pc - 1}: {exc}") from exc
