"""Block compiler: trace-mode execution as generated Python code.

The first trace-mode run of a :class:`~repro.bytecode.program.Program`
translates it, once, into Python source and ``exec``\\ s it; the result is
cached on the program object, so every later machine and every input of a
population reuses it.

Translation works on *compiled blocks*: straight-line paths that start at
a function entry, a branch target/fall-through or a call continuation and
follow unconditional jumps until a conditional branch, a call, a return
or a size cap.  Each block becomes one nested function of a per-run
closure:

* the operand stack lives in Python expressions and temporaries inside
  the block and is spilled to the real stack ``S`` only at block exit;
* operands are bound as constants, and a comparison feeding a branch is
  fused into the branch's ``if``;
* the branch observation is inlined as ``T(<site * 2 + taken>)``;
* each block adds its instruction count to ``E`` on entry, so
  ``instructions`` stays exact, and checks fuel where the interpreter
  does (at jumps, branches and calls).

A driver loop (``while blk: blk = blk()``) runs the blocks; calls push
``(locals, continuation)`` onto an explicit frame list, so guest recursion
never recurses in Python.

Exactness rule: the compiled code never reports an error itself.  On a
guest fault (an exception guest code can raise, or a guard such as a
negative index), fuel overrun or call-depth overflow it raises
:class:`Bail`; the caller then re-runs the input from scratch on the
interpreter, which returns the exact result or raises the exact error.
"""

from __future__ import annotations

import re

from repro.bytecode.opcodes import Opcode
from repro.bytecode.program import Program

#: Maximum guest call depth; the interpreter raises past the same depth.
MAX_CALL_DEPTH = 4000

#: Instructions after which a compiled block stops following jumps.  It
#: bounds the code that tail duplication adds per block.
_MAX_BLOCK_OPS = 64

_RNG_MULT = 1103515245
_RNG_INC = 12345
_RNG_MASK = 0x7FFFFFFF

_BINARY = {
    int(Opcode.ADD): "+", int(Opcode.SUB): "-", int(Opcode.MUL): "*",
    int(Opcode.AND): "&", int(Opcode.OR): "|", int(Opcode.XOR): "^",
}
_COMPARE = {
    int(Opcode.EQ): "==", int(Opcode.NE): "!=", int(Opcode.LT): "<",
    int(Opcode.LE): "<=", int(Opcode.GT): ">", int(Opcode.GE): ">=",
}
_SHIFT = {int(Opcode.SHL): "<<", int(Opcode.SHR): ">>"}
_BRANCHES = (int(Opcode.BR_FALSE), int(Opcode.BR_TRUE))


class Bail(Exception):
    """The compiled code abandoned a run (``reason``: fault, fuel or depth)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# A symbolic operand-stack entry is ``(kind, text)``:
#   "c" a constant literal, "t" a temporary or per-run name (both cheap to
#   duplicate), "e" a pure expression over locals/globals, "b" a condition
#   whose value is ``1 if text else 0``.
def _value(entry: tuple[str, str]) -> str:
    kind, text = entry
    return f"(1 if {text} else 0)" if kind == "b" else text


class _BlockCompiler:
    """Emits the source of one compiled block."""

    def __init__(self, program: Program, name_of):
        self.program = program
        self.name_of = name_of  # (func, pc) -> block function name
        self.lines: list[str] = []
        self.stack: list[tuple[str, str]] = []
        self.temps = 0
        self.assigned = {"E"}

    # -- operand stack ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def temp(self, text: str) -> tuple[str, str]:
        name = f"t{self.temps}"
        self.temps += 1
        self.emit(f"{name} = {text}")
        return ("t", name)

    def pop(self) -> tuple[str, str]:
        if self.stack:
            return self.stack.pop()
        return self.temp("S.pop()")

    def simple(self, entry: tuple[str, str]) -> tuple[str, str]:
        """The entry as a constant or temporary (safe to mention twice)."""
        return entry if entry[0] in "ct" else self.temp(_value(entry))

    def settle(self) -> None:
        """Evaluate pending expressions before a local or global changes."""
        self.stack = [self.simple(entry) for entry in self.stack]

    def spill(self) -> None:
        if len(self.stack) == 1:
            self.emit(f"S.append({_value(self.stack[0])})")
        elif self.stack:
            self.emit(f"S.extend(({', '.join(map(_value, self.stack))}))")
        self.stack = []

    def guard_index(self, index: tuple[str, str]) -> tuple[str, str]:
        """A non-negative index (negative ones would wrap in Python)."""
        index = self.simple(index)
        if index[0] == "c":
            if int(index[1].strip("()")) < 0:
                self.emit('raise Bail("fault")')
        else:
            self.emit(f'if {index[1]} < 0: raise Bail("fault")')
        return index

    # -- one block -------------------------------------------------------

    def compile(self, func: int, start: int) -> list[str]:
        function = self.program.functions[func]
        ops, args = function.ops, function.args
        pc = start
        count = 0
        seen: set[int] = set()
        jump_checks: list[tuple[int, int]] = []  # (line index, count)
        checked_end = False
        while True:
            if pc >= len(ops):
                # Running off the end is a guest fault in the interpreter.
                self.emit('raise Bail("fault")')
                break
            if pc in seen or count >= _MAX_BLOCK_OPS:
                checked_end = bool(jump_checks) and jump_checks[-1][1] == count
                self.spill()
                if checked_end:
                    self.emit('if E > F: raise Bail("fuel")')
                self.emit(f"return {self.name_of(func, pc)}")
                break
            seen.add(pc)
            op, arg = ops[pc], args[pc]
            count += 1
            pc += 1
            if op == Opcode.JUMP:
                jump_checks.append((len(self.lines), count))
                pc = arg
            elif op in _BRANCHES:
                target, site = arg
                entry = self.pop()
                self.spill()
                self.emit('if E > F: raise Bail("fuel")')
                checked_end = True
                # ``cond`` holds iff the popped value is non-zero.
                cond = entry[1] if entry[0] == "b" else f"{entry[1]} != 0"
                when = op == Opcode.BR_TRUE  # cond true means taken
                yes, no = (target, pc) if when else (pc, target)
                self.emit(f"if {cond}:")
                self.emit(f"    T({site * 2 + int(when)})")
                self.emit(f"    return {self.name_of(func, yes)}")
                self.emit(f"T({site * 2 + int(not when)})")
                self.emit(f"return {self.name_of(func, no)}")
                break
            elif op == Opcode.CALL:
                callee, argc = arg
                params = [_value(self.pop()) for _ in range(argc)][::-1]
                self.spill()
                self.emit('if E > F: raise Bail("fuel")')
                checked_end = True
                pad = self.program.functions[callee].num_locals - argc
                frame = f"[{', '.join(params + ['0'] * pad)}]"
                if pad > 8:
                    frame = f"[{', '.join(params)}] + [0] * {pad}"
                self.emit(f"n = {frame}")
                self.emit(f"K.append((L, {self.name_of(func, pc)}))")
                self.emit(f'if len(K) > {MAX_CALL_DEPTH}: raise Bail("depth")')
                self.emit("L = n")
                self.emit(f"return {self.name_of(callee, 0)}")
                self.assigned.add("L")
                break
            elif op == Opcode.RET:
                value = _value(self.pop())
                self.emit(f"v = {value}")
                self.spill()
                self.emit("if K:")
                self.emit("    L, nxt = K.pop()")
                self.emit("    S.append(v)")
                self.emit("    return nxt")
                self.emit("RV = v")
                self.emit("return None")
                self.assigned.update(("L", "RV"))
                break
            elif op == Opcode.HALT:
                self.spill()
                self.emit("RV = 0")
                self.emit("return None")
                self.assigned.add("RV")
                break
            else:
                self.straight(op, arg)

        # Exact fuel checks for jumps a block runs through: needed only when
        # the block does not end on a checked instruction (whose own check,
        # with the larger count, subsumes them).
        if not checked_end:
            for index, at in reversed(jump_checks):
                self.lines.insert(
                    index, f'    if E > F + {count - at}: raise Bail("fuel")')
        return self.finish(func, start, count)

    def finish(self, func: int, start: int, count: int) -> list[str]:
        body = self.lines
        prologue = [f"    nonlocal {', '.join(sorted(self.assigned))}",
                    f"    E += {count}"]
        for alias, name in (("l", "L"), ("g", "G")):
            if any(re.search(rf"\b{alias}\[", line) for line in body):
                prologue.append(f"    {alias} = {name}")
        return [f"def {self.name_of(func, start)}():", *prologue, *body]

    def straight(self, op: int, arg) -> None:
        """Translate one non-control instruction."""
        push = self.stack.append
        if op == Opcode.LOAD_LOCAL:
            push(("e", f"l[{arg}]"))
        elif op == Opcode.CONST:
            push(("c", repr(arg) if arg >= 0 else f"({arg!r})"))
        elif op == Opcode.STORE_LOCAL:
            value = _value(self.pop())
            self.settle()
            self.emit(f"l[{arg}] = {value}")
        elif op in _COMPARE:
            right, left = self.pop(), self.pop()
            push(("b", f"{_value(left)} {_COMPARE[op]} {_value(right)}"))
        elif op in _BINARY:
            right, left = self.pop(), self.pop()
            push(("e", f"({_value(left)} {_BINARY[op]} {_value(right)})"))
        elif op == Opcode.LOAD_GLOBAL:
            push(("e", f"g[{arg}]"))
        elif op == Opcode.STORE_GLOBAL:
            value = _value(self.pop())
            self.settle()
            self.emit(f"g[{arg}] = {value}")
        elif op == Opcode.LOAD_INDEX:
            index = self.pop()
            base = self.pop()
            index = self.guard_index(index)
            push(self.temp(f"{_value(base)}[{index[1]}]"))
        elif op == Opcode.STORE_INDEX:
            value, index, base = self.pop(), self.pop(), self.pop()
            index = self.guard_index(index)
            self.emit(f"{_value(base)}[{index[1]}] = {_value(value)}")
        elif op in _SHIFT:
            right, left = self.pop(), self.pop()
            if right[0] == "c":
                count = str(int(right[1].strip("()")) & 63)
            else:
                count = f"({_value(right)} & 63)"
            push(("e", f"({_value(left)} {_SHIFT[op]} {count})"))
        elif op in (Opcode.DIV, Opcode.MOD):
            right = self.simple(self.pop())
            left = self.simple(self.pop())
            if right[0] != "c" or int(right[1].strip("()")) == 0:
                self.emit(f'if {right[1]} == 0: raise Bail("fault")')
            q = self.temp(f"{left[1]} // {right[1]}")[1]
            self.emit(f"if {q} < 0 and {q} * {right[1]} != {left[1]}: {q} += 1")
            if op == Opcode.DIV:
                push(("t", q))
            else:
                push(("e", f"({left[1]} - {right[1]} * {q})"))
        elif op == Opcode.NEG:
            push(("e", f"(-{_value(self.pop())})"))
        elif op == Opcode.NOT:
            kind, text = self.pop()
            push(("b", f"not ({text})" if kind == "b" else f"{text} == 0"))
        elif op == Opcode.BNOT:
            push(("e", f"(~{_value(self.pop())})"))
        elif op == Opcode.POP:
            kind, text = self.pop()
            if kind in "eb":
                self.emit(_value((kind, text)))  # evaluated for its faults
        elif op == Opcode.DUP:
            top = self.simple(self.pop())
            push(top)
            push(top)
        elif op == Opcode.DUP2:
            top = self.simple(self.pop())
            below = self.simple(self.pop())
            self.stack += [below, top, below, top]
        elif op == Opcode.NEW_ARRAY:
            self.new_array()
        elif op == Opcode.CALL_BUILTIN:
            self.builtin(arg[0])
        else:
            self.emit('raise Bail("fault")')

    def new_array(self) -> None:
        size = self.simple(self.pop())
        self.emit(f'if {size[1]} < 0: raise Bail("fault")')
        self.stack.append(self.temp(f"[0] * {size[1]}"))

    def builtin(self, builtin_id: int) -> None:
        push = self.stack.append
        if builtin_id in (0, 2):  # input(i), arg(i)
            index = self.guard_index(self.pop())
            push(self.temp(f"{'D' if builtin_id == 0 else 'A'}[{index[1]}]"))
        elif builtin_id in (1, 3):  # input_len(), arg_count()
            push(("t", "DN" if builtin_id == 1 else "AN"))
        elif builtin_id == 4:  # output(v)
            self.emit(f"O.append({_value(self.pop())})")
            push(("c", "0"))
        elif builtin_id == 5:  # abs(x)
            value = self.simple(self.pop())[1]
            push(("e", f"(-{value} if {value} < 0 else {value})"))
        elif builtin_id in (6, 7):  # min(a, b), max(a, b)
            right = self.simple(self.pop())[1]
            left = self.simple(self.pop())[1]
            cmp = "<" if builtin_id == 6 else ">"
            push(("e", f"({left} if {left} {cmp} {right} else {right})"))
        elif builtin_id == 8:  # array(n)
            self.new_array()
        elif builtin_id == 9:  # len(a)
            push(self.temp(f"len({_value(self.pop())})"))
        elif builtin_id == 10:  # srand(seed)
            self.emit(f"R = {_value(self.pop())} & {_RNG_MASK}")
            self.assigned.add("R")
            push(("c", "0"))
        elif builtin_id == 11:  # rand()
            self.emit(f"R = ({_RNG_MULT} * R + {_RNG_INC}) & {_RNG_MASK}")
            self.assigned.add("R")
            push(self.temp("R >> 16"))
        else:
            self.emit('raise Bail("fault")')


def generate_source(program: Program) -> str:
    """Python source of ``run(G, D, A, T, F, L) -> (RV, E, O)`` for a program."""
    names: dict[tuple[int, int], str] = {}
    pending: list[tuple[int, int]] = []

    def name_of(func: int, pc: int) -> str:
        key = (func, pc)
        if key not in names:
            names[key] = f"b{func}_{pc}"
            pending.append(key)
        return names[key]

    entry = name_of(program.main_index, 0)
    blocks: list[str] = []
    while pending:
        blocks += _BlockCompiler(program, name_of).compile(*pending.pop())
    head = [
        "def run(G, D, A, T, F, L):",
        "    E = 0",
        "    R = 12345",
        "    RV = 0",
        "    O = []",
        "    S = []",
        "    K = []",
        "    DN = len(D)",
        "    AN = len(A)",
    ]
    # The blocks reference each other through closure cells; emptying the
    # cells afterwards breaks those cycles, so a run's closures are freed
    # at once instead of waiting for the cyclic garbage collector.
    block_names = sorted(names.values())
    clear = ["        " + " = ".join(block_names[i:i + 16]) + " = None"
             for i in range(0, len(block_names), 16)]
    tail = [f"    blk = {entry}", "    try:", "        while blk:",
            "            blk = blk()", "    finally:", *clear,
            "    return RV, E, O"]
    return "\n".join(head + ["    " + line for line in blocks] + tail) + "\n"


class CompiledProgram:
    """The block-compiled form of one program."""

    def __init__(self, program: Program):
        source = generate_source(program)
        self.main_locals = program.functions[program.main_index].num_locals
        namespace = {"Bail": Bail}
        exec(compile(source, f"<blockvm {program.name}>", "exec"), namespace)
        self._run = namespace.pop("run")  # no function <-> globals cycle

    def run(self, input_set, fuel: int, globals_: list) -> tuple[int, int, list, list]:
        """``(return_value, instructions, output, packed_trace)``; may raise Bail."""
        trace: list[int] = []
        try:
            return_value, executed, output = self._run(
                globals_, input_set.data, input_set.args, trace.append, fuel,
                [0] * self.main_locals)
        except Bail:
            raise
        except (TypeError, IndexError, OverflowError, MemoryError) as exc:
            # The exceptions guest code can raise: the interpreter's replay
            # reports each one exactly.  Anything else is a compiler bug and
            # propagates.
            raise Bail("fault") from exc
        return return_value, executed, output, trace


def compiled(program: Program) -> CompiledProgram:
    """The program's compiled form, built on first use and kept on it."""
    code = program.__dict__.get("_compiled_vm")
    if code is None:
        code = CompiledProgram(program)
        program._compiled_vm = code
    return code
