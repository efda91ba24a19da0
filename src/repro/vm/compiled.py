"""Function compiler: trace-mode execution as generated Python code.

The first trace-mode run of a :class:`~repro.bytecode.program.Program`
translates it, once, into Python source and ``exec``\\ s it; the result is
cached on the program object, so every later machine and every input of a
population reuses it.

Each guest function becomes one nested Python function of a per-run
closure ``run(G, D, A, T, F)``:

* parameters and locals are Python locals (``l0, l1, ...``, defaulting to
  0 as in the interpreter's frame), and a guest ``CALL`` is a Python call
  that returns the callee's value;
* natural loops become ``while True:`` loops, with ``continue`` on a back
  edge and ``break`` on an exit;
* a forward branch becomes an ``if``/``else`` whose arms hold the blocks
  only that arm reaches; a block reached from several places is emitted
  once, after the code of its immediate dominator, where the arms meet.
  When the arms reaching that point do not all go to the same block
  (short-circuit chains, a loop with exits to different places), the
  selector local ``s`` names the block being jumped to and each block
  there is guarded by ``if s == <block>:``;
* within a basic block the operand stack lives in Python expressions and
  temporaries; values live across a block boundary (the 0/1 of a
  value-context ``&&``) are held in stack-slot locals ``k0, k1, ...``;
* operands are bound as constants, a comparison feeding a branch is fused
  into the branch's ``if``, and the branch observation is inlined as
  ``T(<site * 2 + taken>)``;
* each basic block adds its instruction count to ``E`` on entry (a block
  with calls adds each stretch up to a call when it starts), so
  ``instructions`` stays exact, and fuel is checked where the interpreter
  checks it (at jumps, branches and calls).

Guest calls recurse in Python.  In a program whose call graph has a cycle,
every function takes its call depth ``d`` and bails at exactly the
interpreter's overflow; for the run's duration the recursion limit is
raised when ``MAX_CALL_DEPTH`` frames would not fit under it, and a
``RecursionError`` still becomes a depth bail.

Exactness rule: the compiled code never reports an error itself.  On a
guest fault (an exception guest code can raise, or a guard such as a
negative index), fuel overrun or call-depth overflow it raises
:class:`Bail`; the caller then re-runs the input from scratch on the
interpreter, which returns the exact result or raises the exact error.
A function with irreducible control flow (hand-written bytecode) or nested
deeper than CPython compiles runs as a loop over its blocks dispatched on
``s``; one whose operand-stack depth is not static or that jumps outside
its code (no Minic program does either) bails on entry.
"""

from __future__ import annotations

import re
import sys
import time
from contextlib import contextmanager, nullcontext

from repro.bytecode.cfg import build_cfg
from repro.bytecode.opcodes import Opcode
from repro.bytecode.program import Program
from repro.obs import get_registry, get_tracer

#: Maximum guest call depth; the interpreter raises past the same depth.
MAX_CALL_DEPTH = 4000

#: Python frames kept free below the recursion limit besides the guest's.
_FRAME_MARGIN = 64

#: Nesting past which a function is emitted as a block dispatch loop
#: instead (CPython allows 20 nested loops and 100 indentation levels).
_MAX_LOOP_NESTING = 16
_MAX_INDENT = 64

#: Characters after which a pending expression is put in a temporary, so
#: long operand chains never nest deeper than the Python parser allows.
_MAX_EXPR = 200

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
_TERMINATORS = (int(Opcode.JUMP), *_BRANCHES, int(Opcode.RET), int(Opcode.HALT))
_FUEL = 'if E > F: raise Bail("fuel")'


class Bail(Exception):
    """The compiled code abandoned a run (``reason``: fault, fuel or depth)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Halt(Exception):
    """A guest ``HALT``: the run ends with return value 0."""


class _Unsupported(Exception):
    """Bytecode outside what the function compiler translates."""


class _Unstructured(Exception):
    """Control flow that nested loops and ``if``\\ s cannot express."""


# A symbolic operand-stack entry is ``(kind, text)``:
#   "c" a constant literal, "t" a temporary or stack slot, "l" a guest
#   local (all three cheap to duplicate), "e" a pure expression over
#   locals/globals, "b" a condition whose value is ``1 if text else 0``.
def _value(entry: tuple[str, str]) -> str:
    kind, text = entry
    return f"(1 if {text} else 0)" if kind == "b" else text


class _Block:
    """One basic block in Python: straight-line code and how it exits.

    ``exit`` is ``"goto"`` (one successor pc), ``"branch"`` (``cond`` true
    goes to ``succ[0]`` and records ``obs[0]``, false to ``succ[1]`` and
    ``obs[1]``) or ``"end"`` (the code returns or raises).
    """

    def __init__(self, compiler: "_FunctionCompiler", start: int, end: int, depth: int):
        self.program = compiler.program
        self.depth_checked = compiler.depth_checked
        self.uses = compiler.uses
        self.lines: list[str] = []
        self.stack = [("t", f"k{i}") for i in range(depth)]
        self.temps = 0
        self.head = 0  # instructions up to and including the first call
        self.exit = "end"
        self.succ: list[int] = []
        self.cond = ""
        self.obs: tuple[int, int] = (0, 0)
        self.exit_depth = 0
        self._translate(compiler.function, start, end)

    # -- operand stack ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def temp(self, text: str) -> tuple[str, str]:
        name = f"t{self.temps}"
        self.temps += 1
        self.emit(f"{name} = {text}")
        return ("t", name)

    def push(self, kind: str, text: str) -> None:
        if len(text) > _MAX_EXPR:
            self.stack.append(self.temp(_value((kind, text))))
        else:
            self.stack.append((kind, text))

    def pop(self) -> tuple[str, str]:
        if not self.stack:
            raise _Unsupported("operand stack underflow")
        return self.stack.pop()

    def simple(self, entry: tuple[str, str]) -> tuple[str, str]:
        """The entry evaluated now, as something safe to mention twice."""
        return entry if entry[0] in "ctl" else self.temp(_value(entry))

    def settle(self, mentions: str | None = None) -> None:
        """Evaluate pending expressions (those mentioning ``mentions``)."""
        self.stack = [
            self.simple(entry) if entry[0] in "eb" and (
                mentions is None or re.search(mentions, entry[1])) else entry
            for entry in self.stack]

    def leave(self, cond: str = "") -> str:
        """Store the stack in the slots a successor block starts from.

        Returns ``cond`` (put in a temporary first if it reads a slot
        this overwrites).
        """
        self.exit_depth = len(self.stack)
        slots = [(f"k{i}", _value(entry)) for i, entry in enumerate(self.stack)
                 if entry != ("t", f"k{i}")]
        if slots and cond and any(re.search(rf"\b{name}\b", cond) for name, _ in slots):
            cond = self.temp(cond)[1]
        if len(slots) == 1:
            self.emit(f"{slots[0][0]} = {slots[0][1]}")
        elif slots:
            self.emit(f"{', '.join(n for n, _ in slots)} = "
                      f"{', '.join(v for _, v in slots)}")
        self.stack = []
        return cond

    def guard_index(self, index: tuple[str, str]) -> tuple[str, str]:
        """A non-negative index (negative ones would wrap in Python)."""
        index = self.simple(index)
        if index[0] == "c":
            if int(index[1].strip("()")) < 0:
                self.emit('raise Bail("fault")')
        else:
            self.emit(f'if {index[1]} < 0: raise Bail("fault")')
        return index

    # -- translation -----------------------------------------------------

    def _translate(self, function, start: int, end: int) -> None:
        ops, args = function.ops, function.args
        # A call ends a counting segment: the code after it adds its own
        # count once the callee returns, so the callee's fuel checks never
        # see instructions its caller has yet to run.
        cuts: list[tuple[int, int]] = []  # (line index, pc after the call)
        for pc in range(start, end):
            op, arg = ops[pc], args[pc]
            if op == Opcode.JUMP:
                self.leave()
                self.emit(_FUEL)
                self.exit, self.succ = "goto", [arg]
            elif op in _BRANCHES:
                target, site = arg
                kind, text = self.pop()
                # ``cond`` holds iff the popped value is non-zero.
                cond = self.leave(text if kind == "b" else f"{text} != 0")
                when = op == Opcode.BR_TRUE  # cond true means taken
                self.exit, self.cond = "branch", cond
                self.succ = [target, pc + 1] if when else [pc + 1, target]
                self.obs = (site * 2 + int(when), site * 2 + int(not when))
            elif op == Opcode.CALL:
                self.call(arg)
                cuts.append((len(self.lines), pc + 1))
                self.emit("")
            elif op == Opcode.RET:
                value = _value(self.pop())
                self.settle()
                self.emit(f"return {value}")
            elif op == Opcode.HALT:
                self.settle()
                self.emit("raise Halt")
            else:
                self.straight(op, arg)
        if op not in _TERMINATORS:
            self.leave()
            self.exit, self.succ = "goto", [end]
        bounds = [pc for _, pc in cuts] + [end]
        self.head = bounds[0] - start
        for (index, after), upto in zip(cuts, bounds[1:]):
            self.lines[index] = f"E += {upto - after}" if upto > after else None
        self.lines = [line for line in self.lines if line is not None]

    def call(self, arg) -> None:
        callee, argc = arg
        if argc > len(self.stack):
            raise _Unsupported("operand stack underflow")
        # Everything the interpreter computed before the CALL is computed
        # before its fuel check; a callee can write globals, not locals.
        self.settle()
        params = [_value(entry) for entry in self.stack[len(self.stack) - argc:]]
        del self.stack[len(self.stack) - argc:]
        self.emit(_FUEL)
        functions = self.program.functions
        if not 0 <= callee < len(functions) or argc > functions[callee].num_locals:
            self.emit('raise Bail("fault")')  # the interpreter's IndexError
            self.stack.append(("c", "0"))
            return
        if self.depth_checked:
            params.insert(0, "d + 1")
        self.stack.append(self.temp(f"f{callee}({', '.join(params)})"))

    def straight(self, op: int, arg) -> None:
        """Translate one non-control instruction."""
        if op == Opcode.LOAD_LOCAL:
            self.stack.append(("l", f"l{arg}"))
        elif op == Opcode.CONST:
            self.stack.append(("c", repr(arg) if arg >= 0 else f"({arg!r})"))
        elif op == Opcode.STORE_LOCAL:
            value = _value(self.pop())
            name = f"l{arg}"
            self.stack = [self.temp(name) if entry == ("l", name) else entry
                          for entry in self.stack]
            self.settle(rf"\b{name}\b")
            self.emit(f"{name} = {value}")
        elif op in _COMPARE:
            right, left = self.pop(), self.pop()
            self.push("b", f"{_value(left)} {_COMPARE[op]} {_value(right)}")
        elif op in _BINARY:
            right, left = self.pop(), self.pop()
            self.push("e", f"({_value(left)} {_BINARY[op]} {_value(right)})")
        elif op == Opcode.LOAD_GLOBAL:
            self.uses.add("g")
            self.stack.append(("e", f"g[{arg}]"))
        elif op == Opcode.STORE_GLOBAL:
            value = _value(self.pop())
            self.settle(re.escape(f"g[{arg}]"))
            self.uses.add("g")
            self.emit(f"g[{arg}] = {value}")
        elif op == Opcode.LOAD_INDEX:
            index = self.pop()
            base = self.pop()
            index = self.guard_index(index)
            self.stack.append(self.temp(f"{_value(base)}[{index[1]}]"))
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
            self.push("e", f"({_value(left)} {_SHIFT[op]} {count})")
        elif op in (Opcode.DIV, Opcode.MOD):
            right = self.simple(self.pop())
            left = self.simple(self.pop())
            if right[0] != "c" or int(right[1].strip("()")) == 0:
                self.emit(f'if {right[1]} == 0: raise Bail("fault")')
            q = self.temp(f"{left[1]} // {right[1]}")[1]
            self.emit(f"if {q} < 0 and {q} * {right[1]} != {left[1]}: {q} += 1")
            if op == Opcode.DIV:
                self.stack.append(("t", q))
            else:
                self.push("e", f"({left[1]} - {right[1]} * {q})")
        elif op == Opcode.NEG:
            self.push("e", f"(-{_value(self.pop())})")
        elif op == Opcode.NOT:
            kind, text = self.pop()
            self.push("b", f"not ({text})" if kind == "b" else f"{text} == 0")
        elif op == Opcode.BNOT:
            self.push("e", f"(~{_value(self.pop())})")
        elif op == Opcode.POP:
            kind, text = self.pop()
            if kind in "eb":
                self.emit(_value((kind, text)))  # evaluated for its faults
        elif op == Opcode.DUP:
            top = self.simple(self.pop())
            self.stack += [top, top]
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
            self.push("e", f"(-{value} if {value} < 0 else {value})")
        elif builtin_id in (6, 7):  # min(a, b), max(a, b)
            right = self.simple(self.pop())[1]
            left = self.simple(self.pop())[1]
            cmp = "<" if builtin_id == 6 else ">"
            self.push("e", f"({left} if {left} {cmp} {right} else {right})")
        elif builtin_id == 8:  # array(n)
            self.new_array()
        elif builtin_id == 9:  # len(a)
            push(self.temp(f"len({_value(self.pop())})"))
        elif builtin_id == 10:  # srand(seed)
            self.emit(f"R = {_value(self.pop())} & {_RNG_MASK}")
            self.uses.add("R")
            push(("c", "0"))
        elif builtin_id == 11:  # rand()
            self.emit(f"R = ({_RNG_MULT} * R + {_RNG_INC}) & {_RNG_MASK}")
            self.uses.add("R")
            push(self.temp("R >> 16"))
        else:
            self.emit('raise Bail("fault")')


# Structured statements, built per function before rendering:
#   ("code", lines, falls)    straight-line Python (``falls``: not ending
#                             in ``return``/``raise``)
#   ("if", cond, then, else)  a two-way branch; arms are statement lists
#   ("loop", body)            ``while True:``
#   _Edge                     a jump, break or continue
#   _Section                  a block emitted where the arms reaching it meet
_FALL = None  # in ``flow``: execution runs on into the next statement


class _Edge:
    """A transfer to ``target``: ``"jump"`` falls out to where the block is
    emitted, ``"break"`` leaves the innermost loop towards it, ``"continue"``
    goes back to the innermost loop's header.  ``assign``: set ``s`` first.
    """

    def __init__(self, kind: str, target: int):
        self.kind = kind
        self.target = target
        self.assign = False


class _Section:
    """A block's code at the point where the jumps to it fall out."""

    def __init__(self, target: int, body: list):
        self.target = target
        self.body = body
        self.guarded = True


class _Region:
    """The blocks of one loop body (or the function body) as a DAG.

    Nested loops are collapsed into one node each (keyed by their header
    block), back edges to this loop's header are dropped, and edges that
    leave the loop are dropped; what remains is acyclic in reducible code.
    """

    def __init__(self, compiler: "_FunctionCompiler", header: int | None):
        self.header = header
        self.node = {b: compiler.node_of(b, header) for b in compiler.members(header)}
        entry = compiler.node_of(0, header) if header is None else header
        succ: dict[int, list[int]] = {}
        for node in set(self.node.values()):
            succ[node] = [self.node[v] for v in compiler.exits(node, header)
                          if self.kind(v) == "node"]
        # Topological order (reverse DFS postorder), rejecting cycles.
        order: list[int] = []
        state: dict[int, int] = {entry: 1}
        stack = [(entry, iter(succ[entry]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if state.get(nxt) == 1:
                    raise _Unstructured
                if nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                state[node] = 2
                order.append(node)
                stack.pop()
        order.reverse()
        self.entry = entry
        self.in_degree = {node: 0 for node in order}
        for node in order:
            for nxt in succ[node]:
                self.in_degree[nxt] += 1
        # A region node's immediate dominator in the DAG is the node
        # holding the block's immediate dominator in the function.
        self.children = {node: [] for node in order}
        for node in order[1:]:
            self.children[self.node[compiler.cfg.idom[node]]].append(node)

    def kind(self, block: int) -> str:
        """How an edge to ``block`` leaves a node of this region."""
        if block == self.header:
            return "continue"
        return "node" if block in self.node else "break"


class _FunctionCompiler:
    """Emits the source of one guest function as one Python function."""

    def __init__(self, program: Program, index: int, depth_checked: bool):
        self.program = program
        self.index = index
        self.function = program.functions[index]
        self.depth_checked = depth_checked
        self.uses: set[str] = set()
        self.regions: dict[int | None, _Region] = {}

    def source(self) -> list[str]:
        """The function's ``def`` (unindented lines)."""
        try:
            body = self.body()
        except _Unsupported:
            body = ['raise Bail("fault")']
        params = [f"l{i}=0" for i in range(self.function.num_locals)]
        if self.depth_checked:
            params.insert(0, "d")
        lines = [f"def f{self.index}({', '.join(params)}):",
                 f"    nonlocal {', '.join(sorted({'E'} | self.uses - {'g'}))}"]
        if self.depth_checked:
            lines.append(f'    if d > {MAX_CALL_DEPTH}: raise Bail("depth")')
        if "g" in self.uses:
            lines.append("    g = G")
        return lines + ["    " + line for line in body]

    # -- analysis --------------------------------------------------------

    def body(self) -> list[str]:
        func = self.function
        n = len(func.ops)
        for pc, op in enumerate(func.ops):
            if op in _BRANCHES or op == Opcode.JUMP:
                target = func.args[pc][0] if op in _BRANCHES else func.args[pc]
                if not isinstance(target, int) or not 0 <= target < n:
                    raise _Unsupported("jump outside the function")
        if not n or func.ops[-1] not in (Opcode.JUMP, Opcode.RET, Opcode.HALT):
            raise _Unsupported("code runs off the end")
        self.cfg = cfg = build_cfg(func)

        # Reachable blocks, translated in depth-first preorder so a block's
        # entry stack depth is known from an edge already seen.
        self.blocks: dict[int, _Block] = {}
        depth = {0: 0}
        stack = [0]
        while stack:
            b = stack.pop()
            if b in self.blocks:
                continue
            block = cfg.blocks[b]
            code = self.blocks[b] = _Block(self, block.start, block.end, depth[b])
            code.succ = [cfg.block_of_pc[pc] for pc in code.succ]
            for nxt in reversed(code.succ):
                if depth.setdefault(nxt, code.exit_depth) != code.exit_depth:
                    raise _Unsupported("operand stack depth differs between paths")
                stack.append(nxt)

        # Natural loops of the reachable code, each nested in the
        # smallest one around it (larger loops are visited first).
        self.loops = {h: body & self.blocks.keys() for h, body in cfg.loop_blocks.items()
                      if h in self.blocks}
        self.parent: dict[int, int | None] = {}
        self.innermost: dict[int, int | None] = {b: None for b in self.blocks}
        for h in sorted(self.loops, key=lambda h: len(self.loops[h]), reverse=True):
            outer = self.innermost[h]
            if any(self.innermost[b] != outer for b in self.loops[h]):
                return self.dispatch_loop()  # overlapping loops: irreducible
            self.parent[h] = outer
            for b in self.loops[h]:
                self.innermost[b] = h
        try:
            statements = self.emit(self.region(None).entry, self.region(None))
        except _Unstructured:
            return self.dispatch_loop()
        assert not self.flow(statements, set()), "control falls off the function"
        lines = self.render(statements, 0)
        if max((len(line) - len(line.lstrip())) // 4 for line in lines) > _MAX_INDENT:
            return self.dispatch_loop()
        return lines

    def members(self, header: int | None):
        return self.blocks.keys() if header is None else self.loops[header]

    def node_of(self, block: int, header: int | None) -> int:
        """The node standing for ``block`` in ``header``'s region."""
        loop = self.innermost[block]
        if loop == header:
            return block
        while self.parent[loop] != header:
            loop = self.parent[loop]
        return loop

    def exits(self, node: int, header: int | None) -> list[int]:
        """Successor blocks of a region node (a loop node's exit targets)."""
        if node == header or node not in self.loops:
            return self.blocks[node].succ
        body = self.loops[node]
        seen: dict[int, None] = {}
        for b in sorted(body):
            for v in self.blocks[b].succ:
                if v not in body:
                    seen[v] = None
        return list(seen)

    def region(self, header: int | None) -> _Region:
        if header not in self.regions:
            self.regions[header] = _Region(self, header)
        return self.regions[header]

    # -- structuring -----------------------------------------------------

    def emit(self, node: int, region: _Region, nesting: int = 0) -> list:
        """Statements for ``node`` and every node it dominates.

        ``nesting`` counts the loops around ``node``.
        """
        inlined: set[int] = set()
        if node != region.header and node in self.loops:
            if nesting >= _MAX_LOOP_NESTING:
                raise _Unstructured
            inner = self.region(node)
            out: list = [("loop", self.emit(node, inner, nesting + 1))]
            for v in self.exits(node, region.header):
                kind = region.kind(v)
                if kind != "node":
                    out.append(_Section(v, [_Edge(kind, v)]))
        else:
            block = self.blocks[node]
            out = [("code", [f"E += {block.head}", *block.lines], block.exit != "end")]

            def arm(target: int) -> list:
                kind = region.kind(target)
                if kind != "node":
                    return [_Edge(kind, target)]
                target = region.node[target]
                if region.in_degree[target] == 1:
                    inlined.add(target)
                    return self.emit(target, region, nesting)
                return [_Edge("jump", target)]

            if block.exit == "goto":
                out += arm(block.succ[0])
            elif block.exit == "branch":
                then, other = block.succ
                out.append(("if", block.cond,
                            [("code", [_FUEL, f"T({block.obs[0]})"], True), *arm(then)],
                            [("code", [_FUEL, f"T({block.obs[1]})"], True), *arm(other)]))
        for child in region.children[node]:
            if child not in inlined:
                out.append(_Section(child, self.emit(child, region, nesting)))
        return out

    def flow(self, statements: list, exits: set) -> set:
        """The edges falling out of ``statements``; places the ``s`` guards.

        A block's section needs ``if s == <block>:`` unless every edge
        reaching it goes to that block, and an edge sets ``s`` only if it
        passes a guarded section.  ``exits`` collects the innermost loop's
        breaks, which fall out of the loop.
        """
        falling = {_FALL}
        for st in statements:
            if isinstance(st, _Section):
                targets = {edge.target for edge in falling if edge is not _FALL}
                assert _FALL not in falling and st.target in targets
                st.guarded = targets != {st.target}
                for edge in falling if st.guarded else ():
                    edge.assign = True
                falling = {edge for edge in falling if edge.target != st.target}
                falling |= self.flow(st.body, exits)
            elif isinstance(st, _Edge):
                if st.kind == "break":
                    exits.add(st)
                falling = {st} if st.kind == "jump" else set()
            elif st[0] == "code":
                falling = {_FALL} if st[2] else set()
            elif st[0] == "if":
                falling = self.flow(st[2], exits) | self.flow(st[3], exits)
            else:  # loop
                inner: set = set()
                assert not self.flow(st[1], inner), "control falls off a loop body"
                falling = inner
        return falling

    def render(self, statements: list, indent: int) -> list[str]:
        pad = "    " * indent
        lines: list[str] = []
        for st in statements:
            if isinstance(st, _Section):
                if st.guarded:
                    lines.append(f"{pad}if s == {st.target}:")
                lines += self.render(st.body, indent + st.guarded)
            elif isinstance(st, _Edge):
                if st.assign:
                    lines.append(f"{pad}s = {st.target}")
                if st.kind != "jump":
                    lines.append(f"{pad}{st.kind}")
            elif st[0] == "code":
                lines += [pad + line for line in st[1]]
            elif st[0] == "if":
                lines.append(f"{pad}if {st[1]}:")
                lines += self.render(st[2], indent + 1)
                lines.append(f"{pad}else:")
                lines += self.render(st[3], indent + 1)
            else:
                lines.append(f"{pad}while True:")
                lines += self.render(st[1], indent + 1)
        return lines

    def dispatch_loop(self) -> list[str]:
        """The function as a loop over its blocks, dispatched on ``s``."""
        lines = ["s = 0", "while True:"]
        for i, (b, block) in enumerate(sorted(self.blocks.items())):
            lines.append(f"    {'if' if i == 0 else 'elif'} s == {b}:")
            lines += [f"        {line}" for line in [f"E += {block.head}", *block.lines]]
            if block.exit == "goto":
                lines.append(f"        s = {block.succ[0]}")
            elif block.exit == "branch":
                for j, keyword in enumerate((f"if {block.cond}:", "else:")):
                    lines += [f"        {keyword}", f"            {_FUEL}",
                              f"            T({block.obs[j]})",
                              f"            s = {block.succ[j]}"]
        return lines


def _recursive(program: Program) -> bool:
    """Does the call graph have a cycle (so guest depth is unbounded)?"""
    count = len(program.functions)
    calls = [{arg[0] for op, arg in zip(f.ops, f.args)
              if op == Opcode.CALL and 0 <= arg[0] < count}
             for f in program.functions]
    state: dict[int, int] = {}

    def visit(f: int) -> bool:
        state[f] = 1
        for g in calls[f]:
            if state.get(g) == 1 or (g not in state and visit(g)):
                return True
        state[f] = 2
        return False

    return any(f not in state and visit(f) for f in range(count))


def generate_source(program: Program) -> str:
    """Python source of ``run(G, D, A, T, F) -> (RV, E, O)`` for a program."""
    depth_checked = _recursive(program)
    functions: list[str] = []
    for index in range(len(program.functions)):
        functions += _FunctionCompiler(program, index, depth_checked).source()
    names = [f"f{i}" for i in range(len(program.functions))]
    head = [
        "def run(G, D, A, T, F):",
        "    E = 0",
        "    R = 12345",
        "    O = []",
        "    DN = len(D)",
        "    AN = len(A)",
    ]
    # Recursive functions reference themselves through closure cells;
    # emptying the cells afterwards breaks those cycles, so a run's
    # closures are freed at once instead of by the cyclic collector.
    clear = ["        " + " = ".join(names[i:i + 16]) + " = None"
             for i in range(0, len(names), 16)]
    tail = ["    try:",
            f"        RV = f{program.main_index}({'0' if depth_checked else ''})",
            "    except Halt:",
            "        RV = 0",
            "    finally:", *clear,
            "    return RV, E, O"]
    return "\n".join(head + ["    " + line for line in functions] + tail) + "\n"


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextmanager
def _recursion_headroom(frames: int):
    """Room for ``frames`` more Python frames while the body runs.

    The limit is process-wide: a run in another thread that loses its
    headroom when this one restores the limit bails ``depth`` and is
    replayed, exactly, on the interpreter.
    """
    limit = sys.getrecursionlimit()
    need = _stack_depth() + frames + _FRAME_MARGIN
    if limit >= need:
        yield
        return
    sys.setrecursionlimit(need)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class CompiledProgram:
    """The function-compiled form of one program."""

    def __init__(self, program: Program):
        source = generate_source(program)
        self.source_lines = source.count("\n")
        self.recursive = _recursive(program)
        namespace = {"Bail": Bail, "Halt": Halt}
        exec(compile(source, f"<compiledvm {program.name}>", "exec"), namespace)
        self._run = namespace.pop("run")  # no function <-> globals cycle

    def run(self, input_set, fuel: int, globals_: list) -> tuple[int, int, list, list]:
        """``(return_value, instructions, output, packed_trace)``; may raise Bail."""
        trace: list[int] = []
        headroom = (_recursion_headroom(MAX_CALL_DEPTH + 1) if self.recursive
                    else nullcontext())
        try:
            with headroom:
                return_value, executed, output = self._run(
                    globals_, input_set.data, input_set.args, trace.append, fuel)
        except Bail:
            raise
        except RecursionError as exc:
            raise Bail("depth") from exc
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
        with get_tracer().span("vm.build", cat="vm", program=program.name,
                               functions=len(program.functions)) as span:
            timer = get_registry().histogram("vm_build_seconds")
            start = time.perf_counter()
            code = CompiledProgram(program)
            timer.observe(time.perf_counter() - start)
            span.set("lines", code.source_lines)
        program._compiled_vm = code
    return code
