"""Differential fuzzing of the Minic compiler.

A seeded generator produces random *valid* Minic programs (declare-before-
use, bounded loops, guarded recursion).  Each program is compiled with and
without optimization and executed; both builds must produce identical
observable behaviour (return value, output stream, or the same guest
fault).  The pretty-printer round-trip is checked on the same programs.

This is the compiler-correctness net under the whole experiment stack: a
miscompilation would silently corrupt every branch trace.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import VMError
from repro.lang import compile_source
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.printer import print_program
from repro.vm import InputSet, Machine

_BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
           "==", "!=", "<", "<=", ">", ">="]
_UNOPS = ["-", "!", "~"]


class ProgramGenerator:
    """Generates one random, semantically valid Minic program per seed.

    Besides straight-line code, ``if``/``else`` and counted ``for`` loops it
    emits the control-flow shapes a structuring compiler must handle:
    ``while`` loops with ``break``/``continue``, ``do``-``while`` loops,
    ``&&``/``||`` in branch and value context, calls nested inside
    expressions (operands live across the call), ``return`` inside a loop,
    and a depth-guarded recursive helper.  Every loop is bounded by a
    counter its body cannot assign.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.globals: list[str] = []
        self.global_arrays: list[tuple[str, int]] = []
        self.counters: set[str] = set()
        #: Call templates usable in expressions (filled in before main).
        self.calls: list[str] = []
        self.fresh = 0

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    # ------------------------------------------------------------------
    # Expressions (over the in-scope variable list)
    # ------------------------------------------------------------------

    def expr(self, scope: list[str], depth: int = 0) -> str:
        roll = self.rng.random()
        if depth >= 3 or roll < 0.3:
            return self.leaf(scope)
        if roll < 0.68:
            op = self.rng.choice(_BINOPS)
            left = self.expr(scope, depth + 1)
            right = self.expr(scope, depth + 1)
            if op in ("/", "%"):
                # Guard division: `(e | 1)` is never zero... unless negative
                # -1 cases are fine (nonzero).  Keeps faults rare but legal.
                right = f"({right} | 1)"
            if op in ("<<", ">>"):
                right = f"({right} & 15)"
            return f"({left} {op} {right})"
        if roll < 0.76:  # a short-circuit value (a branch condition in `if`)
            op = self.rng.choice(["&&", "||"])
            return f"({self.expr(scope, depth + 1)} {op} {self.expr(scope, depth + 1)})"
        if roll < 0.84:
            return f"({self.rng.choice(_UNOPS)}{self.expr(scope, depth + 1)})"
        if roll < 0.91 and self.global_arrays:
            array, size = self.rng.choice(self.global_arrays)
            index = self.expr(scope, depth + 1)
            return f"{array}[(({index}) % {size} + {size}) % {size}]"
        if roll < 0.97 and self.calls:
            return self.rng.choice(self.calls).format(self.expr(scope, depth + 1))
        return f"abs({self.expr(scope, depth + 1)})"

    def leaf(self, scope: list[str]) -> str:
        roll = self.rng.random()
        if scope and roll < 0.5:
            return self.rng.choice(scope)
        if self.globals and roll < 0.7:
            return self.rng.choice(self.globals)
        return str(self.rng.randint(-64, 64))

    def condition(self, scope: list[str]) -> str:
        """A branch condition, often a `&&`/`||` chain."""
        if self.rng.random() < 0.5:
            return self.expr(scope)
        op = self.rng.choice(["&&", "||"])
        return f"{self.expr(scope, 1)} {op} {self.expr(scope, 1)}"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def block(self, scope: list[str], depth: int, budget: int,
              loop: bool = False) -> list[str]:
        lines: list[str] = []
        local_scope = list(scope)
        for _ in range(self.rng.randint(1, max(1, budget))):
            lines.extend(self.statement(local_scope, depth, loop))
        return lines

    def counter(self, prefix: str) -> str:
        name = self.name(prefix)
        self.counters.add(name)
        return name

    def statement(self, scope: list[str], depth: int, loop: bool = False) -> list[str]:
        """One statement; ``loop``: inside a loop body (may break/continue)."""
        roll = self.rng.random()
        targets = [v for v in scope if v not in self.counters] + self.globals
        if roll < 0.25 or not scope:
            name = self.name("v")
            line = f"var {name} = {self.expr(scope)};"
            scope.append(name)
            return [line]
        if roll < 0.45 and targets:
            target = self.rng.choice(targets)
            op = self.rng.choice(["=", "+=", "-=", "*=", "&=", "|=", "^="])
            return [f"{target} {op} {self.expr(scope)};"]
        if roll < 0.57 and depth < 2:
            cond = self.condition(scope)
            then_body = self.block(scope, depth + 1, 2, loop)
            if self.rng.random() < 0.5:
                else_body = self.block(scope, depth + 1, 2, loop)
                return ([f"if ({cond}) {{"] + _indent(then_body)
                        + ["} else {"] + _indent(else_body) + ["}"])
            return [f"if ({cond}) {{"] + _indent(then_body) + ["}"]
        if roll < 0.65 and depth < 2:
            counter = self.counter("i")
            bound = self.rng.randint(1, 12)
            body = self.block(scope + [counter], depth + 1, 2, loop=True)
            return ([f"for (var {counter} = 0; {counter} < {bound}; {counter} += 1) {{"]
                    + _indent(body) + ["}"])
        if roll < 0.71 and depth < 2:
            # The counter steps first, so `continue` cannot skip it.
            counter = self.counter("w")
            cond = f"{counter} < {self.rng.randint(1, 10)}"
            if self.rng.random() < 0.5:
                cond += f" && {self.expr(scope + [counter], 1)}"
            body = self.block(scope + [counter], depth + 1, 2, loop=True)
            return ([f"var {counter} = 0;", f"while ({cond}) {{", f"    {counter} += 1;"]
                    + _indent(body) + ["}"])
        if roll < 0.76 and depth < 2:
            counter = self.counter("d")
            cond = f"{counter} < {self.rng.randint(1, 10)}"
            if self.rng.random() < 0.5:
                cond += f" && {self.expr(scope + [counter], 1)}"
            body = self.block(scope + [counter], depth + 1, 2, loop=True)
            return ([f"var {counter} = 0;", "do {", f"    {counter} += 1;"]
                    + _indent(body) + [f"}} while ({cond});"])
        if roll < 0.83 and loop:
            exit_ = self.rng.choice(["break;", "continue;", f"return {self.expr(scope)};"])
            if self.rng.random() < 0.2:
                return [exit_]  # unconditional: the rest of the body is dead
            return [f"if ({self.condition(scope)}) {{", f"    {exit_}", "}"]
        if roll < 0.88 and self.global_arrays:
            array, size = self.rng.choice(self.global_arrays)
            index = self.expr(scope)
            return [f"{array}[(({index}) % {size} + {size}) % {size}] = {self.expr(scope)};"]
        return [f"output({self.expr(scope)});"]

    # ------------------------------------------------------------------

    def program(self) -> str:
        lines: list[str] = []
        for _ in range(self.rng.randint(0, 3)):
            name = self.name("g")
            lines.append(f"global {name} = {self.rng.randint(-20, 20)};")
            self.globals.append(name)
        for _ in range(self.rng.randint(0, 2)):
            name = self.name("arr")
            size = self.rng.randint(2, 16)
            lines.append(f"global {name}[{size}];")
            self.global_arrays.append((name, size))

        # A couple of helper functions (loops in them may return early).
        helpers = []
        for _ in range(self.rng.randint(0, 2)):
            fname = self.name("f")
            param = self.name("p")
            body = self.block([param], depth=1, budget=2)
            helpers.append(fname)
            lines.append(f"func {fname}({param}) {{")
            lines.extend(_indent(body))
            lines.append(f"    return {self.expr([param])};")
            lines.append("}")
        calls = [f"{fname}({{}})" for fname in helpers]
        if self.rng.random() < 0.5:
            # Guarded recursion, at most 16 frames deep.
            fname = self.name("r")
            param = self.name("n")
            lines.append(f"func {fname}({param}) {{")
            lines.append(f"    if ({param} <= 0) {{ return {self.leaf([param])}; }}")
            lines.append(f"    return {fname}({param} - 1) + {self.expr([param], 1)};")
            lines.append("}")
            calls.append(f"{fname}(({{}}) & 15)")
        # Main's expressions may call the helpers (operands live across).
        self.calls = calls

        lines.append("func main() {")
        main_scope: list[str] = []
        lines.extend(_indent(self.block(main_scope, depth=0, budget=6)))
        for call in calls:
            lines.append(f"    output({call.format(self.expr(main_scope) + ' & 31')});")
        lines.append(f"    return {self.expr(main_scope)};")
        lines.append("}")
        return "\n".join(lines)


def _indent(lines: list[str]) -> list[str]:
    return [f"    {line}" for line in lines]


def observable(source: str, optimize: bool):
    """(kind, payload) of one build's behaviour."""
    program = compile_source(source, optimize=optimize)
    machine = Machine(program, fuel=3_000_000)
    try:
        result = machine.run(InputSet.make("fuzz"))
    except VMError as exc:
        return ("fault", type(exc).__name__)
    return ("ok", (result.return_value, tuple(result.output)))


@pytest.mark.parametrize("seed", range(40))
def test_optimized_matches_unoptimized(seed):
    source = ProgramGenerator(seed).program()
    plain = observable(source, optimize=False)
    optimized = observable(source, optimize=True)
    assert plain == optimized, f"divergence for seed {seed}:\n{source}"


@pytest.mark.parametrize("seed", range(40, 60))
def test_printer_roundtrip_on_random_programs(seed):
    source = ProgramGenerator(seed).program()
    tree = parse(tokenize(source))
    printed = print_program(tree)
    printed_again = print_program(parse(tokenize(printed)))
    assert printed == printed_again

    # The printed program must also behave identically.
    assert observable(source, True) == observable(printed, True), source


@pytest.mark.parametrize("seed", range(60, 70))
def test_traces_deterministic_on_random_programs(seed):
    source = ProgramGenerator(seed).program()
    program = compile_source(source)
    machine = Machine(program, fuel=3_000_000)
    try:
        first = machine.run(InputSet.make("fuzz"), mode="trace")
        second = machine.run(InputSet.make("fuzz"), mode="trace")
    except VMError:
        pytest.skip("random program faults; determinism of faults is "
                    "covered by the differential test")
    assert first.packed_trace == second.packed_trace
