"""Guard against src/ code whose only caller is its own unit test.

The scan is name-level and conservative: a function, class or method
defined in ``src/repro`` counts as used when its name appears as a
``Name`` or ``Attribute`` anywhere in ``src/``, ``examples/``,
``benchmarks/`` or ``perfbench/`` outside its own definition. Imports
and package re-exports (``from x import name``, ``__all__``) are not
uses. Dunder methods are called by the interpreter and are skipped.

A definition that only ``tests/`` reference fails this test. Either
delete it with its tests, or, when it is a test oracle, paper API or a
documented tool, add it to ``ALLOWED`` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench")

# "module:Qualified.name" -> why it stays although no caller uses it.
ALLOWED = {
    "repro.bytecode.program:Program.site_by_label":
        "inverse of BranchSite.label(); tests name sites by their labels",
    "repro.bytecode.program:Program.sites_in_function":
        "workload-behaviour tests pick a function's branches with it",
    "repro.bytecode.program:disassemble":
        "documented debugging tool (docs/minic.md)",
    "repro.core.edge2d:Edge2DProfiler":
        "the paper's Section 3.1 edge-profiling instantiation of 2D-profiling",
    "repro.core.stats:BranchSliceStats.end_slice":
        "literal Fig. 9 transcription; the oracle every vectorized fold is pinned to",
    "repro.lang.printer:print_program":
        "the Minic fuzz tests round-trip generated programs through it",
    "repro.obs.logs:JsonLineFormatter.format":
        "logging.Formatter hook; the logging module calls it",
    "repro.predictors:paper_perceptron":
        "the paper's 16 KB perceptron configuration (Section 5.3)",
    "repro.predictors.tournament:Tournament.describe":
        "the predictors' describe(); tests pin the paper's storage budgets with it",
    "repro.service.checkpoint:list_checkpoints":
        "checkpoint-directory API the service tests list sessions with",
    "repro.service.client:StreamingClient.ping":
        "protocol liveness op; service tests check a connection survives with it",
    "repro.trace.synthetic:loop_site":
        "synthetic-trace fixture with a known answer",
    "repro.trace.synthetic:pattern_site":
        "synthetic-trace fixture with a known answer",
    "repro.trace.synthetic:phased_trace":
        "synthetic-trace fixture with a known answer",
    "repro.trace.trace:BranchTrace.slice_view":
        "cuts a trace at slice boundaries for the fold and timing tests",
    "repro.triage.report:load_report":
        "reads back the triage_report.json that `triage` writes",
}


def _py_files(directory: Path):
    return sorted(p for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each def."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + node.name
                yield qualname, node.name, node.lineno, node.end_lineno
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, qualname + ".")

    yield from walk(tree.body, "")


def _uses(tree: ast.Module):
    """(name, line) of every Name and Attribute in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def find_unused():
    uses: dict[str, list[tuple[Path, int]]] = {}
    for directory in CALLER_DIRS:
        for path in _py_files(ROOT / directory):
            for name, line in _uses(ast.parse(path.read_text(), str(path))):
                uses.setdefault(name, []).append((path, line))

    unused = []
    src = ROOT / "src" / "repro"
    for path in _py_files(src):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for qualname, name, first, last in _definitions(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(where != path or not first <= line <= last
                       for where, line in uses.get(name, ())):
                unused.append(f"{module}:{qualname}")
    return unused


def test_no_definition_is_used_only_by_tests():
    unused = find_unused()
    dead = [key for key in unused if key not in ALLOWED]
    assert not dead, (
        "defined in src/ but used by no caller outside tests/; delete it with "
        "its tests, or add it to ALLOWED with a reason:\n  " + "\n  ".join(dead)
    )
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, f"ALLOWED entries that are now used or gone: {stale}"
