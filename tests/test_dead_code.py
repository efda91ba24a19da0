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

The second guard covers the service-side packages (``SCOPED``): every
parameter with a default there must be set by some call outside
``tests/``. A call sets it when the called name matches (the class, for
``__init__``) and the call passes the parameter by keyword, passes
enough positional arguments to reach it, or splats ``*args``/``**kw``.
A default no caller changes is one behaviour with a knob on it: make it
the only behaviour, or a module constant that tests monkeypatch, or add
it to ``ALLOWED_DEFAULTS`` with the reason it stays. Dataclass fields
are outside the scan.
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

# Packages whose defaulted parameters must each be set by some caller.
SCOPED = ("obs", "fleet", "service", "store", "sweep", "triage",
          "core/experiment.py", "core/parallel.py")

# "module:Qualified.name(param)" -> why its default stays unset.
ALLOWED_DEFAULTS = {
    "repro.obs.dashboard:overview(now)": "test clock",
    "repro.obs.logs:parse_since(now)": "test clock",
    "repro.obs.telemetry:FleetTelemetry.status(now)": "test clock",
    "repro.obs.spool:merge_spool(tracer)":
        "tests merge a spool into a private tracer, not the process one",
    "repro.obs.spool:merge_spool(registry)":
        "tests merge a spool into a private registry, not the process one",
    "repro.obs.flightrec:FlightRecorder.__init__(tracer)":
        "tests arm a recorder on a private tracer, not the process one",
    "repro.store.warehouse:ProfileWarehouse.ingest(dedupe)":
        "tests store the duplicate keys that parent-written stores can hold",
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


def _scoped_files():
    src = ROOT / "src" / "repro"
    for entry in SCOPED:
        path = src / entry
        yield from ([path] if path.suffix == ".py" else _py_files(path))


def _defaulted_params():
    """(key, callee name, positional index or None, parameter name)."""
    src = ROOT / "src"
    for path in _scoped_files():
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def walk(body, prefix, cls):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, prefix + node.name + ".", node.name)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    first = positional[len(positional) - len(args.defaults):]
                    skip = 1 if cls and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list) else 0
                    callee = cls if node.name == "__init__" else node.name
                    for arg in first:
                        index = positional.index(arg) - skip
                        yield (f"{module}:{prefix}{node.name}({arg.arg})",
                               callee, index, arg.arg)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            yield (f"{module}:{prefix}{node.name}({arg.arg})",
                                   callee, None, arg.arg)

        yield from walk(ast.parse(path.read_text()).body, "", None)


def _calls():
    """callee name -> [(positional count, keyword names, splats)]."""
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for directory in CALLER_DIRS:
        for path in _py_files(ROOT / directory):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                splat = (any(k.arg is None for k in node.keywords)
                         or any(isinstance(a, ast.Starred) for a in node.args))
                calls.setdefault(name, []).append((len(node.args), keywords, splat))
    return calls


def find_unset_defaults():
    calls = _calls()
    unset = []
    for key, callee, index, param in _defaulted_params():
        if not any(splat or param in keywords
                   or (index is not None and positional > index)
                   for positional, keywords, splat in calls.get(callee, ())):
            unset.append(key)
    return unset


def test_every_default_is_set_by_some_caller():
    unset = find_unset_defaults()
    extra = [key for key in unset if key not in ALLOWED_DEFAULTS]
    assert not extra, (
        "defaulted parameters that no caller outside tests/ sets; make the "
        "default the only behaviour, or a module constant tests monkeypatch:\n  "
        + "\n  ".join(extra)
    )
    stale = sorted(set(ALLOWED_DEFAULTS) - set(unset))
    assert not stale, f"ALLOWED_DEFAULTS entries that are now set or gone: {stale}"
