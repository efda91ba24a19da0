"""Per-layer ledger recorded from outside the program.

The benchmark wraps each layer's public entry point (VM capture, predictor
replay, profile fold, ground truth, warehouse ingest and queries, sweep
reports, compilation, input generation, cache publication) in a span that
lives only in this process.  Spans nest, so each layer's *self* time is its
span's duration minus the time its child spans cover.  The program's own
tracer (``vm.run``, ``replay.vectorized``) is switched on for traced runs
and read back to count fallbacks.

In untraced runs the wrappers only count events; no clock is read.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: Predictor class name -> registry kind, for the eight replayed kinds.
PREDICTOR_KINDS = {
    "Bimodal": "bimodal",
    "Gshare": "gshare",
    "GAg": "gag",
    "LocalTwoLevel": "local",
    "Tournament": "tournament",
    "LoopPredictor": "loop",
    "Perceptron": "perceptron",
    "Tage": "tage",
}
KINDS = tuple(PREDICTOR_KINDS.values())

#: Every per-layer metric a traced run emits, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    "vm.batch_s": "s",
    "vm.batch_events_per_s": "1/s",
    "vm.batch_lanes": "count",
    "vm.batch_fallback_lanes": "count",
    "vm.serial_s": "s",
    "vm.serial_events_per_s": "1/s",
    **{f"predictors.{kind}_s": "s" for kind in KINDS},
    **{f"predictors.{kind}_events_per_s": "1/s" for kind in KINDS},
    "predictors.calls": "count",
    "predictors.fallbacks": "count",
    "core.fold_s": "s",
    "core.fold_events_per_s": "1/s",
    "core.groundtruth_s": "s",
    "store.ingest_s": "s",
    "store.ingest_runs": "count",
    "store.ingest_bytes": "bytes",
    "store.query_s": "s",
    "sweep.report_s": "s",
    "service.open_ms": "ms",
    "service.events_ms": "ms",
    "service.checkpoint_ms": "ms",
    "service.close_ms": "ms",
    "service.bytes_per_event": "bytes",
    "service.server_frame_ms": "ms",
    "service.wait_ms": "ms",
    "lang.compile_s": "s",
    "workloads.inputs_s": "s",
    "cachefs.publish_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
    "vm.batch.scale_exponent": "ratio",
    "vm.serial.scale_exponent": "ratio",
    "predictors.perceptron.scale_exponent": "ratio",
    "core.fold.scale_exponent": "ratio",
}

#: Layers whose cost-vs-scale slope the paper-report traced run fits.
SCALE_FIT_LAYERS = ("vm.batch", "vm.serial", "predictors.perceptron", "core.fold")

#: Name of the root span around each iteration of a workload.
ROOT = "iteration"


class _Span:
    __slots__ = ("ledger", "name", "events", "lanes", "child_s", "t0", "wall0_us")

    def __init__(self, ledger: "Ledger", name: str):
        self.ledger = ledger
        self.name = name
        self.events = 0
        self.lanes = 0
        self.child_s = 0.0

    def __enter__(self) -> "_Span":
        self.ledger._stack().append(self)
        self.wall0_us = time.time_ns() / 1e3
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        t1 = time.perf_counter()
        stack = self.ledger._stack()
        stack.pop()
        dur = t1 - self.t0
        if stack:
            stack[-1].child_s += dur
        self.ledger.events[self.name] += self.events
        self.ledger.spans.append(
            (self.name, self.t0, t1, dur - self.child_s, self.events, self.lanes,
             self.wall0_us, self.wall0_us + dur * 1e6))
        return False


class _Counter:
    """The untraced stand-in for a span: counts events, reads no clock."""

    __slots__ = ("ledger", "name", "events", "lanes")

    def __init__(self, ledger: "Ledger", name: str):
        self.ledger = ledger
        self.name = name
        self.events = 0
        self.lanes = 0

    def __enter__(self) -> "_Counter":
        self.ledger._stack().append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        self.ledger._stack().pop()
        self.ledger.events[self.name] += self.events
        return False


class Ledger:
    """Event counts, and spans while ``traced``, for one benchmark run."""

    def __init__(self, traced: bool):
        self.traced = traced
        #: (name, t0, t1, self_s, events, lanes, wall_start_us, wall_end_us)
        self.spans: list[tuple] = []
        self.events: dict[str, int] = defaultdict(int)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1].name if stack else None

    def span(self, name: str):
        return _Span(self, name) if self.traced else _Counter(self, name)

    def event_total(self, prefix: str) -> int:
        """Events recorded so far by layers whose name starts with ``prefix``."""
        return sum(n for name, n in self.events.items() if name.startswith(prefix))


# ----------------------------------------------------------------------
# Wrapping the layers
# ----------------------------------------------------------------------


def _patch_everywhere(original, replacement, undo: list) -> None:
    """Replace every module-level reference to ``original`` in ``repro``."""
    import sys

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _wrap(ledger: Ledger, original, name_of, events_of=None, lanes_of=None):
    def wrapper(*args, **kwargs):
        with ledger.span(name_of(args)) as sp:
            result = original(*args, **kwargs)
            if events_of is not None:
                sp.events = events_of(args, result)
            if lanes_of is not None:
                sp.lanes = lanes_of(args)
            return result

    wrapper.__wrapped__ = original
    return wrapper


class Instrumentation:
    """Installs the layer wrappers for the lifetime of a ``with`` block."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._undo: list = []

    def __enter__(self) -> "Instrumentation":
        import repro.analysis.reportgen  # noqa: F401  (load every consumer first)
        import repro.cachefs as cachefs
        import repro.core.groundtruth as groundtruth
        import repro.core.profiler2d as profiler2d
        import repro.lang.compiler as compiler
        simulate = importlib.import_module("repro.predictors.simulate")
        import repro.sweep  # noqa: F401
        import repro.sweep.report as sweep_report
        import repro.trace.capture as capture
        from repro.store.warehouse import ProfileWarehouse
        from repro.workloads.base import Workload

        ledger = self.ledger
        undo = self._undo
        serial = capture.capture_trace

        def capture_one(*args, **kwargs):
            # Serial fallbacks inside a batch capture belong to the batch
            # layer; they are counted from the program's vm.run spans.
            if ledger.innermost() == "vm.batch":
                return serial(*args, **kwargs)
            with ledger.span("vm.serial") as sp:
                trace = serial(*args, **kwargs)
                sp.events = len(trace)
                return trace

        functions = [
            (serial, capture_one),
            (capture.capture_traces, _wrap(
                ledger, capture.capture_traces, lambda a: "vm.batch",
                lambda a, r: sum(len(t) for t in r), lambda a: len(a[1]))),
            (simulate.simulate, _wrap(
                ledger, simulate.simulate,
                lambda a: "predictors." + PREDICTOR_KINDS.get(type(a[0]).__name__, "other"),
                lambda a, r: r.num_branches)),
            (profiler2d.profile_trace, _wrap(
                ledger, profiler2d.profile_trace, lambda a: "core.fold",
                lambda a, r: len(a[0]))),
            (groundtruth.ground_truth, _wrap(
                ledger, groundtruth.ground_truth, lambda a: "core.groundtruth")),
            (compiler.compile_source, _wrap(
                ledger, compiler.compile_source, lambda a: "lang.compile")),
            (cachefs.atomic_savez, _wrap(
                ledger, cachefs.atomic_savez, lambda a: "cachefs.publish")),
            (cachefs.atomic_write_bytes, _wrap(
                ledger, cachefs.atomic_write_bytes, lambda a: "cachefs.publish")),
            (sweep_report.population_report_from_store, _wrap(
                ledger, sweep_report.population_report_from_store,
                lambda a: "sweep.report")),
        ]
        for original, replacement in functions:
            _patch_everywhere(original, replacement, undo)

        methods = [
            (Workload, "make_input", "workloads.inputs"),
            (ProfileWarehouse, "ingest", "store.ingest"),
            (ProfileWarehouse, "runs", "store.query"),
            (ProfileWarehouse, "open_run", "store.query"),
        ]
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(ledger, original, lambda a, n=name: n))
            undo.append((cls, attr, original))
        return self

    def __exit__(self, *exc_info) -> bool:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


# ----------------------------------------------------------------------
# Deriving the per-layer metrics
# ----------------------------------------------------------------------


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        covered += t1 - max(t0, end)
        end = t1
    return covered


def _inside(events: list[dict], name: str, start_us: float, end_us: float) -> list[dict]:
    return [
        e for e in events
        if e.get("name") == name and e.get("ph") == "X"
        and start_us <= e["ts"] + e.get("dur", 0.0) / 2 <= end_us
    ]


def layer_metrics(ledger: Ledger, program_events: list[dict]) -> dict[str, float]:
    """Per-iteration layer times, counts and throughputs from a traced phase.

    Every iteration runs inside a root span named ``iteration``;
    ``unattributed_s`` is the part of the roots' time that no layer span
    covers (layer spans of every thread count, so it is never negative).
    """
    self_s: dict[str, float] = defaultdict(float)
    events: dict[str, int] = defaultdict(int)
    lanes: dict[str, int] = defaultdict(int)
    roots = [s for s in ledger.spans if s[0] == ROOT]
    layers = [s for s in ledger.spans if s[0] != ROOT]
    for name, _t0, _t1, own, n, k, _w0, _w1 in layers:
        self_s[name] += own
        events[name] += n
        lanes[name] += k
    per = 1.0 / max(len(roots), 1)

    def rate(name: str) -> float:
        return events[name] / self_s[name] if self_s[name] > 0 else 0.0

    out = {
        "vm.batch_s": self_s["vm.batch"] * per,
        "vm.batch_events_per_s": rate("vm.batch"),
        "vm.batch_lanes": lanes["vm.batch"] * per,
        "vm.serial_s": self_s["vm.serial"] * per,
        "vm.serial_events_per_s": rate("vm.serial"),
        "core.fold_s": self_s["core.fold"] * per,
        "core.fold_events_per_s": rate("core.fold"),
        "core.groundtruth_s": self_s["core.groundtruth"] * per,
        "store.ingest_s": self_s["store.ingest"] * per,
        "store.query_s": self_s["store.query"] * per,
        "sweep.report_s": self_s["sweep.report"] * per,
        "lang.compile_s": self_s["lang.compile"] * per,
        "workloads.inputs_s": self_s["workloads.inputs"] * per,
        "cachefs.publish_s": self_s["cachefs.publish"] * per,
    }
    for kind in KINDS:
        out[f"predictors.{kind}_s"] = self_s[f"predictors.{kind}"] * per
        out[f"predictors.{kind}_events_per_s"] = rate(f"predictors.{kind}")

    fallback_lanes = 0
    calls = fallbacks = 0
    for name, _t0, _t1, _own, _n, _k, w0, w1 in layers:
        if name == "vm.batch":
            fallback_lanes += len(_inside(program_events, "vm.run", w0, w1))
        elif name.startswith("predictors."):
            calls += 1
            replays = _inside(program_events, "replay.vectorized", w0, w1)
            if not any(not e.get("args", {}).get("fallback") for e in replays):
                fallbacks += 1
    out["vm.batch_fallback_lanes"] = fallback_lanes * per
    out["predictors.calls"] = calls * per
    out["predictors.fallbacks"] = fallbacks * per

    covered = _union_seconds([(s[1], s[2]) for s in layers])
    out["unattributed_s"] = (sum(s[2] - s[1] for s in roots) - covered) * per
    return out


def scale_exponent(scales: list[float], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(scale), aprof style.

    1.0 means the layer's cost grows linearly with input scale; a slope
    well above 1 flags a superlinear stage.  0.0 when the layer did no
    measurable work at some scale.
    """
    import math

    if len(scales) < 2 or any(s <= 0 for s in seconds):
        return 0.0
    xs = [math.log(s) for s in scales]
    ys = [math.log(s) for s in seconds]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
