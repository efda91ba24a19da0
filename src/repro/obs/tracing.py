"""Span tracer: nested wall/CPU-timed spans, exportable as a Chrome trace.

One process-wide :class:`Tracer` records *spans* — context-managed
intervals with a name, category, and free-form attributes — into a
bounded in-memory ring buffer.  The buffer serializes to the Chrome
trace-event JSON format (``{"traceEvents": [...]}``), which Perfetto and
``chrome://tracing`` open directly; spans from worker processes merge
into the same buffer via :mod:`repro.obs.spool`, each keeping its own
``pid`` so the viewer shows one track per process.

The tracer is **disabled by default** and the disabled path is a single
attribute check returning a shared no-op span, so hot loops can be
instrumented unconditionally:

    with get_tracer().span("replay.vectorized", cat="replay") as sp:
        ...
        sp.set("events", n)

The innermost open span lives in a :class:`contextvars.ContextVar`, so
"current" follows the logical flow of control, not the OS thread: each
asyncio task runs in its own copy of the context (a span held across an
``await`` never becomes another task's parent), ``asyncio.to_thread``
carries the caller's span into the worker thread, and a plain
:class:`threading.Thread` starts with no current span.

Timestamps are wall-clock (``time.time_ns``) so spans recorded by
different processes on one machine line up on a common axis; durations
and CPU time come from the higher-resolution per-process clocks.  A
span's ``cpu_ms`` is its thread's CPU time over the span's interval, so
on a span that awaits it includes whatever else the loop thread ran.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterable

#: Default ring-buffer capacity (finished spans retained).
DEFAULT_CAPACITY = 200_000

#: Default 1-in-N sampling for ``hot_path`` spans (event-frame handling);
#: 1 means record every span.  The flight recorder arms with a higher
#: rate so continuous tracing stays off the service's throughput path.
DEFAULT_HOT_SAMPLE = 1


def _new_id() -> str:
    """A 64-bit random hex id (trace/span correlation token)."""
    return os.urandom(8).hex()


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass


_NOOP = _NoopSpan()

#: The innermost open span of the running task or thread.
_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None)


class Span:
    """One live span; becomes a Chrome ``"X"`` (complete) event on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_ts_ns", "_t0", "_cpu0",
                 "parent", "trace_id", "span_id", "_token")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.parent: str | None = None
        self.trace_id: str | None = None
        self.span_id: str | None = None

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute on the span."""
        self.args[key] = value

    def __enter__(self) -> "Span":
        outer = _current.get()
        if outer is not None:
            self.parent = outer.name
            self.trace_id = outer.trace_id
        else:
            self.trace_id = _new_id()
        self.span_id = _new_id()
        self._token = _current.set(self)
        self._ts_ns = time.time_ns()
        self._t0 = time.perf_counter_ns()
        # CLOCK_THREAD_CPUTIME_ID is not vDSO-accelerated; on virtualized
        # hosts the syscall can cost hundreds of microseconds, so the
        # always-on flight recorder arms with ``cpu_time=False``.
        self._cpu0 = time.thread_time_ns() if self._tracer.cpu_time else None
        return self

    def __exit__(self, *exc_info) -> bool:
        dur_ns = time.perf_counter_ns() - self._t0
        _current.reset(self._token)
        args = self.args
        if self._cpu0 is not None:
            args["cpu_ms"] = round((time.thread_time_ns() - self._cpu0) / 1e6, 3)
        args["trace_id"] = self.trace_id
        args["span_id"] = self.span_id
        if self.parent is not None:
            args["parent"] = self.parent
        self._tracer._record({
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self._ts_ns / 1e3,          # Chrome trace wants microseconds.
            "dur": max(dur_ns, 0) / 1e3,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": args,
        })
        return False


def current_ids() -> tuple[str | None, str | None]:
    """``(trace_id, span_id)`` of the innermost open span in this context.

    ``(None, None)`` outside any span or while tracing is disabled —
    structured log records simply omit the correlation fields then.
    """
    top = _current.get()
    if top is None:
        return None, None
    return top.trace_id, top.span_id


class Tracer:
    """Process-wide span recorder with a bounded ring buffer."""

    def __init__(self, enabled: bool = False, capacity: int = DEFAULT_CAPACITY,
                 hot_sample: int = DEFAULT_HOT_SAMPLE, cpu_time: bool = True):
        self.enabled = enabled
        #: Capture per-span thread CPU time (``cpu_ms``).  The reading is
        #: two ``thread_time_ns`` syscalls per span — cheap on bare metal,
        #: but that clock has no vDSO fast path and costs ~200us per call
        #: on some virtualized hosts, so continuous (flight-recorder)
        #: tracing turns it off and only explicit ``--trace`` runs pay it.
        self.cpu_time = bool(cpu_time)
        #: Record 1-in-N of the spans declared ``hot_path=True``.  Event
        #: frames dominate span volume by orders of magnitude while being
        #: near-identical to each other, so sampling them keeps an armed
        #: flight recorder's ring covering a longer window at a fraction
        #: of the per-frame cost; open/close/control spans are always
        #: recorded (structured logs take their trace ids).
        self.hot_sample = max(1, int(hot_sample))
        self._hot_seq = 0
        self._events: deque = deque(maxlen=capacity)

    # -- recording ------------------------------------------------------

    def span(self, name: str, cat: str = "app", hot_path: bool = False,
             **attrs) -> "Span | _NoopSpan":
        """A context-managed span (the shared no-op while disabled).

        ``hot_path=True`` marks a span eligible for 1-in-``hot_sample``
        sampling; a sampled-out call returns the shared no-op.  The
        sequence counter races benignly across threads (a lost increment
        only skews which calls are kept, never corrupts the buffer).
        """
        if not self.enabled:
            return _NOOP
        if hot_path and self.hot_sample > 1:
            self._hot_seq += 1
            if self._hot_seq % self.hot_sample:
                return _NOOP
        return Span(self, name, cat, attrs)

    def add_span(self, name: str, ts_us: float, dur_us: float,
                 cat: str = "app", **attrs) -> None:
        """Record a completed interval measured outside a context manager
        (e.g. a session's open-to-close lifetime)."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts_us,
            "dur": max(dur_us, 0.0),
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": attrs,
        })

    def add_chrome_events(self, events: Iterable[dict]) -> int:
        """Merge pre-built Chrome trace events (worker spool) into the buffer.

        Unlike :meth:`span`, this works even while the tracer is disabled
        so a parent that only wants ``--metrics-json`` still aggregates
        correctly; the events simply stay unexported.
        """
        n = 0
        for event in events:
            self._record(event)
            n += 1
        return n

    def _record(self, event: dict) -> None:
        self._events.append(event)

    # -- lifecycle ------------------------------------------------------

    def configure(self, enabled: bool | None = None, capacity: int | None = None,
                  hot_sample: int | None = None,
                  cpu_time: bool | None = None) -> None:
        if capacity is not None and capacity != self._events.maxlen:
            self._events = deque(self._events, maxlen=capacity)
        if enabled is not None:
            self.enabled = enabled
        if hot_sample is not None:
            self.hot_sample = max(1, int(hot_sample))
        if cpu_time is not None:
            self.cpu_time = bool(cpu_time)

    def clear(self) -> None:
        self._events.clear()

    def drain(self) -> list[dict]:
        """Return and remove every buffered event."""
        events = list(self._events)
        self._events.clear()
        return events

    def events(self) -> list[dict]:
        """A snapshot of the buffered events (oldest first)."""
        return list(self._events)

    # -- export ---------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The full Chrome trace-event document (with process metadata)."""
        events = self.events()
        own_pid = os.getpid()
        metadata = []
        for pid in sorted({e["pid"] for e in events if "pid" in e}):
            role = "parent" if pid == own_pid else "worker"
            metadata.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro-2dprof {role} (pid {pid})"},
            })
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def export(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path


#: The process-wide tracer used by all instrumentation hooks.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def configure(enabled: bool | None = None, capacity: int | None = None,
              hot_sample: int | None = None,
              cpu_time: bool | None = None) -> Tracer:
    """Configure and return the process-wide tracer."""
    _TRACER.configure(enabled=enabled, capacity=capacity,
                      hot_sample=hot_sample, cpu_time=cpu_time)
    return _TRACER
