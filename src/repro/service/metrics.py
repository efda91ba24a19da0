"""Service metrics, backed by the unified observability registry.

:class:`ServiceMetrics` used to be a bag of plain-int counters; it is now
a thin facade over a :class:`repro.obs.metrics.Registry` — the registry
is the source of truth (and what ``--metrics-json`` dumps / Prometheus
exposition renders), while :meth:`snapshot` keeps emitting the exact key
names the ``stats`` control frame has always carried, so existing
``stream --verify`` clients and dashboards keep working unchanged.

Each server instance gets its **own** registry by default so concurrent
servers in one process (tests, embedding) don't bleed counts into each
other; pass a registry explicitly to aggregate into a shared one.
"""

from __future__ import annotations

import time

from repro.obs.metrics import Registry

#: Monotonic counters exposed 1:1 in the stats frame, in snapshot order.
_COUNTERS = (
    ("connections_accepted", "TCP connections accepted"),
    ("sessions_opened", "sessions opened fresh"),
    ("sessions_resumed", "sessions resumed from checkpoint or memory"),
    ("sessions_closed", "sessions closed by clients"),
    ("sessions_evicted", "idle sessions checkpointed and evicted"),
    ("events_total", "branch events folded into profilers"),
    ("frames_total", "frames accepted"),
    ("frames_rejected", "frames rejected (malformed or over limits)"),
    ("checkpoints_written", "session checkpoints written"),
    ("runs_ingested", "closed sessions finalized into the profile warehouse"),
    ("queries_served", "query ops answered"),
    ("bytes_in", "request bytes received (headers + payloads)"),
    ("bytes_out", "reply bytes sent"),
)

#: Frame latencies are sub-millisecond on the happy path; start the
#: buckets at 10 us so the histogram still resolves them.
_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def latency_summary(histogram) -> dict:
    """The stats frame's ``frame_latency`` block of one histogram."""
    count = histogram.count
    return {
        "count": count,
        "sum_seconds": histogram.sum,
        "p50": histogram.percentile(0.50) if count else None,
        "p90": histogram.percentile(0.90) if count else None,
        "p99": histogram.percentile(0.99) if count else None,
    }


class ServiceMetrics:
    """Registry-backed counters plus derived rates for the stats frame."""

    def __init__(self, registry: Registry | None = None):
        self.registry = registry if registry is not None else Registry()
        for name, help_text in _COUNTERS:
            suffix = "" if name.endswith("_total") else "_total"
            setattr(self, name, self.registry.counter(f"service_{name}{suffix}", help_text))
        self.connections_open = self.registry.gauge(
            "service_connections_open", "currently open TCP connections")
        self.sessions_active = self.registry.gauge(
            "service_sessions_active", "currently live sessions")
        self.uptime_seconds = self.registry.gauge(
            "service_uptime_seconds", "seconds since this server started")
        self.frame_latency = self.registry.histogram(
            "service_frame_latency_seconds",
            "wall time from frame decode to reply encode",
            buckets=_LATENCY_BUCKETS,
        )
        self.drain_seconds = self.registry.histogram(
            "service_drain_seconds",
            "wall time of SIGTERM drains (checkpoint every session, stop)",
        )
        self.started_at = time.monotonic()

    def uptime(self) -> float:
        return time.monotonic() - self.started_at

    def snapshot(self, active_sessions: int = 0) -> dict:
        """The stats-frame payload.

        Backward compatibility contract: every key the pre-registry
        implementation emitted keeps its name and meaning
        (``uptime_seconds``, ``active_sessions``, the ``_COUNTERS`` names,
        ``connections_open``, ``events_per_second``); new telemetry only
        *adds* keys (``bytes_in``, ``bytes_out``, ``frame_latency``).
        """
        uptime = self.uptime()
        # Keep the registry gauges current: snapshot() runs on every
        # stats/metrics op, which includes every telemetry scrape, so
        # the TSDB sees live values without a separate update path.
        self.sessions_active.set(active_sessions)
        self.uptime_seconds.set(round(uptime, 3))
        events_total = self.events_total.value
        payload = {
            "uptime_seconds": uptime,
            "active_sessions": active_sessions,
            "connections_open": self.connections_open.value,
            "events_per_second": events_total / uptime if uptime > 0 else 0.0,
        }
        for name, _help in _COUNTERS:
            payload[name] = getattr(self, name).value
        payload["frame_latency"] = latency_summary(self.frame_latency)
        payload["drain"] = {
            "count": self.drain_seconds.count,
            "sum_seconds": self.drain_seconds.sum,
        }
        return payload
