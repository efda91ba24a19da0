"""Service metrics and the ``stats`` frame built from them.

:class:`ServiceMetrics` registers a server's counters, gauges and
histograms in its own :class:`repro.obs.metrics.Registry`, so concurrent
servers in one process (tests, embedding) don't bleed counts into each
other.  The registry is the source of truth: ``--metrics-json`` dumps it,
the ``metrics`` op ships its snapshot.

:func:`stats_view` is the only builder of a ``stats`` payload: it reads
one registry snapshot — a shard's own, or the fleet router's bucket-wise
merge of every shard's — so the shard and fleet views cannot drift.
"""

from __future__ import annotations

import time

from repro.obs.metrics import Registry

#: Monotonic counters exposed 1:1 in the stats frame, in payload order.
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
    ("warehouse_failures", "closed sessions whose warehouse ingest failed"),
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


def _registry_name(name: str) -> str:
    return f"service_{name}" + ("" if name.endswith("_total") else "_total")


class ServiceMetrics:
    """One server's metrics, registered in a private registry."""

    def __init__(self):
        self.registry = Registry()
        for name, help_text in _COUNTERS:
            setattr(self, name, self.registry.counter(_registry_name(name), help_text))
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


def stats_view(snapshot: dict, sessions: dict[str, int]) -> dict:
    """The ``stats`` frame payload of one :meth:`Registry.snapshot`.

    ``sessions`` maps each live session to the events it has received.
    Metrics missing from ``snapshot`` (a fleet with no live shard) read
    as zero.  Key names and meanings are the frame's long-standing
    contract: new keys may be added, none renamed or removed.
    """
    def value(name: str) -> int | float:
        return snapshot.get(name, {}).get("value", 0)

    uptime = value("service_uptime_seconds")
    latency = snapshot.get("service_frame_latency_seconds", {})
    drain = snapshot.get("service_drain_seconds", {})
    payload = {
        "uptime_seconds": uptime,
        "active_sessions": len(sessions),
        "connections_open": value("service_connections_open"),
        "events_per_second": (value("service_events_total") / uptime
                              if uptime > 0 else 0.0),
    }
    for name, _help in _COUNTERS:
        payload[name] = value(_registry_name(name))
    payload["frame_latency"] = {
        "count": latency.get("count", 0),
        "sum_seconds": latency.get("sum", 0.0),
        "p50": latency.get("p50"),
        "p90": latency.get("p90"),
        "p99": latency.get("p99"),
    }
    payload["drain"] = {
        "count": drain.get("count", 0),
        "sum_seconds": drain.get("sum", 0.0),
    }
    payload["sessions"] = sessions
    return payload
