"""Declarative SLO rules evaluated over TSDB windows, with alert state.

A :class:`SloRule` names one measurable promise — "p99 frame latency
under 50 ms", "no eviction bursts", "every shard answers its scrape" —
as data, so rule sets can live in a JSON file next to the deployment and
load with :func:`load_rules`.  The :class:`AlertManager` evaluates every
rule each scrape tick against the :class:`~repro.obs.tsdb.MetricTSDB`
and runs a small state machine per ``(rule, source)`` series:

    ok -> pending (breach seen) -> firing (``for_ticks`` consecutive
    breaches) -> resolved (first clean evaluation)

Transitions emit structured log events and counters, invoke the
registered callbacks (the fleet telemetry plane dumps a flight-recorder
trace and pokes the watchdog from ``on_fire``), and are mirrored into
the TSDB as ``slo_alert_firing`` gauge samples under the ``alerts``
source — which is how ``repro-2dprof top`` shows alert state without
talking to the live process.

Rule kinds:

``rate``      counter increase per second over ``window``
``delta``     total counter increase over ``window``
``value``     the series' latest sample (gauges)
``quantile``  quantile ``q`` of the merged histogram delta over ``window``
``absent``    scrape-miss: a source with no sample for ``window`` seconds
              (per-shard; this is the "shard down" rule)
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.obs.tsdb import MetricTSDB

log = logging.getLogger(__name__)

_KINDS = ("rate", "delta", "value", "quantile", "absent")
_OPS = {">": lambda a, b: a > b, "<": lambda a, b: a < b,
        ">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b}


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective."""

    name: str
    kind: str
    metric: str | None = None
    op: str = ">"
    threshold: float = 0.0
    window: float = 10.0
    q: float = 0.99
    #: Evaluate one series per scrape source (shards) instead of merged.
    per_source: bool = False
    #: Consecutive breaching evaluations before the alert fires.
    for_ticks: int = 1
    severity: str = "page"
    description: str = ""
    #: Whether firing should trigger a warehouse triage report (when the
    #: telemetry plane has a warehouse with a baseline/current run pair).
    triage: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"rule {self.name!r}: unknown kind {self.kind!r}")
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.kind != "absent" and not self.metric:
            raise ValueError(f"rule {self.name!r}: kind {self.kind!r} needs a metric")

    def to_dict(self) -> dict:
        return asdict(self)


def load_rules(path: str | Path) -> list[SloRule]:
    """Read a JSON rules file: ``[{"name": ..., "kind": ...}, ...]``."""
    doc = json.loads(Path(path).read_text("utf-8"))
    if isinstance(doc, dict):
        doc = doc.get("rules", [])
    if not isinstance(doc, list):
        raise ValueError("rules file must be a list (or {'rules': [...]})")
    return [SloRule(**entry) for entry in doc]


def default_fleet_rules(scrape_interval: float = 1.0) -> list[SloRule]:
    """The stock rule set ``fleet serve`` deploys with.

    The ``shard_down`` window is two scrape intervals, so a killed shard
    alerts within two ticks — the contract the chaos tests pin.
    """
    return [
        SloRule(
            name="shard_down", kind="absent",
            window=2.0 * scrape_interval, for_ticks=1, severity="page",
            description="a scrape source stopped answering (2 missed scrapes)",
        ),
        SloRule(
            name="frame_latency_p99", kind="quantile",
            metric="service_frame_latency_seconds", q=0.99,
            op=">", threshold=0.25, window=max(10.0, 10 * scrape_interval),
            for_ticks=2, severity="warn",
            description="fleet-merged p99 frame latency over 250ms",
        ),
        SloRule(
            name="eviction_burst", kind="rate",
            metric="service_sessions_evicted_total",
            op=">", threshold=10.0, window=max(10.0, 10 * scrape_interval),
            for_ticks=2, severity="warn",
            description="idle evictions above 10/s (producers stalled?)",
        ),
        SloRule(
            name="frames_rejected", kind="rate",
            metric="service_frames_rejected_total",
            op=">", threshold=5.0, window=max(10.0, 10 * scrape_interval),
            for_ticks=2, severity="warn",
            description="malformed/oversized frames above 5/s",
        ),
    ]


@dataclass
class Alert:
    """One firing (or recently resolved) alert instance."""

    rule: str
    source: str
    severity: str
    value: float
    threshold: float
    state: str = "firing"
    since: float = 0.0
    resolved_at: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


class _SeriesState:
    __slots__ = ("breaches", "alert")

    def __init__(self):
        self.breaches = 0
        self.alert: Alert | None = None


class AlertManager:
    """Evaluates rules each tick and tracks per-series alert state."""

    def __init__(
        self,
        rules: list,
        tsdb: MetricTSDB,
        registry=None,
        on_fire=None,
    ):
        self.rules = list(rules)
        self.tsdb = tsdb
        self.on_fire = on_fire
        self._lock = threading.Lock()
        self._state: dict = {}
        if registry is not None:
            self._fired = registry.counter("slo_alerts_fired_total")
            self._resolved = registry.counter("slo_alerts_resolved_total")
        else:
            self._fired = self._resolved = None

    # -- evaluation -----------------------------------------------------

    def evaluate(
        self,
        now: float | None = None,
        shard_sources: list | None = None,
        last_seen: dict | None = None,
    ) -> list:
        """One evaluation pass; returns the currently firing alerts.

        ``shard_sources`` are the scrape-target names ``absent`` and
        ``per_source`` rules expand over; ``last_seen`` maps source name
        to its last successful scrape timestamp (the scraper's view —
        more current than the TSDB when a scrape just failed).
        """
        now = time.time() if now is None else now
        shard_sources = list(shard_sources or [])
        if last_seen is None:
            last_seen = self.tsdb.sources()
        firing: list = []
        fired: list = []
        resolved: list = []
        with self._lock:
            for rule in self.rules:
                for source, value in self._measure(rule, now, shard_sources, last_seen):
                    breached = self._breached(rule, value)
                    alert = self._transition(
                        rule, source, value, breached, now, fired, resolved)
                    if alert is not None and alert.state == "firing":
                        firing.append(alert)
            self._mirror_to_tsdb(now)
        # Callbacks run outside the lock: on_fire may dump a flight
        # recording (seconds of I/O) and anything serving `active()` —
        # the router event loop answering fleet_status — must not wait
        # behind it.
        for alert in fired:
            self._emit("alert_fired", alert)
            if self._fired is not None:
                self._fired.labels(rule=alert.rule).inc()
            if self.on_fire is not None:
                self.on_fire(alert)
        for alert in resolved:
            self._emit("alert_resolved", alert)
            if self._resolved is not None:
                self._resolved.labels(rule=alert.rule).inc()
        return firing

    def _measure(self, rule: SloRule, now: float, shard_sources: list,
                 last_seen: dict):
        """Yield ``(source, measured value)`` pairs for one rule."""
        if rule.kind == "absent":
            for source in shard_sources:
                last = last_seen.get(source)
                age = math.inf if last is None else now - last
                yield source, age
            return
        sources = shard_sources if rule.per_source else [None]
        for source in sources:
            if rule.kind == "rate":
                value = self.tsdb.rate(rule.metric, rule.window, now=now, source=source)
            elif rule.kind == "delta":
                value = self.tsdb.delta(rule.metric, rule.window, now=now, source=source)
            elif rule.kind == "value":
                point = self.tsdb.latest(rule.metric, source=source)
                value = math.nan if point is None else point[1]
            else:  # quantile
                value = self.tsdb.histogram_quantile(
                    rule.metric, rule.q, rule.window, now=now,
                    sources=None if source is None else [source])
            yield (source or "fleet"), value

    @staticmethod
    def _breached(rule: SloRule, value: float) -> bool:
        if rule.kind == "absent":
            return value > rule.window
        if isinstance(value, float) and math.isnan(value):
            return False  # no data is not a breach (absent covers that)
        return _OPS[rule.op](value, rule.threshold)

    def _transition(self, rule: SloRule, source: str, value, breached: bool,
                    now: float, fired: list, resolved: list) -> Alert | None:
        """Advance one series' state; record transitions in ``fired`` /
        ``resolved`` for the caller to announce after the lock drops."""
        key = (rule.name, source)
        state = self._state.setdefault(key, _SeriesState())
        if breached:
            state.breaches += 1
            if state.alert is None and state.breaches >= rule.for_ticks:
                threshold = rule.window if rule.kind == "absent" else rule.threshold
                state.alert = Alert(
                    rule=rule.name, source=source, severity=rule.severity,
                    value=float(value), threshold=float(threshold), since=now)
                fired.append(state.alert)
            elif state.alert is not None:
                state.alert.value = float(value)
        else:
            state.breaches = 0
            if state.alert is not None:
                alert = state.alert
                alert.state = "resolved"
                alert.resolved_at = now
                state.alert = None
                resolved.append(alert)
        return state.alert

    def _emit(self, event: str, alert: Alert) -> None:
        from repro.obs.logs import log_event

        log_event(log, event, level=logging.WARNING, rule=alert.rule,
                  source=alert.source, severity=alert.severity,
                  value=alert.value, threshold=alert.threshold)

    def _mirror_to_tsdb(self, now: float) -> None:
        """Write alert state as gauges so `top` can read it from disk."""
        scalars = {
            f'slo_alert_firing{{rule="{a.rule}",source="{a.source}"}}': 1
            for a in (s.alert for s in self._state.values()) if a is not None
        }
        scalars["slo_alerts_active"] = len(scalars)
        self.tsdb.append_flat("alerts", scalars, ts=now)

    # -- inspection -----------------------------------------------------

    def active(self) -> list:
        """Currently firing alerts as JSON-safe dicts."""
        with self._lock:
            return [s.alert.to_dict() for s in self._state.values()
                    if s.alert is not None]
