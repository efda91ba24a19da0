"""`repro-2dprof top`: a terminal dashboard over the telemetry TSDB.

Everything renders from the on-disk :class:`~repro.obs.tsdb.MetricTSDB`
— the dashboard never talks to a live process, so it works from any
terminal with read access to the telemetry directory, keeps working
while shards crash, and can replay a finished run's final state.

:func:`overview` computes the JSON-safe payload (fleet rates, per-shard
health, latency percentiles, active alerts); :func:`render` draws it as
fixed-width text; :func:`run_top` is the CLI loop (``--once`` prints one
frame and exits, ``--json`` emits the payload for scripts/CI).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro.obs.tsdb import MetricTSDB

#: Sources that are planes of the telemetry system, not fleet shards.
_SYSTEM_SOURCES = ("router", "telemetry", "supervisor", "alerts")

#: Counters shown as fleet-wide per-second rates, with display names.
_RATE_ROWS = (
    ("events/s", "service_events_total"),
    ("frames/s", "service_frames_total"),
    ("bytes_in/s", "service_bytes_in_total"),
    ("rejected/s", "service_frames_rejected_total"),
    ("evicted/s", "service_sessions_evicted_total"),
    ("checkpoints/s", "service_checkpoints_written_total"),
)

_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if abs(value) >= 1_000_000:
        return f"{value / 1e6:.2f}M"
    if abs(value) >= 10_000:
        return f"{value / 1e3:.1f}k"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.2f}"


def _fmt_ms(seconds: float) -> str:
    if seconds is None or (isinstance(seconds, float) and math.isnan(seconds)):
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def shard_sources(tsdb: MetricTSDB, now: float | None = None) -> list[str]:
    """Scrape sources seen in the last 5 minutes that are not system planes."""
    seen = tsdb.sources(window=300.0, now=now)
    return sorted(name for name in seen if name not in _SYSTEM_SOURCES)


def active_alerts(tsdb: MetricTSDB) -> list[dict]:
    """Firing alerts according to the latest ``alerts``-source sample."""
    sample = tsdb.latest_sample("alerts")
    if sample is None:
        return []
    alerts = []
    for series, value in sample.scalars.items():
        if not series.startswith("slo_alert_firing{") or not value:
            continue
        fields = {}
        for pair in series[len("slo_alert_firing{"):-1].split(","):
            key, _eq, raw = pair.partition("=")
            fields[key] = raw.strip('"')
        alerts.append({"rule": fields.get("rule", "?"),
                       "source": fields.get("source", "?")})
    return alerts


def overview(tsdb: MetricTSDB, window: float = 10.0,
             now: float | None = None) -> dict:
    """The dashboard payload: fleet rates, shard health, alerts."""
    now = time.time() if now is None else now
    shards = shard_sources(tsdb, now=now)
    fleet_rates = {
        label: tsdb.rate(metric, window, now=now)
        for label, metric in _RATE_ROWS
    }
    latency = {
        label: tsdb.histogram_quantile(
            "service_frame_latency_seconds", q, window, now=now,
            sources=shards or None)
        for label, q in _QUANTILES
    }
    last_map = tsdb.sources()
    per_shard = []
    for name in shards:
        last = last_map.get(name)
        sample = tsdb.latest_sample(name)
        scalars = sample.scalars if sample is not None else {}
        per_shard.append({
            "shard": name,
            "scrape_age": None if last is None else round(now - last, 3),
            "sessions": scalars.get("service_sessions_active"),
            "uptime": scalars.get("service_uptime_seconds"),
            "events_per_s": tsdb.rate("service_events_total", window,
                                      now=now, source=name),
            "connections": scalars.get("service_connections_open"),
        })
    return {
        "ts": now,
        "window": window,
        "shards": per_shard,
        "rates": fleet_rates,
        "frame_latency": latency,
        "alerts": active_alerts(tsdb),
        "tsdb": tsdb.stats(),
    }


def render(view: dict) -> str:
    """One fixed-width text frame for a terminal."""
    lines = []
    stamp = time.strftime("%H:%M:%S", time.localtime(view["ts"]))
    lines.append(f"repro-2dprof top — {stamp}  "
                 f"(window {view['window']:.0f}s, "
                 f"{view['tsdb']['segments']} segment(s), "
                 f"{view['tsdb']['bytes'] / 1024:.0f} KiB)")
    lines.append("")
    rate_bits = "  ".join(f"{k} {_fmt(v)}" for k, v in view["rates"].items())
    lines.append(f"fleet   {rate_bits}")
    lat = view["frame_latency"]
    lines.append("latency " + "  ".join(
        f"{label} {_fmt_ms(lat[label])}" for label, _q in _QUANTILES))
    lines.append("")
    lines.append(f"{'SHARD':8s} {'AGE':>7s} {'SESS':>6s} {'CONN':>6s} "
                 f"{'EVENTS/S':>10s} {'UPTIME':>8s}")
    for row in view["shards"]:
        age = row["scrape_age"]
        age_s = "-" if age is None else f"{age:.1f}s"
        uptime = row["uptime"]
        uptime_s = "-" if uptime is None else f"{uptime:.0f}s"
        lines.append(
            f"{row['shard']:8s} {age_s:>7s} "
            f"{_fmt(row['sessions']) if row['sessions'] is not None else '-':>6s} "
            f"{_fmt(row['connections']) if row['connections'] is not None else '-':>6s} "
            f"{_fmt(row['events_per_s']):>10s} {uptime_s:>8s}")
    if not view["shards"]:
        lines.append("(no shard sources in the TSDB yet)")
    lines.append("")
    if view["alerts"]:
        lines.append("ALERTS FIRING:")
        for alert in view["alerts"]:
            lines.append(f"  !! {alert['rule']} on {alert['source']}")
    else:
        lines.append("no active alerts")
    return "\n".join(lines)


def run_top(
    tsdb_dir: str | Path,
    interval: float = 2.0,
    window: float = 10.0,
    once: bool = False,
    as_json: bool = False,
) -> int:
    """The ``top`` command loop; returns a process exit code.

    Exit code 2 when ``--once`` finds alerts firing, so CI can assert on
    fleet health with a single invocation.
    """
    tsdb = MetricTSDB(tsdb_dir)
    try:
        while True:
            view = overview(tsdb, window=window)
            if as_json:
                print(json.dumps(view), flush=True)
            else:
                if not once:
                    print("\x1b[2J\x1b[H", end="")
                print(render(view), flush=True)
            if once:
                return 2 if view["alerts"] else 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    finally:
        tsdb.close()
