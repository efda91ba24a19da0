"""The fleet telemetry plane: scraper, watchdog, and the wiring between.

:class:`TelemetryScraper` is a daemon thread that, every ``interval``
seconds, hits each shard's ``metrics`` op over a short-lived blocking
connection and appends the labeled snapshot to the
:class:`~repro.obs.tsdb.MetricTSDB`, alongside snapshots of any
in-process registries (router, telemetry itself).  Shard addresses are
re-resolved from the shared :class:`~repro.fleet.shardmap.ShardMap` on
every tick, so a respawned shard's new ephemeral port is picked up
without any re-plumbing.

:class:`SupervisorWatchdog` closes the ROADMAP's "shard auto-restart is
manual" gap: consecutive scrape misses past a threshold drive
``FleetSupervisor.restart_dead()`` (or kill-and-respawn for a hung but
technically-alive process) with per-shard exponential backoff, surfacing
every action as counters and structured log events.

:class:`FleetTelemetry` assembles the whole plane for ``fleet serve``:
TSDB + scraper + :class:`~repro.obs.slo.AlertManager` + watchdog +
:class:`~repro.obs.flightrec.FlightRecorder`, with a ``status()``
payload the router splices into ``fleet_status`` replies.  With a
profile warehouse attached (``warehouse_dir``), a firing alert also
kicks off a regression triage pass (:mod:`repro.triage`) in its own
short-lived thread, dropping ``triage_report.json`` next to the flight
recordings — the full alert → *which branch sites* loop.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path

from repro.errors import ProtocolError, ServiceError
from repro.obs.flightrec import FlightRecorder
from repro.obs.logs import log_event
from repro.obs.metrics import Registry
from repro.obs.slo import AlertManager, default_fleet_rules
from repro.obs.tsdb import MetricTSDB

log = logging.getLogger(__name__)

#: Default seconds between scrape rounds.
DEFAULT_INTERVAL = 1.0

#: Consecutive misses before the watchdog acts on a shard.
DEFAULT_MISS_THRESHOLD = 2

#: Seconds of the first watchdog backoff; each further restart of a
#: crash-looping shard doubles it, up to ``BACKOFF_MAX``.
BACKOFF_BASE = 1.0
BACKOFF_MAX = 30.0

#: Seconds a scrape waits for a shard's ``metrics`` connection.
CONNECT_TIMEOUT = 2.0


def _deprioritize_current_thread() -> None:
    """Lower the calling thread's scheduling priority (Linux only).

    The scraper shares a host — often a single core — with the router
    event loop it observes; telemetry must never preempt serving.  On
    Linux ``setpriority`` accepts a thread id, so only this thread is
    demoted.  Elsewhere (or unprivileged failure) it's a silent no-op.
    """
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 10)
    except (AttributeError, OSError):
        pass


class TelemetryScraper:
    """Background poller appending fleet metric snapshots to the TSDB."""

    def __init__(
        self,
        tsdb: MetricTSDB,
        shard_map=None,
        local_registries: dict | None = None,
        interval: float = DEFAULT_INTERVAL,
        registry: Registry | None = None,
        on_tick=None,
    ):
        self.tsdb = tsdb
        self.shard_map = shard_map
        #: ``{source_name: Registry}`` scraped in-process (router etc.).
        self.local_registries = dict(local_registries or {})
        self.interval = interval
        self.on_tick = on_tick
        #: Last successful scrape timestamp per source.
        self.last_seen: dict[str, float] = {}
        #: Consecutive misses per shard source (0 after any success).
        self.misses: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0
        reg = registry if registry is not None else Registry()
        self._scrapes = reg.counter("telemetry_scrapes_total")
        self._miss_counter = reg.counter("telemetry_scrape_misses_total")

    # -- one scrape round ------------------------------------------------

    def _scrape_shard(self, spec) -> dict | None:
        """One shard's ``metrics`` reply, or ``None`` on any failure."""
        from repro.service.client import StreamingClient

        try:
            with StreamingClient(spec.host, spec.port,
                                 timeout=CONNECT_TIMEOUT) as client:
                return client.metrics()
        except (OSError, ServiceError, ProtocolError):
            return None

    def tick(self, now: float | None = None) -> dict[str, bool]:
        """One synchronous scrape round; returns ``{source: scraped?}``.

        Public so tests and ``top --once`` can drive rounds without the
        thread.
        """
        now = time.time() if now is None else now
        outcome: dict[str, bool] = {}
        specs = list(self.shard_map.shards) if self.shard_map is not None else []
        for spec in specs:
            reply = self._scrape_shard(spec)
            if reply is not None:
                # A well-framed but malformed reply (no/invalid snapshot)
                # is a miss for this shard only — it must not abort the
                # round and starve the remaining shards or on_tick.
                try:
                    sample = self.tsdb.append(spec.name, reply["snapshot"], ts=now)
                except (KeyError, TypeError, AttributeError):
                    sample = None
                    log.warning("malformed metrics reply from shard %s",
                                spec.name)
            else:
                sample = None
            if sample is None:
                self.misses[spec.name] = self.misses.get(spec.name, 0) + 1
                self._miss_counter.labels(source=spec.name).inc()
                outcome[spec.name] = False
                continue
            self.misses[spec.name] = 0
            self.last_seen[spec.name] = now
            self._scrapes.labels(source=spec.name).inc()
            outcome[spec.name] = True
        for source, registry in self.local_registries.items():
            self.last_seen[source] = now
            self.tsdb.append(source, registry.snapshot(), ts=now)
            outcome[source] = True
        self.ticks += 1
        if self.on_tick is not None:
            self.on_tick(now, outcome)
        return outcome

    def shard_sources(self) -> list[str]:
        if self.shard_map is None:
            return []
        return [spec.name for spec in self.shard_map.shards]

    # -- thread lifecycle -------------------------------------------------

    def start(self) -> "TelemetryScraper":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-scraper", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        _deprioritize_current_thread()
        while not self._stop.is_set():
            started = time.time()
            try:
                self.tick(started)
            except Exception:
                log.exception("telemetry scrape round failed")
            elapsed = time.time() - started
            self._stop.wait(max(0.05, self.interval - elapsed))

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


class SupervisorWatchdog:
    """Auto-restarts shards the scraper can no longer reach."""

    def __init__(self, supervisor, registry: Registry | None = None):
        self.supervisor = supervisor
        self._lock = threading.Lock()
        self._not_before: dict[str, float] = {}
        self._streak: dict[str, int] = {}
        self.restarts: dict[str, int] = {}
        reg = registry if registry is not None else Registry()
        self._restart_counter = reg.counter("watchdog_restarts_total")

    def check(self, misses: dict[str, int], now: float | None = None) -> list[str]:
        """Respawn unhealthy shards; returns the names restarted.

        A shard is unhealthy after ``DEFAULT_MISS_THRESHOLD`` consecutive scrape
        misses.  Dead processes are respawned directly; a process that is
        alive but unreachable for twice the threshold is presumed hung
        and killed first.  Each shard backs off exponentially
        (``base * 2^(streak-1)``, capped) so a crash-looping shard cannot
        hot-loop the supervisor; the streak resets once the shard scrapes
        clean again (its miss count returns to zero).
        """
        now = time.time() if now is None else now
        restarted: list[str] = []
        with self._lock:
            for name, count in misses.items():
                process = self.supervisor.processes.get(name)
                if process is None:
                    continue
                if count == 0:
                    self._streak[name] = 0
                    continue
                if count < DEFAULT_MISS_THRESHOLD:
                    continue
                if now < self._not_before.get(name, 0.0):
                    continue
                alive = process.alive()
                if alive and count < 2 * DEFAULT_MISS_THRESHOLD:
                    continue  # reachable-process grace: maybe just slow
                if alive:
                    log_event(log, "watchdog_kill_hung", level=logging.WARNING,
                              shard=name, misses=count, pid=process.pid)
                    process.kill()
                try:
                    self.supervisor.respawn(name)
                except ServiceError as exc:
                    log_event(log, "watchdog_respawn_failed",
                              level=logging.ERROR, shard=name, error=str(exc))
                    streak = self._streak.get(name, 0) + 1
                    self._streak[name] = streak
                    self._not_before[name] = now + self._backoff(streak)
                    continue
                streak = self._streak.get(name, 0) + 1
                self._streak[name] = streak
                self._not_before[name] = now + self._backoff(streak)
                self.restarts[name] = self.restarts.get(name, 0) + 1
                self._restart_counter.labels(shard=name).inc()
                restarted.append(name)
                log_event(log, "watchdog_restarted_shard", level=logging.WARNING,
                          shard=name, misses=count, streak=streak,
                          backoff_s=self._backoff(streak))
        return restarted

    def _backoff(self, streak: int) -> float:
        return min(BACKOFF_MAX, BACKOFF_BASE * (2 ** max(streak - 1, 0)))


class FleetTelemetry:
    """The assembled telemetry plane for one fleet deployment."""

    def __init__(
        self,
        root: str | Path,
        shard_map=None,
        supervisor=None,
        rules=None,
        scrape_interval: float = DEFAULT_INTERVAL,
        watchdog: bool = True,
        warehouse_dir: str | Path | None = None,
        triage_min_interval: float = 60.0,
    ):
        self.root = Path(root)
        self.registry = Registry()
        self.tsdb = MetricTSDB(self.root / "tsdb")
        self.tsdb.set_meta(scrape_interval=scrape_interval)
        self.rules = list(rules) if rules is not None \
            else default_fleet_rules(scrape_interval)
        self.flight = FlightRecorder(self.root / "flight", name="router")
        self.alerts = AlertManager(
            self.rules, self.tsdb, registry=self.registry,
            on_fire=self._on_alert_fire)
        self.watchdog = SupervisorWatchdog(
            supervisor, registry=self.registry) \
            if (watchdog and supervisor is not None) else None
        self.supervisor = supervisor
        self.scraper = TelemetryScraper(
            self.tsdb, shard_map=shard_map,
            local_registries={"telemetry": self.registry},
            interval=scrape_interval, registry=self.registry,
            on_tick=self._on_tick)
        #: Alert-driven triage: with a warehouse attached, a firing rule
        #: (whose ``triage`` flag is set) produces a triage report next
        #: to the flight recordings.
        self.warehouse_dir = Path(warehouse_dir) if warehouse_dir else None
        self.triage_dir = self.root / "triage"
        self.triage_min_interval = triage_min_interval
        self.triage_reports = 0
        self.last_triage: dict | None = None
        self._triage_lock = threading.Lock()
        self._last_triage_at = 0.0
        self._rules_by_name = {rule.name: rule for rule in self.rules}

    # -- scrape-tick plumbing ---------------------------------------------

    def _on_tick(self, now: float, outcome: dict) -> None:
        self.alerts.evaluate(
            now=now, shard_sources=self.scraper.shard_sources(),
            last_seen=self.scraper.last_seen)
        if self.watchdog is not None:
            self.watchdog.check(self.scraper.misses, now=now)

    def _on_alert_fire(self, alert) -> None:
        # Dump in a short-lived thread: serializing up to a full ring of
        # trace events is seconds of I/O, and the scrape cadence must not
        # slip behind it.  FlightRecorder.dump is rate-limited under its
        # own lock, so overlapping alerts coalesce safely.
        threading.Thread(
            target=self._dump_flight,
            args=(f"alert:{alert.rule}:{alert.source}",),
            name="flight-dump", daemon=True).start()
        rule = self._rules_by_name.get(alert.rule)
        if (self.warehouse_dir is not None
                and (rule is None or rule.triage)):
            # Same reasoning as the flight dump: a bisection is seconds
            # of CPU and must not ride the scrape/alert cadence (or the
            # router event loop answering fleet_status behind it).
            threading.Thread(
                target=self._run_triage,
                args=(f"alert:{alert.rule}:{alert.source}",),
                name="triage", daemon=True).start()

    def _dump_flight(self, reason: str) -> None:
        try:
            self.flight.dump(reason=reason)
            if self.supervisor is not None:
                self._signal_shard_dumps()
        except Exception:
            log.exception("flight-recorder dump failed")

    def _signal_shard_dumps(self) -> None:
        """Ask every live shard to dump its own flight recorder."""
        import signal as _signal

        signum = getattr(_signal, "SIGUSR2", None)
        if signum is None:
            return
        for name, process in self.supervisor.processes.items():
            if process.alive():
                try:
                    process.proc.send_signal(signum)
                except OSError:
                    log.debug("could not signal shard %s for a flight dump", name)

    # -- alert-driven triage ----------------------------------------------

    def _run_triage(self, reason: str) -> None:
        try:
            self.triage_now(reason)
        except Exception:
            log.exception("alert-driven triage failed")

    def _select_run_pair(self, warehouse):
        """(good, bad) = the two newest runs of the newest run's group.

        Grouping is by (workload, predictor): the latest committed run is
        the regression suspect, the previous run of the same group its
        baseline.  Returns ``None`` when no such pair exists.
        """
        runs = warehouse.runs()
        if not runs:
            return None
        latest = runs[-1]
        group = [rec for rec in runs
                 if (rec.workload, rec.predictor)
                 == (latest.workload, latest.predictor)]
        if len(group) < 2:
            return None
        return group[-2], group[-1]

    def triage_now(self, reason: str = "manual") -> dict | None:
        """Produce one triage report from the attached warehouse.

        Synchronous (the alert path wraps it in a daemon thread); rate
        limited to one report per ``triage_min_interval`` seconds so an
        alert storm cannot stack bisections.  Returns the report dict,
        or ``None`` when skipped (no warehouse, no run pair, rate
        limit).  Never raises on missing data — triage is best-effort
        diagnostics, not a liveness dependency.
        """
        from repro.store import ProfileWarehouse
        from repro.triage import triage_runs

        skipped = self.registry.counter("triage_skipped_total")
        if self.warehouse_dir is None:
            skipped.labels(reason="no_warehouse").inc()
            return None
        with self._triage_lock:
            now = time.time()
            if now - self._last_triage_at < self.triage_min_interval:
                skipped.labels(reason="rate_limited").inc()
                return None
            self._last_triage_at = now
        try:
            warehouse = ProfileWarehouse(self.warehouse_dir, create=False)
            pair = self._select_run_pair(warehouse)
            if pair is None:
                skipped.labels(reason="no_run_pair").inc()
                log_event(log, "triage_skipped", reason=reason,
                          cause="no baseline/current run pair")
                return None
            good, bad = pair
            report = triage_runs(
                warehouse, good.run_id, bad.run_id,
                state_path=self.triage_dir / "bisect_state.json",
                meta={"trigger": reason, "ts": now})
            path = report.write(self.triage_dir / "triage_report.json")
            stamped = self.triage_dir / f"triage_{int(now)}.json"
            report.write(stamped)
        except Exception as exc:
            skipped.labels(reason="error").inc()
            log_event(log, "triage_failed", level=logging.ERROR,
                      reason=reason, error=str(exc))
            return None
        self.triage_reports += 1
        self.last_triage = {
            "reason": reason, "ts": now, "path": str(path),
            "good": report.good_run, "bad": report.bad_run,
            "minimal_set": report.bisect["minimal_set"],
        }
        self.registry.counter("triage_alert_reports_total").inc()
        log_event(log, "triage_report_written", reason=reason,
                  path=str(path), good=report.good_run, bad=report.bad_run,
                  minimal=len(report.bisect["minimal_set"]),
                  evals=report.bisect["evals"])
        return report.to_dict()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "FleetTelemetry":
        self.flight.arm()
        self.scraper.start()
        log_event(log, "telemetry_started", root=str(self.root),
                  interval=self.scraper.interval,
                  rules=[rule.name for rule in self.rules],
                  watchdog=self.watchdog is not None)
        return self

    def stop(self) -> None:
        self.scraper.stop()
        self.flight.disarm()
        self.tsdb.close()

    def __enter__(self) -> "FleetTelemetry":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- status -----------------------------------------------------------

    def status(self, now: float | None = None) -> dict:
        """The payload ``fleet_status`` merges in (JSON-safe)."""
        now = time.time() if now is None else now
        # list()/dict() snapshots: the scraper thread inserts keys while
        # the router event loop builds a fleet_status reply here, and a
        # plain iteration can raise "dict changed size during iteration".
        scrape_age = {
            source: round(now - ts, 3)
            for source, ts in list(self.scraper.last_seen.items())
        }
        payload = {
            "interval": self.scraper.interval,
            "ticks": self.scraper.ticks,
            "scrape_age": scrape_age,
            "misses": dict(self.scraper.misses),
            "alerts": self.alerts.active(),
            "tsdb": self.tsdb.stats(),
        }
        if self.watchdog is not None:
            payload["watchdog_restarts"] = dict(self.watchdog.restarts)
        if self.warehouse_dir is not None:
            payload["triage"] = {
                "reports": self.triage_reports,
                "last": self.last_triage,
            }
        return payload
