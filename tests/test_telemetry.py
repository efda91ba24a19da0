"""Tests for the telemetry plane (PR 8).

Unit tiers cover each piece in isolation — the JSONL metric TSDB and its
window math, the scraper's miss accounting, the SLO rule state machine,
the supervisor watchdog (against a fake supervisor), the flight
recorder, structured JSON logs, and the ``top`` dashboard — all against
temp dirs, no subprocesses.  The chaos end-to-end (kill -9 a shard,
watch the alert fire, the flight record drop, and the watchdog restore
the fleet) runs real shard processes under the ``slow`` marker.
"""

from __future__ import annotations

import json
import math
import time
from types import SimpleNamespace

import pytest

from repro.obs.metrics import Registry
from repro.obs.slo import AlertManager, SloRule, default_fleet_rules, load_rules
from repro.obs.tsdb import MetricTSDB, bucket_percentile


def _hist(buckets, counts, total=None, hsum=0.0):
    """A flattened cumulative-histogram state dict."""
    return {"sum": hsum, "count": total if total is not None else sum(counts),
            "counts": list(counts), "buckets": list(buckets)}


# ----------------------------------------------------------------------
# Metric TSDB
# ----------------------------------------------------------------------


class TestMetricTSDB:
    def test_snapshot_roundtrip_through_disk(self, tmp_path):
        registry = Registry()
        registry.counter("requests_total").inc(5)
        registry.gauge("live").set(2)
        registry.counter("per_shard_total").labels(shard="s0").inc(3)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        with MetricTSDB(tmp_path) as tsdb:
            tsdb.append("s0", registry.snapshot(), ts=100.0)
        with MetricTSDB(tmp_path) as tsdb:
            sample = tsdb.latest_sample("s0")
            assert sample.ts == 100.0
            assert sample.scalars["requests_total"] == 5
            assert sample.scalars["live"] == 2
            assert sample.scalars['per_shard_total{shard="s0"}'] == 3
            assert sample.histograms["lat"]["count"] == 1

    def test_range_query_is_ordered_and_filtered(self, tmp_path):
        with MetricTSDB(tmp_path) as tsdb:
            tsdb.append_flat("a", {"x": 1}, ts=3.0)
            tsdb.append_flat("b", {"x": 9}, ts=2.0)
            tsdb.append_flat("a", {"x": 2}, ts=5.0)
            tsdb.append_flat("a", {"x": 4}, ts=7.0)
            points = [(s.ts, s.scalars["x"])
                      for s in tsdb.samples(start=3.0, end=5.0, source="a")]
            assert points == [(3.0, 1), (5.0, 2)]
            assert tsdb.latest("x", source="a") == (7.0, 4)
            assert tsdb.latest("missing") is None

    def test_rate_is_counter_reset_aware(self, tmp_path):
        with MetricTSDB(tmp_path) as tsdb:
            tsdb.append_flat("s0", {"c": 10}, ts=0.0)
            tsdb.append_flat("s0", {"c": 20}, ts=5.0)
            tsdb.append_flat("s0", {"c": 3}, ts=10.0)  # restart: counter reset
            # 10 (before the reset) + 3 (after) = 13 over a 10s window.
            assert tsdb.delta("c", window=10.0, now=10.0) == pytest.approx(13)
            assert tsdb.rate("c", window=10.0, now=10.0) == pytest.approx(1.3)

    def test_delta_sums_over_sources(self, tmp_path):
        with MetricTSDB(tmp_path) as tsdb:
            for source, v0, v1 in (("s0", 0, 4), ("s1", 10, 16)):
                tsdb.append_flat(source, {"c": v0}, ts=0.0)
                tsdb.append_flat(source, {"c": v1}, ts=8.0)
            assert tsdb.delta("c", window=10.0, now=8.0) == pytest.approx(10)
            assert tsdb.delta("c", window=10.0, now=8.0, source="s1") == pytest.approx(6)

    def test_histogram_quantile_merges_sources(self, tmp_path):
        buckets = [0.1, 1.0, 10.0]
        with MetricTSDB(tmp_path) as tsdb:
            # s0 gains 10 sub-0.1 observations; s1 gains 10 in (1, 10].
            tsdb.append_flat("s0", {}, {"lat": _hist(buckets, [0, 0, 0, 0])}, ts=0.0)
            tsdb.append_flat("s0", {}, {"lat": _hist(buckets, [10, 0, 0, 0])}, ts=9.0)
            tsdb.append_flat("s1", {}, {"lat": _hist(buckets, [0, 0, 0, 0])}, ts=0.0)
            tsdb.append_flat("s1", {}, {"lat": _hist(buckets, [0, 0, 10, 0])}, ts=9.0)
            p50 = tsdb.histogram_quantile("lat", 0.50, window=10.0, now=9.0)
            p99 = tsdb.histogram_quantile("lat", 0.99, window=10.0, now=9.0)
            assert p50 <= 0.1
            assert 1.0 < p99 <= 10.0

    def test_histogram_quantile_empty_window_is_nan(self, tmp_path):
        with MetricTSDB(tmp_path) as tsdb:
            assert math.isnan(tsdb.histogram_quantile("lat", 0.99, window=5.0, now=100.0))
            # A single cumulative sample carries no in-window increase.
            tsdb.append_flat("s0", {}, {"lat": _hist([1.0], [5, 0])}, ts=99.0)
            assert math.isnan(tsdb.histogram_quantile("lat", 0.99, window=5.0, now=100.0))

    def test_torn_and_garbage_lines_read_as_misses(self, tmp_path):
        with MetricTSDB(tmp_path) as tsdb:
            tsdb.append_flat("s0", {"x": 1}, ts=1.0)
        seg = next(tmp_path.glob("seg-*.jsonl"))
        with open(seg, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"ts": 2.0, "src": "s0", "m": {"x": 2}}\n')
            fh.write('{"ts": 3.0, "src": "s0", "m": {"x": 3}')  # torn tail
        with MetricTSDB(tmp_path) as tsdb:
            points = [(s.ts, s.scalars["x"]) for s in tsdb.samples(source="s0")]
        assert points == [(1.0, 1), (2.0, 2)]

    def test_segment_rotation_and_retention_compaction(self, tmp_path):
        tsdb = MetricTSDB(tmp_path, segment_max_bytes=200, retention_seconds=15.0)
        for i in range(30):
            tsdb.append_flat("s0", {"x": i}, ts=float(i))
        assert tsdb.stats()["segments"] > 1
        report = tsdb.compact(now=40.0)  # everything before ts=25 expires
        assert report["segments_removed"] >= 1
        points = [(s.ts, s.scalars["x"]) for s in tsdb.samples()]
        # Only the active (never-rewritten) segment may still straddle
        # the cutoff; everything in older segments is gone.
        assert points and all(ts >= 20.0 for ts, _v in points)
        assert not any(ts < 15.0 for ts, _v in points)
        # Appends keep working after compaction renumbered nothing live.
        tsdb.append_flat("s0", {"x": 99}, ts=101.0)
        assert tsdb.latest("x")[1] == 99
        tsdb.close()

    def test_reader_instance_sees_live_writer_appends(self, tmp_path):
        # A long-lived read-only instance (live `top` watching another
        # process's store) never appends, so its tail buffer stays
        # empty; recent-window queries must fall through to the disk
        # scan and keep seeing the writer's flushed lines — not serve
        # empty results from the tail fast path.
        reader = MetricTSDB(tmp_path)
        writer = MetricTSDB(tmp_path)
        # Strictly above both instances' open-time tail floors, like
        # wall-clock samples arriving after `top` has been up a while.
        now = time.time() + 60.0
        writer.append_flat("s0", {"c": 1}, ts=now)
        writer.append_flat("s0", {"c": 11}, ts=now + 5.0)
        assert reader.delta("c", window=10.0, now=now + 5.0) == pytest.approx(10)
        assert [s.scalars["c"] for s in reader.samples(start=now - 1.0)] == [1, 11]
        assert reader.sources(window=10.0, now=now + 5.0) == {"s0": now + 5.0}
        # The writer itself still answers the same window from its tail.
        assert writer.delta("c", window=10.0, now=now + 5.0) == pytest.approx(10)
        writer.close()
        reader.close()

    def test_meta_roundtrip(self, tmp_path):
        with MetricTSDB(tmp_path) as tsdb:
            tsdb.set_meta(scrape_interval=0.5)
        with MetricTSDB(tmp_path) as tsdb:
            assert tsdb.meta()["scrape_interval"] == 0.5

    def test_bucket_percentile_interpolates(self):
        # 10 observations all in (0.1, 1.0]: p50 sits mid-bucket.
        value = bucket_percentile([0.1, 1.0], [0, 10, 0], 0.5)
        assert 0.1 < value <= 1.0


# ----------------------------------------------------------------------
# Scraper
# ----------------------------------------------------------------------


class TestTelemetryScraper:
    def test_scrapes_local_registries(self, tmp_path):
        from repro.obs.telemetry import TelemetryScraper

        registry = Registry()
        registry.counter("jobs_total").inc(7)
        with MetricTSDB(tmp_path) as tsdb:
            scraper = TelemetryScraper(tsdb, local_registries={"router": registry})
            scraper.tick(now=10.0)
            assert tsdb.latest("jobs_total", source="router") == (10.0, 7)
            assert scraper.ticks == 1

    def test_unreachable_shard_counts_misses(self, tmp_path):
        import socket

        from repro.obs.telemetry import TelemetryScraper

        # Grab a port that is definitely closed.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        shard_map = SimpleNamespace(shards=[
            SimpleNamespace(name="s0", host="127.0.0.1", port=port)])
        with MetricTSDB(tmp_path) as tsdb:
            scraper = TelemetryScraper(tsdb, shard_map=shard_map,
                                       connect_timeout=0.2)
            scraper.tick(now=1.0)
            scraper.tick(now=2.0)
            assert scraper.misses["s0"] == 2
            assert "s0" not in scraper.last_seen
            assert scraper.shard_sources() == ["s0"]


# ----------------------------------------------------------------------
# SLO rules and alerts
# ----------------------------------------------------------------------


class TestSloRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            SloRule(name="x", kind="bogus", metric="m", threshold=1)
        with pytest.raises(ValueError):
            SloRule(name="x", kind="value", metric="m", threshold=1, op="!=")

    def test_load_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "hot", "kind": "rate", "metric": "reqs_total",
             "threshold": 100, "window": 30},
        ]}))
        (rule,) = load_rules(path)
        assert rule.name == "hot" and rule.window == 30

    def test_default_fleet_rules_cover_the_issue_slos(self):
        names = {r.name for r in default_fleet_rules(scrape_interval=0.5)}
        assert "shard_down" in names
        assert "frame_latency_p99" in names
        assert any("evict" in n for n in names)


class TestAlertManager:
    def _manager(self, tmp_path, rules, **kwargs):
        tsdb = MetricTSDB(tmp_path)
        return tsdb, AlertManager(rules, tsdb, **kwargs)

    def test_value_rule_fires_after_for_ticks_and_resolves(self, tmp_path):
        fired, resolved = [], []
        rule = SloRule(name="hot", kind="value", metric="g", threshold=5,
                       for_ticks=2)
        tsdb, manager = self._manager(
            tmp_path, [rule],
            on_fire=fired.append, on_resolve=resolved.append)
        with tsdb:
            tsdb.append_flat("s0", {"g": 10}, ts=1.0)
            assert manager.evaluate(now=1.0) == []     # pending, 1 of 2 ticks
            firing = manager.evaluate(now=2.0)
            assert [a.rule for a in firing] == ["hot"]
            assert not resolved
            assert manager.active()[0]["source"] == "fleet"
            tsdb.append_flat("s0", {"g": 1}, ts=3.0)
            assert manager.evaluate(now=3.0) == []
            assert len(fired) == 1 and len(resolved) == 1
            assert resolved[0].state == "resolved"
            assert manager.active() == []

    def test_absent_rule_measures_scrape_age(self, tmp_path):
        rule = SloRule(name="shard_down", kind="absent", metric="up",
                       window=1.0, severity="page")
        tsdb, manager = self._manager(tmp_path, [rule])
        with tsdb:
            ok = manager.evaluate(now=10.0, shard_sources=["s0"],
                                  last_seen={"s0": 9.5})
            assert ok == []
            firing = manager.evaluate(now=12.0, shard_sources=["s0"],
                                      last_seen={"s0": 9.5})
            assert [a.source for a in firing] == ["s0"]
            # Never-seen shards read as infinitely stale.
            firing = manager.evaluate(now=12.0, shard_sources=["s0", "s9"],
                                      last_seen={"s0": 11.9})
            assert [a.source for a in firing] == ["s9"]

    def test_firing_state_mirrors_to_tsdb_for_top(self, tmp_path):
        from repro.obs.dashboard import active_alerts

        rule = SloRule(name="hot", kind="value", metric="g", threshold=5)
        tsdb, manager = self._manager(tmp_path, [rule])
        with tsdb:
            tsdb.append_flat("s0", {"g": 10}, ts=1.0)
            manager.evaluate(now=1.0)
            assert active_alerts(tsdb) == [{"rule": "hot", "source": "fleet"}]
            assert tsdb.latest("slo_alerts_active", source="alerts")[1] == 1
            tsdb.append_flat("s0", {"g": 0}, ts=2.0)
            manager.evaluate(now=2.0)
            assert active_alerts(tsdb) == []

    def test_nan_measurements_do_not_breach(self, tmp_path):
        rule = SloRule(name="lat", kind="quantile", metric="lat", threshold=0.5)
        tsdb, manager = self._manager(tmp_path, [rule])
        with tsdb:
            assert manager.evaluate(now=1.0) == []


# ----------------------------------------------------------------------
# Watchdog (fake supervisor)
# ----------------------------------------------------------------------


class _FakeProc:
    def __init__(self, alive=True):
        self._alive = alive
        self.pid = 4242
        self.killed = False

    def alive(self):
        return self._alive

    def kill(self):
        self.killed = True
        self._alive = False


class _FakeSupervisor:
    def __init__(self, names=("s0",), alive=False):
        self.processes = {n: _FakeProc(alive=alive) for n in names}
        self.respawned: list[str] = []

    def respawn(self, name):
        self.respawned.append(name)
        self.processes[name] = _FakeProc(alive=True)


class TestSupervisorWatchdog:
    def _watchdog(self, supervisor, **kwargs):
        from repro.obs.telemetry import SupervisorWatchdog

        kwargs.setdefault("miss_threshold", 2)
        kwargs.setdefault("backoff_base", 10.0)
        return SupervisorWatchdog(supervisor, **kwargs)

    def test_dead_shard_respawns_at_threshold(self):
        supervisor = _FakeSupervisor(alive=False)
        dog = self._watchdog(supervisor)
        assert dog.check({"s0": 1}, now=0.0) == []
        assert dog.check({"s0": 2}, now=1.0) == ["s0"]
        assert supervisor.respawned == ["s0"]
        assert dog.restarts == {"s0": 1}

    def test_backoff_suppresses_hot_looping(self):
        supervisor = _FakeSupervisor(alive=False)
        dog = self._watchdog(supervisor, backoff_base=10.0)
        assert dog.check({"s0": 2}, now=0.0) == ["s0"]
        supervisor.processes["s0"]._alive = False  # it crashed again
        assert dog.check({"s0": 2}, now=1.0) == []       # inside backoff
        assert dog.check({"s0": 2}, now=11.0) == ["s0"]  # backoff expired
        # Second restart doubles the backoff window.
        supervisor.processes["s0"]._alive = False
        assert dog.check({"s0": 2}, now=21.0) == []
        assert dog.check({"s0": 2}, now=32.0) == ["s0"]

    def test_clean_scrape_resets_the_streak(self):
        supervisor = _FakeSupervisor(alive=False)
        dog = self._watchdog(supervisor, backoff_base=10.0)
        dog.check({"s0": 2}, now=0.0)
        dog.check({"s0": 0}, now=1.0)  # healthy again
        supervisor.processes["s0"]._alive = False
        assert dog.check({"s0": 2}, now=11.0) == ["s0"]
        # Streak restarted from 1, so backoff stayed at base.
        assert dog._backoff(dog._streak["s0"]) == 10.0

    def test_hung_alive_process_needs_double_threshold_then_dies(self):
        supervisor = _FakeSupervisor(alive=True)
        proc = supervisor.processes["s0"]
        dog = self._watchdog(supervisor)
        assert dog.check({"s0": 2}, now=0.0) == []  # alive: grace period
        assert not proc.killed
        assert dog.check({"s0": 4}, now=1.0) == ["s0"]
        assert proc.killed
        assert supervisor.respawned == ["s0"]

    def test_unknown_shard_names_are_ignored(self):
        dog = self._watchdog(_FakeSupervisor())
        assert dog.check({"ghost": 99}, now=0.0) == []


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def _recorder(self, tmp_path, **kwargs):
        from repro.obs.flightrec import FlightRecorder
        from repro.obs.tracing import Tracer

        tracer = Tracer(enabled=False)
        kwargs.setdefault("min_interval", 100.0)
        return FlightRecorder(tmp_path, name="t", tracer=tracer, **kwargs), tracer

    def test_dump_writes_ring_and_rate_limits(self, tmp_path):
        recorder, tracer = self._recorder(tmp_path, capacity=100)
        recorder.arm()
        assert tracer.enabled
        with tracer.span("work"):
            pass
        first = recorder.dump(reason="test")
        assert first is not None and first.exists()
        doc = json.loads(first.read_text())
        assert any(e["name"] == "work" for e in doc["traceEvents"])
        assert recorder.dump(reason="again") is None      # rate-limited
        forced = recorder.dump(reason="alert", force=True)
        assert forced is not None and forced != first
        assert recorder.dumps() == [first, forced]
        recorder.disarm()
        assert not tracer.enabled

    def test_empty_buffer_never_dumps(self, tmp_path):
        recorder, _tracer = self._recorder(tmp_path)
        recorder.arm()
        assert recorder.dump(force=True) is None
        assert recorder.dumps() == []

    def test_ring_capacity_bounds_memory(self, tmp_path):
        recorder, tracer = self._recorder(tmp_path, capacity=10)
        recorder.arm()
        for i in range(50):
            with tracer.span(f"e{i}"):
                pass
        assert len(tracer.events()) <= 10

    def test_armed_hot_path_spans_are_sampled(self, tmp_path):
        recorder, tracer = self._recorder(tmp_path, hot_sample=4)
        recorder.arm()
        for _ in range(100):
            with tracer.span("service.frame", hot_path=True):
                pass
        for _ in range(10):
            with tracer.span("service.frame"):       # open/close/control
                pass
        names = [e["name"] for e in tracer.events()]
        assert names.count("service.frame") == 25 + 10
        # Armed spans skip the (syscall-priced) per-span CPU reading.
        assert all("cpu_ms" not in e["args"] for e in tracer.events())
        recorder.disarm()
        # Disarm restores full recording for e.g. an explicit --trace run.
        tracer.configure(enabled=True)
        with tracer.span("service.frame", hot_path=True):
            pass
        assert len(tracer.events()) == 36
        assert "cpu_ms" in tracer.events()[-1]["args"]


# ----------------------------------------------------------------------
# Structured logs
# ----------------------------------------------------------------------


class TestStructuredLogs:
    def test_log_event_roundtrip_with_filters(self, tmp_path):
        import logging

        from repro.obs.logs import configure_logging, log_event, read_logs

        path = tmp_path / "svc.jsonl"
        configure_logging(path=path, logger_name="tlogs")
        logger = logging.getLogger("tlogs")
        log_event(logger, "session_opened", session="a", shard="s0")
        log_event(logger, "session_evicted", level=logging.WARNING,
                  session="a", idle_s=3.5)
        logger.info("plain message")
        docs = list(read_logs(path))
        assert [d.get("event") for d in docs] == \
            ["session_opened", "session_evicted", None]
        assert docs[0]["session"] == "a" and docs[0]["pid"]
        warnings = list(read_logs(path, level="warning"))
        assert [d["event"] for d in warnings] == ["session_evicted"]
        assert [d["event"] for d in read_logs(path, event="session_opened")] \
            == ["session_opened"]
        assert list(read_logs(path, grep="idle_s"))[0]["idle_s"] == 3.5

    def test_trace_ids_attach_inside_spans(self, tmp_path):
        import logging

        from repro.obs.logs import configure_logging, log_event, read_logs
        from repro.obs.tracing import Tracer

        tracer = Tracer(enabled=True)
        path = tmp_path / "svc.jsonl"
        configure_logging(path=path, logger_name="tspan")
        logger = logging.getLogger("tspan")
        with tracer.span("outer"):
            log_event(logger, "first")
            with tracer.span("inner"):
                log_event(logger, "second")
        log_event(logger, "outside")
        docs = {d["event"]: d for d in read_logs(path)}
        assert docs["first"]["trace_id"] == docs["second"]["trace_id"]
        assert docs["first"]["span_id"] != docs["second"]["span_id"]
        assert "trace_id" not in docs["outside"]
        same_trace = list(read_logs(path, trace_id=docs["first"]["trace_id"]))
        assert len(same_trace) == 2

    def test_directory_reads_merge_files_by_time(self, tmp_path):
        from repro.obs.logs import read_logs

        (tmp_path / "a.jsonl").write_text(
            '{"ts": 2.0, "level": "info", "msg": "two"}\n'
            "torn garbage\n")
        (tmp_path / "b.jsonl").write_text(
            '{"ts": 1.0, "level": "info", "msg": "one"}\n')
        assert [d["msg"] for d in read_logs(tmp_path)] == ["one", "two"]

    def test_format_record_is_greppable(self):
        from repro.obs.logs import format_record

        line = format_record({"ts": 1000.5, "level": "warning",
                              "logger": "repro.x", "event": "alert_fired",
                              "rule": "shard_down"})
        assert "alert_fired" in line and "rule=shard_down" in line
        assert "WARNI" in line

    def test_parse_since_epoch_passthrough(self):
        from repro.obs.logs import parse_since

        assert parse_since("1717171717.5") == 1717171717.5
        assert parse_since(" 42 ") == 42.0

    def test_parse_since_relative_durations(self):
        from repro.obs.logs import parse_since

        now = 10_000.0
        assert parse_since("30s", now=now) == now - 30.0
        assert parse_since("5m", now=now) == now - 300.0
        assert parse_since("2h", now=now) == now - 7200.0
        assert parse_since("1d", now=now) == now - 86400.0
        assert parse_since("1.5H", now=now) == now - 5400.0
        assert parse_since("0m", now=now) == now

    def test_parse_since_rejects_garbage(self):
        from repro.obs.logs import parse_since

        for bad in ("", "  ", "5x", "m", "-5m", "five minutes"):
            with pytest.raises(ValueError):
                parse_since(bad)


# ----------------------------------------------------------------------
# Alert-driven triage
# ----------------------------------------------------------------------


class TestAlertDrivenTriage:
    REGRESSED = (3, 7, 11)

    def _stocked_warehouse(self, tmp_path):
        from repro.store import ProfileWarehouse
        from repro.triage import seeded_run_pair

        warehouse = ProfileWarehouse(tmp_path / "wh")
        seeded_run_pair(warehouse, regressed=self.REGRESSED)
        return warehouse

    def _telemetry(self, tmp_path, **kwargs):
        from repro.obs.telemetry import FleetTelemetry

        kwargs.setdefault("watchdog", False)
        return FleetTelemetry(tmp_path / "telemetry", **kwargs)

    @staticmethod
    def _alert(rule="shard_down", source="s1"):
        from repro.obs.slo import Alert

        return Alert(rule=rule, source=source, severity="page",
                     value=math.inf, threshold=2.0)

    def test_alert_fire_writes_triage_report(self, tmp_path):
        from repro.triage import load_report

        warehouse = self._stocked_warehouse(tmp_path)
        tel = self._telemetry(tmp_path, warehouse_dir=warehouse.root,
                              triage_min_interval=0.0)
        try:
            tel._on_alert_fire(self._alert())
            path = tel.triage_dir / "triage_report.json"
            deadline = time.time() + 30
            while not path.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert path.exists(), "alert never produced a triage report"
            # The writer thread publishes atomically, so an existing file
            # is always complete.
            report = load_report(path)
            assert report.bisect["minimal_set"] == sorted(self.REGRESSED)
            assert report.meta["trigger"] == "alert:shard_down:s1"
            deadline = time.time() + 10
            while tel.triage_reports == 0 and time.time() < deadline:
                time.sleep(0.05)
            assert tel.triage_reports == 1
            assert tel.last_triage["minimal_set"] == sorted(self.REGRESSED)
            status = tel.status()
            assert status["triage"]["reports"] == 1
            # A dated copy rides along for alert-storm archaeology.
            assert list(tel.triage_dir.glob("triage_1*.json"))
        finally:
            tel.tsdb.close()

    def test_rule_triage_flag_gates_the_hook(self, tmp_path):
        from repro.obs.slo import SloRule

        warehouse = self._stocked_warehouse(tmp_path)
        rules = [SloRule(name="shard_down", kind="absent", window=2.0,
                         triage=False)]
        tel = self._telemetry(tmp_path, warehouse_dir=warehouse.root,
                              rules=rules, triage_min_interval=0.0)
        try:
            tel._on_alert_fire(self._alert())
            time.sleep(0.3)
            assert not (tel.triage_dir / "triage_report.json").exists()
            assert tel.triage_reports == 0
        finally:
            tel.tsdb.close()

    def test_triage_now_skips_cleanly(self, tmp_path):
        from repro.store import ProfileWarehouse

        # No warehouse attached.
        tel = self._telemetry(tmp_path / "a")
        try:
            assert tel.triage_now() is None
            assert "triage" not in tel.status()
        finally:
            tel.tsdb.close()
        # A warehouse without a baseline/current pair.
        lonely = ProfileWarehouse(tmp_path / "b" / "wh")
        tel = self._telemetry(tmp_path / "b", warehouse_dir=lonely.root,
                              triage_min_interval=0.0)
        try:
            assert tel.triage_now() is None
            assert tel.triage_reports == 0
        finally:
            tel.tsdb.close()

    def test_triage_rate_limit(self, tmp_path):
        warehouse = self._stocked_warehouse(tmp_path)
        tel = self._telemetry(tmp_path, warehouse_dir=warehouse.root,
                              triage_min_interval=3600.0)
        try:
            first = tel.triage_now()
            assert first is not None
            assert first["bisect"]["minimal_set"] == sorted(self.REGRESSED)
            assert tel.triage_now() is None, "rate limit must hold"
            assert tel.triage_reports == 1
        finally:
            tel.tsdb.close()


# ----------------------------------------------------------------------
# Dashboard (top)
# ----------------------------------------------------------------------


class TestDashboard:
    def _seed_tsdb(self, root, now):
        tsdb = MetricTSDB(root / "tsdb")
        buckets = [0.001, 0.01, 0.1]
        for i, ts in enumerate((now - 8, now - 4, now - 1)):
            for shard in ("s0", "s1"):
                tsdb.append_flat(
                    shard,
                    {"service_events_total": 1000 * i,
                     "service_frames_total": 10 * i,
                     "service_sessions_active": 3,
                     "service_uptime_seconds": 60.0 + i,
                     "service_connections_open": 2},
                    {"service_frame_latency_seconds":
                        _hist(buckets, [5 * i, 2 * i, 0, 0], hsum=0.01 * i)},
                    ts=ts)
        return tsdb

    def test_overview_reports_shards_rates_and_latency(self, tmp_path):
        from repro.obs.dashboard import overview, render

        now = 1000.0
        with self._seed_tsdb(tmp_path, now) as tsdb:
            view = overview(tsdb, window=10.0, now=now)
        names = [row["shard"] for row in view["shards"]]
        assert names == ["s0", "s1"]
        assert view["rates"]["events/s"] == pytest.approx(2 * 2000 / 10.0)
        assert view["shards"][0]["sessions"] == 3
        assert view["frame_latency"]["p50"] <= 0.01
        assert view["alerts"] == []
        text = render(view)
        assert "s0" in text and "events/s" in text and "no active alerts" in text

    def test_top_cli_once_json(self, tmp_path, capsys):
        from repro import cli

        now = time.time()
        self._seed_tsdb(tmp_path, now).close()
        code = cli.main(["top", "--telemetry-dir", str(tmp_path),
                         "--once", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        view = json.loads(out)
        assert [row["shard"] for row in view["shards"]] == ["s0", "s1"]

    def test_top_cli_exits_2_when_alerts_fire(self, tmp_path, capsys):
        from repro import cli

        now = time.time()
        tsdb = self._seed_tsdb(tmp_path, now)
        tsdb.append_flat(
            "alerts",
            {'slo_alert_firing{rule="shard_down",source="s1"}': 1,
             "slo_alerts_active": 1}, ts=now)
        tsdb.close()
        code = cli.main(["top", "--telemetry-dir", str(tmp_path), "--once"])
        out = capsys.readouterr().out
        assert code == 2
        assert "shard_down" in out

    def test_top_cli_without_tsdb_is_an_error(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(["top", "--telemetry-dir", str(tmp_path / "nope"),
                         "--once"]) == 1

    def test_logs_cli_filters_and_tails(self, tmp_path, capsys):
        from repro import cli

        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        (log_dir / "s0.jsonl").write_text(
            '{"ts": 1.0, "level": "info", "logger": "repro", '
            '"event": "session_opened", "session": "a"}\n'
            '{"ts": 2.0, "level": "warning", "logger": "repro", '
            '"event": "alert_fired", "rule": "shard_down"}\n')
        code = cli.main(["logs", str(log_dir), "--event", "alert_fired"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard_down" in out and "session_opened" not in out
        code = cli.main(["logs", str(log_dir), "--tail", "1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["event"] == "alert_fired"

    def test_logs_cli_since_accepts_relative_durations(self, tmp_path, capsys):
        from repro import cli

        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        now = time.time()
        (log_dir / "s0.jsonl").write_text(
            f'{{"ts": {now - 3600.0}, "level": "info", "logger": "repro", '
            '"event": "old_event"}\n'
            f'{{"ts": {now - 10.0}, "level": "info", "logger": "repro", '
            '"event": "fresh_event"}\n')
        code = cli.main(["logs", str(log_dir), "--since", "5m"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fresh_event" in out and "old_event" not in out
        # Absolute epoch timestamps keep working.
        code = cli.main(["logs", str(log_dir), "--since", str(now - 7200.0)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fresh_event" in out and "old_event" in out

    def test_logs_cli_rejects_bad_since(self, tmp_path, capsys):
        from repro import cli

        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        assert cli.main(["logs", str(log_dir), "--since", "yesterday"]) == 2
        err = capsys.readouterr().err
        assert "yesterday" in err


# ----------------------------------------------------------------------
# Chaos end-to-end: kill a shard, alert fires, watchdog restores
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_fleet_chaos_alert_flightdump_watchdog_restore(tmp_path):
    import numpy as np

    from repro.core.profiler2d import ProfilerConfig
    from repro.fleet.harness import FleetHarness

    interval = 0.3
    with FleetHarness(tmp_path, num_shards=2, telemetry=True, warehouse=True,
                      scrape_interval=interval) as fleet:
        # With a warehouse attached, alert-driven triage is on.
        assert fleet.telemetry.warehouse_dir == fleet.warehouse_dir
        assert "triage" in fleet.telemetry.status()
        with fleet.client() as client:
            client.open_session("chaos-a", 4, ProfilerConfig(slice_size=32))
            sites = np.arange(100, dtype=np.int64) % 4
            correct = (np.arange(100) % 2).astype(np.int8)
            client.send_events("chaos-a", sites, correct)
            client.close_session("chaos-a")
        deadline = time.time() + 15
        while fleet.telemetry.status()["ticks"] < 3:
            assert time.time() < deadline, "scraper never ticked"
            time.sleep(0.05)

        fleet.kill_shard("s1")
        killed_at = time.time()
        fired_at = None
        restored = False
        deadline = time.time() + 30
        while time.time() < deadline:
            status = fleet.telemetry.status()
            down = [a for a in status["alerts"] if a["rule"] == "shard_down"]
            if down and fired_at is None:
                fired_at = time.time()
                assert down[0]["source"] == "s1"
            if fired_at and not down and \
                    fleet.supervisor.processes["s1"].alive():
                restored = True
                break
            time.sleep(0.1)
        assert fired_at is not None, "shard_down never fired"
        assert restored, "watchdog never restored the shard"
        # The detection SLO: within ~2 scrape intervals plus slack for
        # for_ticks and thread scheduling.
        assert fired_at - killed_at < 10 * interval
        assert fleet.supervisor.restarts.get("s1", 0) >= 1

        # The alert dropped a flight record from the router-side recorder.
        flights = list((tmp_path / "telemetry" / "flight").glob("flight-*.json"))
        assert flights, "no flight record dumped on alert"
        doc = json.loads(flights[0].read_text())
        assert "traceEvents" in doc

        # Router's fleet_status carries telemetry + per-shard health.
        with fleet.client() as client:
            reply = client.control({"op": "fleet_status"})
        assert reply["telemetry"]["ticks"] > 0
        s1 = next(s for s in reply["shards"] if s["name"] == "s1")
        assert s1["alive"] and s1["restarts"] >= 1

        # The revived shard serves traffic: a fresh session works.
        with fleet.client() as client:
            client.open_session("chaos-b", 4, ProfilerConfig(slice_size=32))
            client.send_events(
                "chaos-b", np.zeros(10, dtype=np.int64),
                np.ones(10, dtype=np.int8))
            client.close_session("chaos-b")

    # Shard log files exist and carry structured events with trace ids.
    log_dir = tmp_path / "telemetry" / "logs"
    from repro.obs.logs import read_logs

    events = [d for d in read_logs(log_dir) if d.get("event")]
    assert any(d["event"] == "session_opened" for d in events)
    assert any(d.get("trace_id") for d in events)
    # The router process logs there too (the alert that fired, for one).
    router_events = {d.get("event") for d in read_logs(log_dir / "router.jsonl")}
    assert "alert_fired" in router_events
