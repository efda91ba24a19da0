"""Tests for the unified observability subsystem (:mod:`repro.obs`).

Covers the tentpole contracts: span nesting and attributes, the disabled
no-op fast path, histogram percentile math, snapshot merging, the
ProcessPool spool round-trip (worker spans land in
the parent trace), the service stats view, and the CLI
``--trace`` / ``--metrics-json`` / ``stats`` surfaces.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.metrics import Registry
from repro.obs.spool import merge_spool, worker_capture
from repro.obs.tracing import Tracer, current_ids


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def _tracer(**settings) -> Tracer:
    tracer = Tracer()
    tracer.configure(**settings)
    return tracer


class TestTracer:
    def test_disabled_is_shared_noop(self):
        tracer = Tracer()
        a = tracer.span("hot")
        b = tracer.span("loop", cat="x")
        assert a is b  # one shared object, no per-call allocation
        with a as sp:
            sp.set("key", "value")  # must be accepted and dropped
        assert tracer.events() == []

    def test_span_records_chrome_complete_event(self):
        tracer = _tracer(enabled=True)
        with tracer.span("work", cat="test", workload="gzipish") as sp:
            time.sleep(0.002)
            sp.set("events", 42)
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["cat"] == "test"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 2000  # microseconds
        assert event["args"]["workload"] == "gzipish"
        assert event["args"]["events"] == 42
        assert "cpu_ms" in event["args"]

    def test_nesting_parent_links_and_containment(self):
        tracer = _tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        inner, middle, outer = tracer.events()  # innermost exits first
        assert inner["args"]["parent"] == "middle"
        assert middle["args"]["parent"] == "outer"
        assert "parent" not in outer["args"]
        # Children are contained in their parent's interval.
        assert outer["ts"] <= middle["ts"]
        assert middle["ts"] + middle["dur"] <= outer["ts"] + outer["dur"] + 1.0

    def test_sibling_spans_do_not_link(self):
        tracer = _tracer(enabled=True)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.events()
        assert "parent" not in first["args"]
        assert "parent" not in second["args"]

    def test_ring_buffer_caps_events(self):
        tracer = _tracer(enabled=True, capacity=10)
        for i in range(25):
            with tracer.span(f"s{i}"):
                pass
        events = tracer.events()
        assert len(events) == 10
        assert events[0]["name"] == "s15"  # oldest dropped

    def test_export_is_valid_chrome_trace(self, tmp_path):
        tracer = _tracer(enabled=True)
        with tracer.span("alpha"):
            pass
        path = tracer.export(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X"} <= phases
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"alpha", "process_name"} <= names

    def test_tasks_holding_spans_across_awaits_stay_apart(self):
        """Two tasks on one loop interleave spans held across awaits; each
        frame is a root of its own trace and its child stays inside it."""
        tracer = _tracer(enabled=True)

        async def connection(name: str) -> None:
            for _ in range(20):
                with tracer.span("frame", conn=name):
                    await asyncio.sleep(0)
                    with tracer.span("work", conn=name):
                        await asyncio.sleep(0)
                    await asyncio.sleep(0)

        async def main() -> None:
            await asyncio.gather(connection("a"), connection("b"))

        asyncio.run(main())
        events = tracer.events()
        frames = [e for e in events if e["name"] == "frame"]
        works = [e for e in events if e["name"] == "work"]
        assert len(frames) == len(works) == 40
        assert all("parent" not in e["args"] for e in frames)
        owner = {e["args"]["trace_id"]: e["args"]["conn"] for e in frames}
        assert len(owner) == 40  # distinct trace ids
        for work in works:
            assert work["args"]["parent"] == "frame"
            assert owner[work["args"]["trace_id"]] == work["args"]["conn"]
        assert current_ids() == (None, None)  # nothing left open

    def test_span_in_to_thread_is_child_of_the_awaiting_span(self):
        tracer = _tracer(enabled=True)

        def io() -> int:
            with tracer.span("io"):
                return threading.get_ident()

        async def main() -> int:
            with tracer.span("frame"):
                return await asyncio.to_thread(io)

        worker = asyncio.run(main())
        child, frame = tracer.events()
        assert child["args"]["parent"] == "frame"
        assert child["args"]["trace_id"] == frame["args"]["trace_id"]
        assert child["tid"] == worker & 0x7FFFFFFF != frame["tid"]

    def test_plain_thread_starts_with_no_current_span(self):
        tracer = _tracer(enabled=True)
        seen = {}

        def run() -> None:
            seen["ids"] = current_ids()
            with tracer.span("thread"):
                pass

        with tracer.span("outer"):
            thread = threading.Thread(target=run)
            thread.start()
            thread.join()
        assert seen["ids"] == (None, None)
        inner, outer = tracer.events()
        assert "parent" not in inner["args"]
        assert inner["args"]["trace_id"] != outer["args"]["trace_id"]

    def test_add_chrome_events_works_while_disabled(self):
        tracer = Tracer()
        tracer.add_chrome_events([{"name": "w", "ph": "X", "ts": 0, "dur": 1,
                                   "pid": 1234, "tid": 1, "args": {}}])
        assert len(tracer.events()) == 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_labels(self):
        registry = Registry()
        hits = registry.counter("cache_hits_total")
        hits.inc()
        hits.inc(2)
        hits.labels(kind="trace").inc(5)
        hits.labels(kind="trace").inc()
        assert hits.value == 3
        assert hits.labels(kind="trace").value == 6
        assert hits.total() == 9
        with pytest.raises(ValueError):
            hits.inc(-1)

    def test_metric_kind_collision_rejected(self):
        registry = Registry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_gauge(self):
        registry = Registry()
        gauge = registry.gauge("pending")
        gauge.set(7)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 9

    def test_histogram_percentile_math(self):
        registry = Registry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in [0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 5.0, 5.0, 7.0, 100.0]:
            hist.observe(value)
        assert hist.count == 10
        assert hist.sum == pytest.approx(129.5)
        assert hist.min == 0.5
        assert hist.max == 100.0
        # The p50 target (5th of 10) falls in the (2, 4] bucket.
        assert 2.0 <= hist.percentile(0.5) <= 4.0
        # p90 lands in the (4, 8] bucket.
        assert 4.0 <= hist.percentile(0.9) <= 8.0
        # Estimates never leave the observed range, even in +Inf's bucket.
        assert hist.percentile(1.0) <= 100.0
        assert hist.percentile(0.0) >= 0.5
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_histogram_empty_and_single(self):
        registry = Registry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0))
        assert math.isnan(hist.percentile(0.5))
        hist.observe(1.7)
        assert hist.percentile(0.5) == pytest.approx(1.7)
        assert hist.percentile(0.99) == pytest.approx(1.7)

    def test_snapshot_and_merge(self):
        source = Registry()
        source.counter("jobs_total").inc(4)
        source.counter("jobs_total").labels(kind="sim").inc(2)
        source.gauge("depth").set(3)
        hist = source.histogram("wait", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)

        target = Registry()
        target.counter("jobs_total").inc(1)
        target.histogram("wait", buckets=(1.0, 2.0)).observe(10.0)
        target.merge_snapshot(source.snapshot())

        assert target.counter("jobs_total").value == 5
        assert target.counter("jobs_total").labels(kind="sim").value == 2
        assert target.gauge("depth").value == 3
        merged = target.histogram("wait")
        assert merged.count == 3
        assert merged.sum == pytest.approx(12.0)
        assert merged.min == 0.5
        assert merged.max == 10.0

    def test_snapshot_is_json_safe(self):
        registry = Registry()
        registry.counter("a_total").inc()
        registry.histogram("h").observe(0.2)
        json.dumps(registry.snapshot())  # must not raise

    def test_snapshot_label_values_round_trip_through_merge(self):
        registry = Registry()
        registry.counter("odd_total").labels(
            path='C:\\tmp', note='say "hi"', multi="a\nb").inc()
        snap = registry.snapshot()
        (key,) = snap["odd_total"]["labels"]
        assert 'C:\\tmp' in key and '"hi"' in key and '\n' in key
        target = Registry()
        target.merge_snapshot(snap)
        assert target.snapshot() == snap

    def test_empty_histogram_percentiles_are_nan_and_snapshot_none(self):
        registry = Registry()
        hist = registry.histogram("empty_seconds", buckets=(0.1, 1.0))
        assert math.isnan(hist.percentile(0.5))
        assert math.isnan(hist.percentile(0.99))
        entry = registry.snapshot()["empty_seconds"]
        assert entry["count"] == 0
        assert entry["p50"] is None and entry["p99"] is None
        assert entry["min"] is None and entry["max"] is None

    def test_cross_process_gauge_merge_adopts_not_sums(self):
        # merge_snapshot models "same process, newer state": the gauge
        # adopts the incoming value (last write wins)...
        target = Registry()
        target.gauge("depth").set(3)
        source = Registry()
        source.gauge("depth").set(7)
        target.merge_snapshot(source.snapshot())
        assert target.gauge("depth").value == 7
        # ...while the fleet's additive cross-shard merge must NOT sum
        # point-in-time gauges from different processes: it drops them.
        from repro.obs import merge_additive_snapshot

        fleet = Registry()
        fleet.counter("jobs_total").inc(1)
        shard = Registry()
        shard.counter("jobs_total").inc(2)
        shard.gauge("depth").set(7)
        merge_additive_snapshot(fleet, shard.snapshot())
        assert fleet.counter("jobs_total").value == 3
        assert "depth" not in fleet.snapshot()


# ----------------------------------------------------------------------
# ProcessPool spool round-trip
# ----------------------------------------------------------------------


def _spooled_task(spool_dir, index: int) -> int:
    from repro.obs import get_registry, get_tracer

    with worker_capture(spool_dir):
        with get_tracer().span("worker.task", cat="test", index=index):
            get_registry().counter("tasks_done_total").inc()
            time.sleep(0.2)  # overlap so the pool uses both workers
    return os.getpid()


@pytest.mark.slow
def test_processpool_spans_land_in_parent_trace(tmp_path):
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_spooled_task, spool_dir, i) for i in range(4)]
        worker_pids = {f.result() for f in futures}

    tracer = Tracer()  # merge works even when parent is disabled
    registry = Registry()
    merged = merge_spool(spool_dir, tracer=tracer, registry=registry)
    assert merged == 4
    events = tracer.events()
    spans = [e for e in events if e["name"] == "worker.task"]
    assert len(spans) == 4
    assert {e["pid"] for e in spans} == worker_pids
    assert all(pid != os.getpid() for pid in worker_pids)
    assert {e["args"]["index"] for e in spans} == {0, 1, 2, 3}
    assert registry.counter("tasks_done_total").value == 4


@pytest.mark.slow
def test_parallel_warm_merges_worker_observability(tmp_path):
    """End-to-end: a traced --jobs 2 warm yields spans from >= 1 worker
    process plus the parent, and worker cache counters reach the parent
    registry."""
    from repro.core.experiment import ExperimentRunner, SuiteConfig
    from repro.obs import get_registry, get_tracer, set_registry
    from repro.obs.metrics import Registry as _Registry

    tracer = get_tracer()
    previous_registry = set_registry(_Registry())
    tracer.clear()
    tracer.configure(enabled=True)
    try:
        runner = ExperimentRunner(SuiteConfig(scale=0.05, cache_dir=tmp_path / "cache",
                                              jobs=2))
        runner.prefetch(sims=[("gzipish", "train", "gshare"), ("mcfish", "train", "gshare")])
        events = tracer.events()
        registry = get_registry()
    finally:
        tracer.configure(enabled=False)
        tracer.clear()
        set_registry(previous_registry)

    pids = {e["pid"] for e in events if e.get("ph") == "X"}
    assert os.getpid() in pids
    assert len(pids) >= 2  # at least one worker process contributed
    names = {e["name"] for e in events}
    assert {"warm", "warm.trace", "warm.sim", "experiment.trace",
            "experiment.sim", "vm.run"} <= names
    # Worker-side cache misses were merged into the parent registry.
    misses = registry.counter("cache_misses_total")
    assert misses.labels(kind="trace").value == 2
    assert misses.labels(kind="sim").value == 2


# ----------------------------------------------------------------------
# Cache counters on the serial path
# ----------------------------------------------------------------------


def test_cache_hit_miss_counters(tmp_path):
    from repro.core.experiment import ExperimentRunner, SuiteConfig
    from repro.obs import get_registry

    runner = ExperimentRunner(SuiteConfig(scale=0.05, cache_dir=tmp_path))
    hits = get_registry().counter("cache_hits_total").labels(kind="trace")
    misses = get_registry().counter("cache_misses_total").labels(kind="trace")
    hits_before, misses_before = hits.value, misses.value
    runner.trace("gzipish", "train")
    assert misses.value == misses_before + 1
    fresh = ExperimentRunner(SuiteConfig(scale=0.05, cache_dir=tmp_path))
    fresh.trace("gzipish", "train")
    assert hits.value == hits_before + 1


def test_corrupt_cache_counter(tmp_path):
    from repro.core.experiment import ExperimentRunner, SuiteConfig
    from repro.obs import get_registry

    runner = ExperimentRunner(SuiteConfig(scale=0.05, cache_dir=tmp_path))
    runner.trace("gzipish", "train")
    path = runner._trace_path("gzipish", "train")
    path.write_bytes(b"not a real npz")
    corrupt = get_registry().counter("cache_corrupt_total").labels(kind="trace")
    before = corrupt.value
    fresh = ExperimentRunner(SuiteConfig(scale=0.05, cache_dir=tmp_path))
    fresh.trace("gzipish", "train")
    # The load is attempted both before and after taking the artifact
    # lock, so one corrupt file can be counted once or twice.
    assert corrupt.value > before


# ----------------------------------------------------------------------
# ServiceMetrics backward compatibility
# ----------------------------------------------------------------------


class TestServiceMetricsCompat:
    #: Every key the pre-registry stats frame carried.
    LEGACY_KEYS = {
        "uptime_seconds", "active_sessions", "connections_accepted",
        "connections_open", "sessions_opened", "sessions_resumed",
        "sessions_closed", "sessions_evicted", "events_total",
        "events_per_second", "frames_total", "frames_rejected",
        "checkpoints_written", "queries_served",
    }

    def test_snapshot_keeps_legacy_keys(self):
        from repro.service.metrics import ServiceMetrics, stats_view

        snapshot = ServiceMetrics().registry.snapshot()
        stats = stats_view(snapshot, {"a": 1, "b": 2, "c": 3})
        assert self.LEGACY_KEYS <= set(stats)
        assert stats["active_sessions"] == 3
        assert stats["sessions"] == {"a": 1, "b": 2, "c": 3}
        # New telemetry only adds keys.
        assert {"bytes_in", "bytes_out", "frame_latency", "drain",
                "warehouse_failures"} <= set(stats)
        # A fresh registry reads as all zeros, with no rate to divide out.
        assert stats["events_per_second"] == 0.0
        assert stats["frame_latency"] == {
            "count": 0, "sum_seconds": 0.0, "p50": None, "p90": None, "p99": None}
        assert stats["drain"] == {"count": 0, "sum_seconds": 0.0}
        # An empty snapshot (a fleet with no live shard) is all zeros too.
        assert stats_view({}, {}) == {**stats, "active_sessions": 0, "sessions": {}}

    def test_counters_flow_into_snapshot_and_registry(self):
        from repro.service.metrics import ServiceMetrics, stats_view

        metrics = ServiceMetrics()
        metrics.frames_total.inc(5)
        metrics.bytes_in.inc(100)
        metrics.events_total.inc(30)
        metrics.uptime_seconds.set(2.0)
        metrics.frame_latency.observe(0.001)
        stats = stats_view(metrics.registry.snapshot(), {})
        assert stats["frames_total"] == 5
        assert stats["bytes_in"] == 100
        assert stats["uptime_seconds"] == 2.0
        assert stats["events_per_second"] == 15.0
        assert stats["frame_latency"]["count"] == 1
        assert stats["frame_latency"]["sum_seconds"] == 0.001
        assert stats["frame_latency"]["p50"] == metrics.frame_latency.percentile(0.5)
        # The registry is the source of truth.
        assert metrics.registry.counter("service_frames_total").value == 5
        assert metrics.registry.counter("service_bytes_in_total").value == 100

    def test_instances_are_isolated(self):
        from repro.service.metrics import ServiceMetrics

        a, b = ServiceMetrics(), ServiceMetrics()
        a.frames_total.inc()
        assert b.frames_total.value == 0


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_cli_trace_and_metrics_flags(tmp_path, monkeypatch, capsys):
    from repro import cli
    from repro.obs import get_tracer

    monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "cache"))
    trace_file = tmp_path / "out.json"
    metrics_file = tmp_path / "metrics.json"
    code = cli.main([
        "--scale", "0.05", "profile", "gzipish",
        "--trace", str(trace_file), "--metrics-json", str(metrics_file),
    ])
    get_tracer().configure(enabled=False)
    get_tracer().clear()
    assert code == 0
    doc = json.loads(trace_file.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"experiment.trace", "experiment.sim", "vm.run"} <= names
    metrics = json.loads(metrics_file.read_text())
    assert "cache_misses_total" in metrics
    assert "vm_instructions_total" in metrics


@pytest.mark.slow
def test_cli_stats_subcommand(tmp_path, capsys):
    from repro import cli
    from repro.service.client import StreamingClient
    from repro.service.server import ProfilingServer, ServerThread

    thread = ServerThread(ProfilingServer(checkpoint_dir=tmp_path / "ckpt")).start()
    try:
        with StreamingClient("127.0.0.1", thread.port) as client:
            client.ping()
        code = cli.main(["stats", "--port", str(thread.port)])
        assert code == 0
        out = capsys.readouterr().out
        assert "frames_total" in out
        assert "bytes_in" in out
        assert "frame_latency" in out
        code = cli.main(["stats", "--port", str(thread.port), "--json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["frames_total"] >= 1
    finally:
        thread.drain()
