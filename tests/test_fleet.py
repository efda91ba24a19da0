"""Tests for the fleet layer: shard map, registry, router, merged metrics.

Everything here runs in-process (shard servers and the router, each on a
:class:`ServerThread`) so it stays in the fast tier; the
subprocess chaos tests (kill -9, rolling restart) live in
``tests/test_fleet_handoff.py`` under the ``slow`` marker.

The acceptance pins mirror the single-server suite: a report streamed
*through the router* is bit-identical to offline ``profile_trace``, and
a shard loss surfaces as a retriable error whose resume path lands on a
different shard and still reproduces the identical report.
"""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.profiler2d import ProfilerConfig, profile_trace
from repro.errors import ServiceError
from repro.fleet import SessionRegistry, ShardMap, ShardSpec
from repro.fleet.router import FleetRouter
from repro.obs import Registry, get_tracer, labeled_snapshot, merge_additive_snapshot
from repro.predictors import make_predictor, simulate
from repro.service import protocol
from repro.service.client import StreamingClient, stream_simulation
from repro.service.protocol import serialize_report
from repro.service.server import ProfilingServer, ServerThread
from repro.trace.synthetic import phased_trace


@pytest.fixture(scope="module")
def stream_data():
    trace, _stationary, _phased = phased_trace(6, 3, 12_000, seed=7)
    sim = simulate(make_predictor("bimodal"), trace)
    config = ProfilerConfig().resolve(total_branches=len(trace))
    offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
    return trace, sim, config, offline


# ----------------------------------------------------------------------
# Shard map (rendezvous hashing)
# ----------------------------------------------------------------------


def _map_of(*names: str) -> ShardMap:
    shard_map = ShardMap()
    for i, name in enumerate(names):
        shard_map.add(ShardSpec(name, "127.0.0.1", 9000 + i))
    return shard_map


class TestShardMap:
    def test_route_is_deterministic(self):
        a = _map_of("s0", "s1", "s2")
        b = _map_of("s2", "s0", "s1")  # insertion order must not matter
        for i in range(100):
            session = f"session-{i}"
            assert a.route(session).name == b.route(session).name
            assert [s.name for s in a.ranked(session)] == [s.name for s in b.ranked(session)]

    def test_placement_spreads_across_shards(self):
        shard_map = _map_of(*(f"s{i}" for i in range(8)))
        counts: dict[str, int] = {}
        for i in range(2000):
            name = shard_map.route(f"session-{i}").name
            counts[name] = counts.get(name, 0) + 1
        assert len(counts) == 8
        # Rendezvous hashing is near-uniform; allow generous slack.
        assert min(counts.values()) > 2000 / 8 * 0.5
        assert max(counts.values()) < 2000 / 8 * 2.0

    def test_removing_a_shard_only_remaps_its_sessions(self):
        full = _map_of("s0", "s1", "s2", "s3")
        sessions = [f"session-{i}" for i in range(500)]
        before = {s: full.route(s).name for s in sessions}
        full.remove("s2")
        for session in sessions:
            after = full.route(session).name
            if before[session] != "s2":
                assert after == before[session]  # minimal disruption
            else:
                assert after != "s2"

    def test_replace_keeps_placement_across_address_change(self):
        shard_map = _map_of("s0", "s1")
        before = {f"x{i}": shard_map.route(f"x{i}").name for i in range(50)}
        shard_map.replace(ShardSpec("s0", "127.0.0.1", 19999))  # respawned shard
        assert {s: shard_map.route(s).name for s in before} == before

    def test_route_respects_liveness_and_falls_back_in_rank_order(self):
        shard_map = _map_of("s0", "s1", "s2")
        session = "pinned"
        ranked = [s.name for s in shard_map.ranked(session)]
        dead = {ranked[0]}
        chosen = shard_map.route(session, live=lambda n: n not in dead)
        assert chosen.name == ranked[1]
        assert shard_map.route(session, live=lambda n: False) is None


# ----------------------------------------------------------------------
# Snapshot helpers (fleet metric merging)
# ----------------------------------------------------------------------


class TestSnapshotMerging:
    def _shard_registry(self, frames: int, open_conns: int) -> Registry:
        reg = Registry()
        reg.counter("frames_total").inc(frames)
        reg.gauge("connections_open").set(open_conns)
        hist = reg.histogram("latency_seconds")
        for _ in range(frames):
            hist.observe(0.01)
        return reg

    def test_additive_merge_sums_counters_and_histograms(self):
        fleet = Registry()
        merge_additive_snapshot(fleet, self._shard_registry(5, 3).snapshot())
        merge_additive_snapshot(fleet, self._shard_registry(7, 9).snapshot())
        assert fleet.counter("frames_total").value == 12
        assert fleet.histogram("latency_seconds").count == 12

    def test_additive_merge_drops_gauges(self):
        """Gauge 'adopt' semantics would make the last shard win a sum."""
        fleet = Registry()
        merge_additive_snapshot(fleet, self._shard_registry(1, 3).snapshot())
        merge_additive_snapshot(fleet, self._shard_registry(1, 9).snapshot())
        assert "connections_open" not in fleet.snapshot()

    def test_labeled_snapshot_yields_per_shard_series(self):
        fleet = Registry()
        for name, frames in (("s0", 5), ("s1", 7)):
            shard = self._shard_registry(frames, 1).snapshot()
            fleet.merge_snapshot(labeled_snapshot(shard, {"shard": name}))
        snap = fleet.snapshot()
        labels = snap["frames_total"]["labels"]
        assert labels['shard="s0"']["value"] == 5
        assert labels['shard="s1"']["value"] == 7
        # Gauges stay visible per shard even though fleet sums drop them.
        assert snap["connections_open"]["labels"]['shard="s0"']["value"] == 1


# ----------------------------------------------------------------------
# Session registry
# ----------------------------------------------------------------------


class TestSessionRegistry:
    def test_record_lookup_roundtrip(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        registry.record("run-a", "s1", 4000)
        entry = registry.lookup("run-a")
        assert entry["shard"] == "s1" and entry["events"] == 4000

    def test_missing_and_corrupt_read_as_absent(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        assert registry.lookup("nope") is None
        (tmp_path / "bad.session.json").write_text("{not json")
        assert registry.lookup("bad") is None
        (tmp_path / "alist.session.json").write_text("[1, 2]")
        assert registry.lookup("alist") is None

    def test_remove_and_entries(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        registry.record("a", "s0", 1)
        registry.record("b", "s1", 2)
        assert sorted(registry.entries()) == ["a", "b"]
        assert registry.remove("a") is True
        assert registry.remove("a") is False
        assert sorted(registry.entries()) == ["b"]

    def test_rejects_unsafe_session_names(self, tmp_path):
        registry = SessionRegistry(tmp_path)
        with pytest.raises(ServiceError):
            registry.record("../escape", "s0", 0)

    def test_record_survives_atomicity_check(self, tmp_path):
        """Records go through atomic publication (no torn .tmp leftovers)."""
        registry = SessionRegistry(tmp_path)
        for i in range(20):
            registry.record("hot", f"s{i % 3}", i)
        assert registry.lookup("hot")["events"] == 19
        assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# Protocol forwarding helpers
# ----------------------------------------------------------------------


class TestEventReframing:
    def test_reframe_rewrites_only_the_session_id(self):
        sites = np.array([1, 5, 9], dtype=np.int64)
        correct = np.array([1, 0, 1], dtype=np.int64)
        frame = protocol.encode_events(42, sites, correct)
        payload = frame[protocol.HEADER_BYTES:]
        assert protocol.events_session_id(payload) == 42
        reframed = protocol.reframe_events(payload, 7)
        batch = protocol.decode_events(reframed[protocol.HEADER_BYTES:])
        assert batch.session_id == 7
        np.testing.assert_array_equal(batch.sites, sites)
        np.testing.assert_array_equal(batch.correct, correct)

    def test_truncated_payload_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.events_session_id(b"\x00\x01")
        with pytest.raises(protocol.ProtocolError):
            protocol.reframe_events(b"\x00\x01", 1)


# ----------------------------------------------------------------------
# Router end to end (in-process shards)
# ----------------------------------------------------------------------


@pytest.fixture()
def fleet(tmp_path, monkeypatch):
    """Two ServerThread shards sharing one checkpoint dir, one router."""
    import repro.fleet.router as router_module

    monkeypatch.setattr(router_module, "DEAD_COOLDOWN", 0.2)
    ckpt_dir = tmp_path / "ckpt"
    shard_map = ShardMap()
    shards: dict[str, ServerThread] = {}
    for name in ("s0", "s1"):
        thread = ServerThread(
            ProfilingServer(checkpoint_dir=ckpt_dir, shard_name=name)).start()
        shards[name] = thread
        shard_map.add(ShardSpec(name, "127.0.0.1", thread.port))
    router = ServerThread(FleetRouter(shard_map, registry_dir=tmp_path / "registry")).start()
    yield SimpleNamespace(router=router, shards=shards, shard_map=shard_map)
    router.shutdown()
    for thread in shards.values():
        if thread.is_alive():  # a test may have abort()ed it already
            thread.drain()


class TestRouterEndToEnd:
    def test_streamed_report_bit_identical_through_router(self, fleet, stream_data):
        trace, sim, config, offline = stream_data
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            outcome = stream_simulation(
                client, "run", trace.sites, sim.correct, config,
                batch_size=997, num_sites=trace.num_sites)
            assert outcome.completed
            assert client.query("run")["report"] == offline
            reply = client.close_session("run")
            assert reply["report"] == offline
        # A clean close clears the placement record.
        assert fleet.router.server.registry.lookup("run") is None

    def test_open_reply_names_the_owning_shard(self, fleet, stream_data):
        trace, _sim, config, _offline = stream_data
        expected = fleet.shard_map.route("placed").name
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            reply = client.open_session("placed", trace.num_sites, config)
            assert reply["shard"] == expected
            registry = fleet.router.server.registry
            assert registry.lookup("placed")["shard"] == expected
            client.close_session("placed")

    def test_sessions_spread_over_both_shards(self, fleet, stream_data):
        trace, _sim, config, _offline = stream_data
        owners = set()
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            for i in range(16):
                reply = client.open_session(f"spread-{i}", trace.num_sites, config)
                owners.add(reply["shard"])
            for i in range(16):
                client.close_session(f"spread-{i}")
        assert owners == {"s0", "s1"}

    def test_fleet_stats_sum_shards_and_break_out_per_shard(self, fleet, stream_data):
        trace, sim, config, _offline = stream_data
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            for i in range(8):
                stream_simulation(client, f"st-{i}", trace.sites[:2000],
                                  sim.correct[:2000], config,
                                  num_sites=trace.num_sites)
            reply = client.control({"op": "stats"})
        fleet_stats, per_shard = reply["stats"], reply["shards"]
        assert sorted(per_shard) == ["s0", "s1"]
        assert fleet_stats["shards"] == 2
        assert fleet_stats["events_total"] == 8 * 2000
        assert fleet_stats["events_total"] == sum(
            s["events_total"] for s in per_shard.values())
        assert fleet_stats["frame_latency"]["count"] == sum(
            s["frame_latency"]["count"] for s in per_shard.values())
        for name, stats in per_shard.items():
            assert stats["shard"] == name

    def test_fleet_stats_carry_every_shard_key(self, fleet, stream_data, monkeypatch):
        trace, sim, config, _offline = stream_data
        router = fleet.router.server
        # Every scrape is itself a frame on each shard, so two ops never
        # see the same latency histograms.  Pin the first scrape and
        # replay it, so `stats` and `metrics` merge the same snapshots.
        scrape, pinned = router._scrape, []

        async def pinned_scrape(state):
            if not pinned:
                pinned.append(await scrape(state))
            return pinned[0]

        monkeypatch.setattr(router, "_scrape", pinned_scrape)
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            for i in range(8):
                stream_simulation(client, f"kv-{i}", trace.sites[:2000],
                                  sim.correct[:2000], config,
                                  num_sites=trace.num_sites)
            reply = client.control({"op": "stats"})
            merged = client.metrics()["snapshot"]
        fleet_stats, per_shard = reply["stats"], reply["shards"]
        assert sorted(per_shard) == ["s0", "s1"]
        for stats in per_shard.values():
            assert set(fleet_stats) == set(stats) - {"shard"} | {"shards"}
        for key in ("drain", "frame_latency"):
            assert fleet_stats[key]["count"] == sum(
                s[key]["count"] for s in per_shard.values())
        assert fleet_stats["frame_latency"]["p99"] is not None
        assert fleet_stats["frame_latency"]["p99"] == (
            merged["service_frame_latency_seconds"]["p99"])
        assert fleet_stats["uptime_seconds"] == max(
            s["uptime_seconds"] for s in per_shard.values())

    def test_merged_metrics_carry_shard_labels(self, fleet, stream_data):
        trace, sim, config, _offline = stream_data
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            for i in range(8):
                stream_simulation(client, f"mx-{i}", trace.sites[:1000],
                                  sim.correct[:1000], config,
                                  num_sites=trace.num_sites)
            snap = client.metrics()["snapshot"]
        events = snap["service_events_total"]
        labels = events["labels"]
        assert set(labels) == {'shard="s0"', 'shard="s1"'}
        # Fleet total == sum of the labeled per-shard series.
        assert events["value"] == 8 * 1000
        assert sum(child["value"] for child in labels.values()) == 8 * 1000
        # The router's own series ride along in the same snapshot.
        assert snap["router_frames_total"]["value"] > 0
        # JSON-safe end to end (the CLI dumps this verbatim).
        json.dumps(snap)

    def test_shard_loss_is_retriable_and_resume_lands_elsewhere(self, fleet, stream_data):
        trace, sim, config, offline = stream_data
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            outcome = stream_simulation(
                client, "run", trace.sites, sim.correct, config,
                batch_size=500, stop_after=4000, num_sites=trace.num_sites)
            assert not outcome.completed  # checkpointed at 4000
            owner = fleet.router.server.registry.lookup("run")["shard"]
            fleet.shards[owner].abort()  # SIGKILL-equivalent: no drain
            with pytest.raises(ServiceError, match="unavailable"):
                client.send_events("run", trace.sites[4000:4500],
                                   sim.correct[4000:4500])
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            outcome = stream_simulation(
                client, "run", trace.sites, sim.correct, config,
                batch_size=800, resume=True, num_sites=trace.num_sites)
            assert outcome.resumed_from == 4000
            assert client.query("run")["report"] == offline
            survivor = fleet.router.server.registry.lookup("run")["shard"]
            assert survivor != owner

    def test_query_routes_by_registry_without_a_conn_mapping(self, fleet, stream_data):
        trace, sim, config, offline = stream_data
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            stream_simulation(client, "run", trace.sites, sim.correct, config,
                              num_sites=trace.num_sites)
        # A *different* connection never opened the session; the registry
        # still routes its query to the owning shard.
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            assert client.query("run")["report"] == offline

    def test_bad_ops_get_error_replies_not_disconnects(self, fleet):
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            with pytest.raises(ServiceError, match="unknown control op"):
                client.control({"op": "frobnicate"})
            with pytest.raises(ServiceError, match="unknown session id"):
                client._checked(client._request(protocol.encode_events(
                    999, np.array([1], dtype=np.int64), np.array([1], dtype=np.int64))))
            assert client.ping()["router"] is True

    def test_router_frames_are_roots_of_their_own_traces(self, fleet, stream_data):
        """Two clients stream at once, so the router holds two connections'
        ``router.frame`` spans across its awaits on the shards; neither may
        become the other's parent or share its trace id."""
        trace, sim, config, _offline = stream_data
        tracer = get_tracer()
        hot_sample = tracer.hot_sample
        tracer.clear()
        tracer.configure(enabled=True, hot_sample=1)
        try:
            def stream(name: str) -> None:
                with StreamingClient("127.0.0.1", fleet.router.port) as client:
                    stream_simulation(client, name, trace.sites, sim.correct, config,
                                      batch_size=500, num_sites=trace.num_sites)
                    client.close_session(name)

            threads = [threading.Thread(target=stream, args=(f"tr-{i}",))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            frames = [e for e in tracer.events() if e["name"] == "router.frame"]
        finally:
            tracer.configure(enabled=False, hot_sample=hot_sample)
            tracer.clear()
        assert len(frames) >= 2 * (len(trace) // 500 + 2)
        assert [e for e in frames if "parent" in e["args"]] == []
        assert len({e["args"]["trace_id"] for e in frames}) == len(frames)

    def test_fleet_drain_without_supervisor_is_an_error(self, fleet):
        with StreamingClient("127.0.0.1", fleet.router.port) as client:
            with pytest.raises(ServiceError, match="no supervisor"):
                client.control({"op": "fleet_drain"})
