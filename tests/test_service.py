"""Tests for the streaming profiling service.

Three layers:

* **protocol** — frame round-trips and strict rejection of malformed,
  truncated, or oversized frames;
* **checkpoint** — snapshot/restore exactness and corruption-as-miss;
* **end-to-end** — a real asyncio server on a background thread, driven
  by the blocking client.  The acceptance pins: streamed reports are
  *bit-identical* to offline ``profile_trace`` (float-for-float, via the
  JSON shortest-repr round-trip), and a crash (no graceful shutdown) plus
  resume-from-checkpoint reproduces the identical report.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.profiler2d import ProfilerConfig, TwoDProfiler, profile_trace
from repro.core.stats import TestThresholds
from repro.errors import ProtocolError, ServiceError
from repro.predictors import make_predictor, simulate
from repro.service import checkpoint as ckpt
from repro.service import protocol
from repro.service.client import StreamingClient, stream_simulation
from repro.service.protocol import serialize_report
from repro.service.server import ProfilingServer, ServerThread, ServiceLimits
from repro.trace.synthetic import phased_trace


@pytest.fixture(scope="module")
def stream_data():
    """A phased synthetic run: (trace, simulation, resolved config, offline)."""
    trace, _stationary, _phased = phased_trace(6, 3, 12_000, seed=7)
    sim = simulate(make_predictor("bimodal"), trace)
    config = ProfilerConfig().resolve(total_branches=len(trace))
    offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
    return trace, sim, config, offline


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------


class TestProtocol:
    def test_control_roundtrip(self):
        frame = protocol.encode_control({"op": "ping", "x": [1, 2.5, None]})
        frame_type, length = protocol.split_header(frame[:protocol.HEADER_BYTES])
        assert frame_type == protocol.FRAME_JSON
        assert protocol.decode_control(frame[protocol.HEADER_BYTES:]) == {
            "op": "ping", "x": [1, 2.5, None]
        }
        assert length == len(frame) - protocol.HEADER_BYTES

    def test_events_roundtrip(self):
        sites = np.array([0, 3, 7, 2**20], dtype=np.int64)
        correct = np.array([1, 0, 1, 1], dtype=np.int64)
        frame = protocol.encode_events(42, sites, correct)
        batch = protocol.decode_events(frame[protocol.HEADER_BYTES:])
        assert batch.session_id == 42 and len(batch) == 4
        np.testing.assert_array_equal(batch.sites, sites)
        np.testing.assert_array_equal(batch.correct, correct)

    def test_empty_batch_roundtrip(self):
        frame = protocol.encode_events(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        batch = protocol.decode_events(frame[protocol.HEADER_BYTES:])
        assert len(batch) == 0

    def test_unknown_frame_type_rejected(self):
        header = struct.pack("!BI", 0x99, 4)
        with pytest.raises(ProtocolError, match="unknown frame type"):
            protocol.split_header(header)

    def test_oversized_length_rejected(self):
        header = struct.pack("!BI", protocol.FRAME_JSON, protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds limit"):
            protocol.split_header(header)

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.split_header(b"\x4a\x00")

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="malformed control"):
            protocol.decode_control(b"{nope")

    def test_non_object_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_control(b"[1, 2]")

    def test_event_count_mismatch_rejected(self):
        good = protocol.encode_events(1, np.array([5]), np.array([1]))
        payload = good[protocol.HEADER_BYTES:]
        with pytest.raises(ProtocolError, match="does not match count"):
            protocol.decode_events(payload + b"\x00\x00\x00\x00")
        with pytest.raises(ProtocolError, match="does not match count"):
            protocol.decode_events(payload[:-1])

    def test_truncated_event_head_rejected(self):
        with pytest.raises(ProtocolError, match="truncated event frame"):
            protocol.decode_events(b"\x00\x01")

    def test_encode_validates_site_range(self):
        with pytest.raises(ProtocolError, match="site id out of range"):
            protocol.encode_events(1, np.array([2**31]), np.array([0]))
        with pytest.raises(ProtocolError, match="site id out of range"):
            protocol.encode_events(1, np.array([-1]), np.array([0]))

    def test_encode_validates_correct_flags(self):
        with pytest.raises(ProtocolError, match="0 or 1"):
            protocol.encode_events(1, np.array([3]), np.array([2]))


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


class TestCheckpoint:
    def _profiler_with_data(self, seed: int = 0) -> TwoDProfiler:
        rng = np.random.default_rng(seed)
        profiler = TwoDProfiler(8, ProfilerConfig(slice_size=100, exec_threshold=2))
        profiler.record_batch(rng.integers(0, 8, size=730), rng.integers(0, 2, size=730))
        return profiler

    def test_roundtrip_resumes_byte_identical(self, tmp_path):
        profiler = self._profiler_with_data()
        ckpt.save_checkpoint(tmp_path, "sess", profiler.state_dict(), 730)
        restored, events = ckpt.load_checkpoint(tmp_path, "sess")
        assert events == 730
        assert serialize_report(restored.finish()) == serialize_report(profiler.finish())

    def test_missing_is_none(self, tmp_path):
        assert ckpt.load_checkpoint(tmp_path, "nothing") is None

    def test_corrupt_checkpoint_is_a_miss(self, tmp_path):
        profiler = self._profiler_with_data()
        path = ckpt.save_checkpoint(tmp_path, "sess", profiler.state_dict(), 10)
        path.write_bytes(b"garbage, not a zip")
        assert ckpt.load_checkpoint(tmp_path, "sess") is None

    def test_truncated_checkpoint_is_a_miss(self, tmp_path, caplog, no_leaked_files):
        profiler = self._profiler_with_data()
        path = ckpt.save_checkpoint(tmp_path, "sess", profiler.state_dict(), 10)
        path.write_bytes(path.read_bytes()[:40])
        # A captured warning record keeps the exception, and with it any
        # file its traceback still references, alive past the block.
        caplog.set_level("ERROR", logger=ckpt.log.name)
        with no_leaked_files():
            assert ckpt.load_checkpoint(tmp_path, "sess") is None

    def test_delete_and_list(self, tmp_path):
        profiler = self._profiler_with_data()
        ckpt.save_checkpoint(tmp_path, "a", profiler.state_dict(), 1)
        ckpt.save_checkpoint(tmp_path, "b", profiler.state_dict(), 1)
        assert ckpt.list_checkpoints(tmp_path) == ["a", "b"]
        assert ckpt.delete_checkpoint(tmp_path, "a")
        assert not ckpt.delete_checkpoint(tmp_path, "a")
        assert ckpt.list_checkpoints(tmp_path) == ["b"]

    @pytest.mark.parametrize("bad", ["", "../x", "a/b", "a b", ".hidden", "x" * 200])
    def test_session_names_validated(self, bad):
        with pytest.raises(ServiceError, match="invalid session name"):
            ckpt.validate_session_name(bad)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def _start_server(tmp_path, **kwargs) -> ServerThread:
    kwargs.setdefault("checkpoint_dir", tmp_path / "ckpt")
    return ServerThread(ProfilingServer(**kwargs)).start()


class TestEndToEnd:
    def test_streamed_report_bit_identical_to_offline(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                outcome = stream_simulation(
                    client, "run", trace.sites, sim.correct, config,
                    batch_size=997, num_sites=trace.num_sites,
                )
                assert outcome.completed and outcome.events_total == len(trace)
                live = client.query("run")["report"]
                final = client.close_session("run")["report"]
            assert live == offline
            assert final == offline
        finally:
            server.drain()

    def test_query_does_not_disturb_the_stream(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                half = len(trace) // 2 + 17
                client.send_events("run", trace.sites[:half], sim.correct[:half])
                client.query("run")  # mid-stream query must not fold state
                client.send_events("run", trace.sites[half:], sim.correct[half:])
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_crash_and_resume_identical_report(self, tmp_path, stream_data):
        """SIGKILL-equivalent: abort() skips drain, then resume from disk."""
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        with StreamingClient("127.0.0.1", server.port) as client:
            outcome = stream_simulation(
                client, "run", trace.sites, sim.correct, config,
                batch_size=500, stop_after=4000, num_sites=trace.num_sites,
            )
            assert not outcome.completed
            # More events arrive after the checkpoint; the crash loses them.
            client.send_events("run", trace.sites[4000:4800], sim.correct[4000:4800])
        server.abort()

        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                outcome = stream_simulation(
                    client, "run", trace.sites, sim.correct, config,
                    batch_size=800, resume=True, num_sites=trace.num_sites,
                )
                assert outcome.resumed_from == 4000  # checkpoint, not the lost tail
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_graceful_drain_checkpoints_everything(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        with StreamingClient("127.0.0.1", server.port) as client:
            client.open_session("run", trace.num_sites, config)
            client.send_events("run", trace.sites[:5000], sim.correct[:5000])
        server.drain()  # SIGTERM path: checkpoint without an explicit request

        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                reply = client.open_session("run", trace.num_sites, config, resume=True)
                assert reply["resumed"] == "checkpoint" and reply["events"] == 5000
                client.send_events("run", trace.sites[5000:], sim.correct[5000:])
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_concurrent_sessions_are_independent(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        other_sim = simulate(make_predictor("gshare"), trace)
        other_offline = serialize_report(
            profile_trace(trace, simulation=other_sim, config=config)
        )
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as a, \
                 StreamingClient("127.0.0.1", server.port) as b:
                a.open_session("alpha", trace.num_sites, config)
                b.open_session("beta", trace.num_sites, config)
                # Interleave batches from two sessions over two connections.
                for start in range(0, len(trace), 2000):
                    stop = min(start + 2000, len(trace))
                    a.send_events("alpha", trace.sites[start:stop], sim.correct[start:stop])
                    b.send_events("beta", trace.sites[start:stop], other_sim.correct[start:stop])
                assert a.query("alpha")["report"] == offline
                assert b.query("beta")["report"] == other_offline
        finally:
            server.drain()

    def test_unknown_session_id_rejected_not_fatal(self, tmp_path, stream_data):
        trace, _sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                reply = client._request(
                    protocol.encode_events(999, np.array([0]), np.array([1]))
                )
                assert reply["ok"] is False and "unknown session id" in reply["error"]
                assert client.ping()["ok"]  # connection survives
        finally:
            server.drain()

    def test_payload_garbage_gets_error_reply(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                # Hand-craft a frame whose event count disagrees with its length.
                body = struct.pack("!II", 1, 5) + b"\x00" * 4
                frame = struct.pack("!BI", protocol.FRAME_EVENTS, len(body)) + body
                reply = client._request(frame)
                assert reply["ok"] is False and "count" in reply["error"]
                # The same connection keeps working afterwards.
                assert client.ping()["ok"]
                # And real traffic still flows end to end.
                outcome = stream_simulation(
                    client, "run", trace.sites, sim.correct, config,
                    batch_size=3000, num_sites=trace.num_sites,
                )
                assert outcome.completed
                assert client.query("run")["report"] == offline
                assert client.stats()["frames_rejected"] >= 1
                # Open frames whose config fields have the wrong type are
                # refused with a reply, not a dropped connection.
                base = {"op": "open", "session": "bad",
                        "num_sites": trace.num_sites, **config.to_dict()}
                bad_fields = [("std_th", "abc"), ("mean_th", [1]), ("pam_th", None),
                              ("use_fir", "no"), ("slice_size", True)]
                for key, value in bad_fields:
                    rejected = client.stats()["frames_rejected"]
                    reply = client._request(protocol.encode_control({**base, key: value}))
                    assert reply["ok"] is False and key in reply["error"]
                    assert client.stats()["frames_rejected"] == rejected + 1
                    assert client.ping()["ok"]
        finally:
            server.drain()

    def test_corrupt_header_closes_only_that_connection(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        try:
            bad = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            bad.sendall(struct.pack("!BI", 0x7F, 12) + b"x" * 12)
            # Server replies with an error frame and closes this connection...
            time.sleep(0.2)
            bad.close()
            # ...but keeps serving others.
            with StreamingClient("127.0.0.1", server.port) as client:
                assert client.ping()["ok"]
        finally:
            server.drain()

    def test_batch_limit_enforced(self, tmp_path, stream_data):
        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path, limits=ServiceLimits(max_batch_events=100))
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                with pytest.raises(ServiceError, match="exceeds limit"):
                    client.send_events("run", trace.sites[:101], sim.correct[:101])
                # A conforming batch still goes through.
                assert client.send_events("run", trace.sites[:100], sim.correct[:100]) == 100
        finally:
            server.drain()

    def test_session_limit_enforced(self, tmp_path, stream_data):
        trace, _sim, config, _offline = stream_data
        server = _start_server(tmp_path, limits=ServiceLimits(max_sessions=1))
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("one", trace.num_sites, config)
                with pytest.raises(ServiceError, match="session limit"):
                    client.open_session("two", trace.num_sites, config)
        finally:
            server.drain()

    def test_idle_sessions_checkpointed_and_evicted(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path, limits=ServiceLimits(idle_timeout=0.3))
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                client.send_events("run", trace.sites[:6000], sim.correct[:6000])
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.stats()["sessions_evicted"] >= 1:
                        break
                    time.sleep(0.1)
                stats = client.stats()
                assert stats["sessions_evicted"] >= 1
                assert stats["checkpoints_written"] >= 1
                # Eviction checkpointed the state: resume and finish the run.
                reply = client.open_session("run", trace.num_sites, config, resume=True)
                assert reply["resumed"] == "checkpoint" and reply["events"] == 6000
                client.send_events("run", trace.sites[6000:], sim.correct[6000:])
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_stats_frame_counts(self, tmp_path, stream_data):
        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(
                    client, "run", trace.sites, sim.correct, config,
                    batch_size=1000, checkpoint_every=2, num_sites=trace.num_sites,
                )
                client.query("run")
                stats = client.stats()
            assert stats["events_total"] == len(trace)
            assert stats["sessions_opened"] == 1
            assert stats["active_sessions"] == 1
            assert stats["queries_served"] == 1
            assert stats["checkpoints_written"] >= len(trace) // 2000
            assert stats["events_per_second"] > 0
            assert stats["sessions"] == {"run": len(trace)}
        finally:
            server.drain()

    def test_reattach_in_memory_after_reconnect(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                client.send_events("run", trace.sites[:3000], sim.correct[:3000])
            # New connection, same server process: live state reattaches.
            with StreamingClient("127.0.0.1", server.port) as client:
                reply = client.open_session("run", trace.num_sites, config)
                assert reply["resumed"] == "memory" and reply["events"] == 3000
                client.send_events("run", trace.sites[3000:], sim.correct[3000:])
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_reattach_with_other_config_rejected(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                client.send_events("run", trace.sites[:3000], sim.correct[:3000])
            with StreamingClient("127.0.0.1", server.port) as client:
                other = dataclasses.replace(
                    config, thresholds=TestThresholds(std_th=0.08))
                with pytest.raises(ServiceError, match="std_th"):
                    client.open_session("run", trace.num_sites, other)
                # The live session is untouched and still reattaches.
                reply = client.open_session("run", trace.num_sites, config)
                assert reply["resumed"] == "memory" and reply["events"] == 3000
                client.send_events("run", trace.sites[3000:], sim.correct[3000:])
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_resume_with_other_config_rejected(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        server = _start_server(tmp_path)
        with StreamingClient("127.0.0.1", server.port) as client:
            client.open_session("run", trace.num_sites, config)
            client.send_events("run", trace.sites[:5000], sim.correct[:5000])
        server.drain()

        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                other = dataclasses.replace(config, pam_exact=True)
                with pytest.raises(ServiceError, match="pam_exact"):
                    client.open_session("run", trace.num_sites, other, resume=True)
                assert client.stats()["active_sessions"] == 0
                # The checkpoint survives the refusal.
                reply = client.open_session("run", trace.num_sites, config, resume=True)
                assert reply["resumed"] == "checkpoint" and reply["events"] == 5000
                client.send_events("run", trace.sites[5000:], sim.correct[5000:])
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    @pytest.mark.parametrize("pam_exact", [False, True], ids=["running-mean", "pam-exact"])
    def test_ablation_config_streams_bit_identical(self, tmp_path, stream_data, pam_exact):
        """The whole config reaches the server: straight and across a
        checkpoint, an abort and a resume, the report equals offline."""
        trace, sim, base, _offline = stream_data
        config = dataclasses.replace(base, pam_exact=pam_exact)
        offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
        server = _start_server(tmp_path)
        with StreamingClient("127.0.0.1", server.port) as client:
            stream_simulation(client, "straight", trace.sites, sim.correct, config,
                              batch_size=997, num_sites=trace.num_sites)
            assert client.close_session("straight")["report"] == offline
            outcome = stream_simulation(
                client, "run", trace.sites, sim.correct, config,
                batch_size=500, stop_after=4000, num_sites=trace.num_sites,
            )
            assert not outcome.completed
        server.abort()

        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                outcome = stream_simulation(
                    client, "run", trace.sites, sim.correct, config,
                    batch_size=800, resume=True, num_sites=trace.num_sites,
                )
                assert outcome.resumed_from == 4000
                assert client.query("run")["report"] == offline
        finally:
            server.drain()

    def test_open_num_sites_mismatch_rejected(self, tmp_path, stream_data):
        trace, _sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                with pytest.raises(ServiceError, match="num_sites"):
                    client.open_session("run", trace.num_sites + 5, config)
        finally:
            server.drain()

    def test_event_site_out_of_range_rejected(self, tmp_path, stream_data):
        trace, _sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                with pytest.raises(ServiceError, match="beyond num_sites"):
                    client.send_events(
                        "run", np.array([trace.num_sites + 3]), np.array([1])
                    )
                assert client.stats()["frames_rejected"] == 1
        finally:
            server.drain()


# ----------------------------------------------------------------------
# Warehouse finalization on close
# ----------------------------------------------------------------------


class TestWarehouseFinalize:
    def _keep_series(self, config):
        import dataclasses

        return dataclasses.replace(config, keep_series=True)

    def test_close_ingests_tagged_session(self, tmp_path, stream_data):
        from repro.store import ProfileWarehouse

        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(
                    client, "run", trace.sites, sim.correct,
                    self._keep_series(config), num_sites=trace.num_sites,
                    meta={"workload": "synthetic", "input": "train",
                          "predictor": "bimodal", "scale": 1.0},
                )
                reply = client.close_session("run")
            run_id = reply["warehouse_run"]
            assert run_id is not None
        finally:
            server.drain()
        warehouse = ProfileWarehouse(tmp_path / "wh", create=False)
        record = warehouse.manifest().runs[run_id]
        assert (record.workload, record.input, record.predictor) == (
            "synthetic", "train", "bimodal")
        assert record.source == "service" and not record.has_counts
        # The stored matrix classifies exactly like the live session did.
        from repro.store import reclassify

        run = warehouse.open_run(run_id)
        clone = profile_trace(trace, simulation=sim, config=self._keep_series(config))
        assert reclassify(run)["input_dependent"] == sorted(
            clone.input_dependent_sites())

    def test_close_without_series_skips_ingest(self, tmp_path, stream_data):
        from repro.store import ProfileWarehouse

        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(client, "run", trace.sites, sim.correct,
                                  config, num_sites=trace.num_sites)
                reply = client.close_session("run")
            assert reply["warehouse_run"] is None
        finally:
            server.drain()
        assert ProfileWarehouse(tmp_path / "wh").runs() == []

    def test_close_without_warehouse_unchanged(self, tmp_path, stream_data):
        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(client, "run", trace.sites, sim.correct,
                                  self._keep_series(config),
                                  num_sites=trace.num_sites)
                assert client.close_session("run")["warehouse_run"] is None
        finally:
            server.drain()

    def test_failed_ingest_counts_as_warehouse_failure(self, tmp_path, stream_data,
                                                       monkeypatch):
        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")

        def full_disk(runs, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(server.server.warehouse, "ingest", full_disk)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(client, "run", trace.sites, sim.correct,
                                  self._keep_series(config),
                                  num_sites=trace.num_sites)
                rejected = client.stats()["frames_rejected"]
                reply = client.close_session("run")
                assert reply["ok"] and reply["warehouse_run"] is None
                stats = client.stats()
            # The close frame was accepted: it is not a rejected frame.
            assert stats["frames_rejected"] == rejected
            assert stats["warehouse_failures"] == 1
            assert stats["runs_ingested"] == 0
        finally:
            server.drain()

    def test_bad_meta_rejected_at_open(self, tmp_path, stream_data):
        trace, _sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError, match="meta"):
                    client.open_session("run", trace.num_sites, config,
                                        meta={"workload": ["not", "scalar"]})
        finally:
            server.drain()

    def test_bad_scale_rejected_at_open(self, tmp_path, stream_data):
        """``meta.scale`` becomes the stored run's float scale at close, so
        an open whose scale is not a finite positive number is refused
        there; the close could not store it, nor even finish."""
        trace, sim, config, _offline = stream_data
        bad = ["abc", True, 0, -1.5, float("nan"), float("inf"), 10 ** 400]
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                for scale in bad:
                    with pytest.raises(ServiceError, match="scale"):
                        client.open_session("run", trace.num_sites, config,
                                            meta={"scale": scale})
                stats = client.stats()
                assert (stats["frames_rejected"], stats["active_sessions"]) == (len(bad), 0)
                stream_simulation(client, "run", trace.sites, sim.correct,
                                  self._keep_series(config), num_sites=trace.num_sites,
                                  meta={"scale": 2})
                assert client.close_session("run")["warehouse_run"] == "r000001"
                assert client.stats()["sessions_closed"] == 1
        finally:
            server.drain()

    def test_close_io_spans_and_logs_carry_the_close_frames_trace(
            self, tmp_path, stream_data):
        """The close's ingest runs in a worker thread and its log records
        are written after that await; both belong to the close frame."""
        from repro.obs import get_tracer
        from repro.obs.logs import JsonLineFormatter

        trace, sim, config, _offline = stream_data
        tracer = get_tracer()
        tracer.clear()
        tracer.configure(enabled=True)
        logger = logging.getLogger("repro.service.server")
        level = logger.level
        lines = io.StringIO()
        handler = logging.StreamHandler(lines)
        handler.setFormatter(JsonLineFormatter())
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
            try:
                with StreamingClient("127.0.0.1", server.port) as client:
                    stream_simulation(client, "run", trace.sites, sim.correct,
                                      self._keep_series(config),
                                      num_sites=trace.num_sites)
                    assert client.close_session("run")["warehouse_run"] == "r000001"
            finally:
                server.drain()
            events = tracer.events()
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
            tracer.configure(enabled=False)
            tracer.clear()
        close = [e for e in events if e["name"] == "service.frame"][-1]
        [ingest] = [e for e in events if e["name"] == "store.ingest"]
        assert "parent" not in close["args"]
        assert ingest["args"]["parent"] == "service.frame"
        assert ingest["args"]["trace_id"] == close["args"]["trace_id"]
        assert ingest["tid"] != close["tid"]  # a worker thread
        records = [json.loads(line) for line in lines.getvalue().splitlines()]
        [closed] = [r for r in records if r.get("event") == "session_closed"]
        assert closed["trace_id"] == close["args"]["trace_id"]



# ----------------------------------------------------------------------
# Durable I/O off the event loop
# ----------------------------------------------------------------------


def _gate_ingest(server: ServerThread, monkeypatch) -> tuple[threading.Event, threading.Event]:
    """Make the server's warehouse ingest block until ``release`` is set;
    ``entered`` is set once an ingest is blocked.  Returns (entered, release)."""
    warehouse = server.server.warehouse
    real = warehouse.ingest
    entered, release = threading.Event(), threading.Event()

    def gated(runs, **kwargs):
        entered.set()
        assert release.wait(timeout=60), "the test never released the ingest"
        return real(runs, **kwargs)

    monkeypatch.setattr(warehouse, "ingest", gated)
    return entered, release


def _wait_for_frames(server: ServerThread, count: int) -> None:
    """Block until the server has received ``count`` frames in all."""
    frames = server.server.metrics.frames_total
    deadline = time.monotonic() + 60
    while frames.value < count:
        assert time.monotonic() < deadline, "the frame never reached the server"
        time.sleep(0.005)


class TestDurableIOOffTheLoop:
    """Checkpoints and the close-time ingest run in worker threads."""

    def test_frames_flow_while_another_sessions_ingest_blocks(
            self, tmp_path, stream_data, monkeypatch):
        """Session A's close blocks inside its ingest while session B streams
        frames and checkpoints.  On the loop, B's first frame would wait for
        A's ingest, and B's client would time out."""
        trace, sim, config, _offline = stream_data
        keep = dataclasses.replace(config, keep_series=True)
        expected = serialize_report(profile_trace(trace, simulation=sim, config=keep))
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
        entered, release = _gate_ingest(server, monkeypatch)
        closed: dict = {}
        try:
            with StreamingClient("127.0.0.1", server.port) as a, \
                 StreamingClient("127.0.0.1", server.port) as b:
                stream_simulation(a, "A", trace.sites, sim.correct, keep,
                                  num_sites=trace.num_sites)
                closer = threading.Thread(
                    target=lambda: closed.update(a.close_session("A")))
                closer.start()
                assert entered.wait(timeout=60)

                b.open_session("B", trace.num_sites, config)
                for k in range(8):
                    batch = slice(1000 * k, 1000 * (k + 1))
                    assert b.send_events("B", trace.sites[batch],
                                         sim.correct[batch]) == 1000 * (k + 1)
                assert b.checkpoint("B")["events"] == 8000
                assert closer.is_alive()  # A's reply still waits for its ingest
                release.set()
                closer.join(timeout=60)
            assert closed["warehouse_run"] == "r000001"
            assert closed["report"] == expected
        finally:
            release.set()
            server.drain()

    def test_reopened_session_waits_for_the_close_before_it(
            self, tmp_path, stream_data, monkeypatch):
        """Close S, then at once re-open (resume) and checkpoint S from
        another connection: the open waits for the close's I/O, so it
        starts fresh instead of resuming the checkpoint the close removes,
        and the new checkpoint survives the close."""
        trace, sim, config, _offline = stream_data
        keep = dataclasses.replace(config, keep_series=True)
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
        entered, release = _gate_ingest(server, monkeypatch)
        replies: dict = {}
        try:
            with StreamingClient("127.0.0.1", server.port) as a, \
                 StreamingClient("127.0.0.1", server.port) as b:
                stream_simulation(a, "S", trace.sites, sim.correct, keep,
                                  num_sites=trace.num_sites)
                a.checkpoint("S")  # the close removes this one
                closer = threading.Thread(
                    target=lambda: replies.update(close=a.close_session("S")))
                closer.start()
                assert entered.wait(timeout=60)

                def reopen() -> None:
                    replies["open"] = b.open_session("S", trace.num_sites, keep,
                                                     resume=True)
                    b.send_events("S", trace.sites[:3000], sim.correct[:3000])
                    replies["checkpoint"] = b.checkpoint("S")

                frames = server.server.metrics.frames_total.value
                opener = threading.Thread(target=reopen)
                opener.start()
                _wait_for_frames(server, frames + 1)  # the open is in
                assert opener.is_alive() and "open" not in replies
                release.set()
                closer.join(timeout=60)
                opener.join(timeout=60)
            assert replies["close"]["warehouse_run"] == "r000001"
            assert (replies["open"]["resumed"], replies["open"]["events"]) == (None, 0)
            assert replies["checkpoint"]["events"] == 3000
            restored = ckpt.load_checkpoint(tmp_path / "ckpt", "S")
            assert restored is not None and restored[1] == 3000
        finally:
            release.set()
            server.drain()

    def test_drain_waits_for_in_flight_closes(self, tmp_path, stream_data, monkeypatch):
        """A drain that starts while a close is ingesting lets the close
        finish and reply before the server shuts its connections."""
        trace, sim, config, _offline = stream_data
        keep = dataclasses.replace(config, keep_series=True)
        server = _start_server(tmp_path, warehouse_dir=tmp_path / "wh")
        entered, release = _gate_ingest(server, monkeypatch)
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(client, "run", trace.sites, sim.correct, keep,
                                  num_sites=trace.num_sites)
                client._sock.sendall(protocol.encode_control({"op": "close",
                                                              "session": "run"}))
                assert entered.wait(timeout=60)
                drainer = threading.Thread(target=server.drain)
                drainer.start()
                deadline = time.monotonic() + 60
                while not server.server._draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                release.set()
                frame_type, payload = protocol.read_frame_blocking(client._recv_exact)
                reply = protocol.decode_control(payload)
                drainer.join(timeout=60)
            assert reply["ok"] and reply["warehouse_run"] == "r000001"
            assert not server.is_alive()
        finally:
            release.set()
            server.drain()


# ----------------------------------------------------------------------
# Drain / eviction observability (fleet satellite)
# ----------------------------------------------------------------------


class TestLifecycleObservability:
    def test_drain_observes_duration_histogram(self, tmp_path, stream_data):
        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path)
        with StreamingClient("127.0.0.1", server.port) as client:
            client.open_session("run", trace.num_sites, config)
            client.send_events("run", trace.sites[:3000], sim.correct[:3000])
            before = client.stats()
            assert before["drain"] == {"count": 0, "sum_seconds": 0.0}
        server.drain()
        metrics = server.server.metrics
        assert metrics.drain_seconds.count == 1
        assert metrics.drain_seconds.sum >= 0.0
        # The registry carries it too (what the router scrapes).
        assert "service_drain_seconds" in metrics.registry.snapshot()

    def test_drain_and_evict_emit_spans(self, tmp_path, stream_data):
        from repro.obs import get_tracer

        trace, sim, config, _offline = stream_data
        tracer = get_tracer()
        tracer.clear()
        tracer.configure(enabled=True)
        try:
            server = _start_server(
                tmp_path, shard_name="s9",
                limits=ServiceLimits(idle_timeout=0.2))
            with StreamingClient("127.0.0.1", server.port) as client:
                client.open_session("run", trace.num_sites, config)
                client.send_events("run", trace.sites[:3000], sim.correct[:3000])
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.stats()["sessions_evicted"] >= 1:
                        break
                    time.sleep(0.05)
                assert client.stats()["sessions_evicted"] >= 1
                client.open_session("run", trace.num_sites, config, resume=True)
            server.drain()
            spans = {e["name"]: e for e in tracer.events() if e.get("ph") == "X"}
            evict = spans["service.evict"]
            assert evict["args"]["session"] == "run"
            assert evict["args"]["checkpointed"] is True
            drain = spans["service.drain"]
            assert drain["args"]["shard"] == "s9"
            assert drain["args"]["sessions"] == 1  # the resumed session
            assert drain["args"]["checkpoints"] == 1
        finally:
            tracer.configure(enabled=False)
            tracer.clear()

    def test_metrics_op_returns_registry_snapshot_with_shard(self, tmp_path, stream_data):
        trace, sim, config, _offline = stream_data
        server = _start_server(tmp_path, shard_name="s3")
        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                stream_simulation(client, "run", trace.sites, sim.correct,
                                  config, num_sites=trace.num_sites)
                reply = client.metrics()
            assert reply["shard"] == "s3"
            assert reply["sessions"] == {"run": len(trace)}
            snapshot = reply["snapshot"]
            assert snapshot["service_events_total"]["value"] == len(trace)
            assert snapshot["service_frame_latency_seconds"]["count"] > 0
        finally:
            server.drain()
