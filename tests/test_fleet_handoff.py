"""Chaos tests for the fleet: real processes, real SIGKILL.

These spawn actual ``repro-2dprof serve`` shard subprocesses through
:class:`~repro.fleet.harness.FleetHarness` and exercise the acceptance
contract end to end:

* **kill -9 handoff** — SIGKILL the shard that owns a mid-stream
  session, resume *through the router*, land on a different shard, and
  produce a report bit-identical to offline ``profile_trace`` over the
  unbroken stream;
* **rolling restart** — drain-and-replace every shard one at a time
  while sessions are parked; every one of them resumes exactly;
* **loadgen under failover** — concurrent multiplexed streams survive a
  shard kill via retriable errors + resume, with zero verify failures;
* **``fleet serve``** — the CLI command as a subprocess: fleet stats and
  status through it, ``fleet drain`` stops it, shard traces are merged.

All ``slow``-marked (seconds each): deselect with ``-m 'not slow'``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.core.profiler2d import ProfilerConfig, profile_trace
from repro.fleet import FleetHarness
from repro.fleet.loadgen import AsyncStreamClient, run_loadgen
from repro.obs import get_tracer
from repro.predictors import make_predictor, simulate
from repro.service.client import stream_simulation
from repro.service.protocol import serialize_report
from repro.service.server import ProfilingServer, ServerThread
from repro.trace.synthetic import phased_trace

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def stream_data():
    trace, _stationary, _phased = phased_trace(6, 3, 12_000, seed=7)
    sim = simulate(make_predictor("bimodal"), trace)
    config = ProfilerConfig().resolve(total_branches=len(trace))
    offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
    return trace, sim, config, offline


class TestKillNineHandoff:
    def test_kill9_resume_on_different_shard_bit_identical(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        with FleetHarness(tmp_path / "fleet", num_shards=3) as fleet:
            with fleet.client() as client:
                outcome = stream_simulation(
                    client, "victim", trace.sites, sim.correct, config,
                    batch_size=1000, stop_after=5000, num_sites=trace.num_sites)
                assert not outcome.completed  # checkpointed at 5000
            owner = fleet.owner_of("victim")
            assert owner is not None
            fleet.kill_shard(owner)  # SIGKILL: no drain, no warning

            with fleet.client() as client:
                outcome = stream_simulation(
                    client, "victim", trace.sites, sim.correct, config,
                    batch_size=1000, resume=True, num_sites=trace.num_sites)
                assert outcome.resumed_from == 5000  # nothing past the checkpoint lost
                assert outcome.completed
                new_owner = fleet.owner_of("victim")
                assert new_owner is not None and new_owner != owner
                assert client.query("victim")["report"] == offline
                client.close_session("victim")

    def test_killed_shard_can_be_revived_and_serves_again(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        with FleetHarness(tmp_path / "fleet", num_shards=2) as fleet:
            with fleet.client() as client:
                stream_simulation(client, "run-a", trace.sites, sim.correct,
                                  config, num_sites=trace.num_sites)
                owner = fleet.owner_of("run-a")
            fleet.kill_shard(owner)
            assert fleet.restart_dead() == [owner]
            # The revived shard (same name, new port) serves new sessions.
            with fleet.client() as client:
                status = client.control({"op": "fleet_status"})
                assert all(s["alive"] for s in status["shards"])
                stream_simulation(client, "run-b", trace.sites, sim.correct,
                                  config, num_sites=trace.num_sites)
                assert client.query("run-b")["report"] == offline


class TestRollingRestart:
    def test_rolling_restart_loses_no_session(self, tmp_path, stream_data):
        trace, sim, config, offline = stream_data
        sessions = [f"park-{i}" for i in range(4)]
        with FleetHarness(tmp_path / "fleet", num_shards=3) as fleet:
            with fleet.client() as client:
                for name in sessions:
                    outcome = stream_simulation(
                        client, name, trace.sites, sim.correct, config,
                        batch_size=1000, stop_after=4000,
                        num_sites=trace.num_sites)
                    assert not outcome.completed

            # Drain-and-replace every shard; SIGTERM checkpoints sessions.
            replaced = fleet.rolling_restart()
            assert replaced == ["s0", "s1", "s2"]

            with fleet.client() as client:
                for name in sessions:
                    outcome = stream_simulation(
                        client, name, trace.sites, sim.correct, config,
                        batch_size=1000, resume=True, num_sites=trace.num_sites)
                    assert outcome.resumed_from >= 4000
                    assert client.query(name)["report"] == offline

    def test_merged_trace_keeps_every_shard_generation(self, tmp_path, stream_data):
        trace, sim, config, _offline = stream_data
        tracer = get_tracer()
        tracer.clear()
        try:
            with FleetHarness(tmp_path / "fleet", num_shards=1,
                              trace_dir=tmp_path / "traces") as fleet:
                pids = []
                for name in ("before", "after"):
                    if pids:
                        fleet.rolling_restart()
                    pids.append(fleet.supervisor.processes["s0"].pid)
                    with fleet.client() as client:
                        stream_simulation(client, name, trace.sites, sim.correct,
                                          config, num_sites=trace.num_sites)
            frame_pids = {e["pid"] for e in tracer.events()
                          if e.get("name") == "service.frame"}
        finally:
            tracer.clear()
        assert pids[0] != pids[1]
        assert set(pids) <= frame_pids


class TestLoadgenClient:
    def test_close_releases_the_socket(self, no_leaked_files):
        """``close()`` returns only once the socket is closed, so nothing is
        left for the garbage collector to find unclosed."""
        server = ServerThread(ProfilingServer()).start()
        try:
            async def _connect_and_close() -> int:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                assert (await client.control({"op": "ping"}))["ok"]
                sock = client._writer.get_extra_info("socket")
                await client.close()
                return sock.fileno()

            with no_leaked_files():
                assert asyncio.run(_connect_and_close()) == -1
        finally:
            server.drain()


class TestLoadgenFailover:
    def test_loadgen_survives_shard_kill_with_exact_verify(self, tmp_path):
        import threading
        import time

        with FleetHarness(tmp_path / "fleet", num_shards=3) as fleet:
            box: dict = {}

            def _drive() -> None:
                box["result"] = run_loadgen(
                    fleet.host, fleet.port, streams=60, connections=8,
                    events=6000, batch=250, verify_sample=20, prefix="chaos")

            driver = threading.Thread(target=_drive)
            driver.start()
            # Kill the moment the victim shard owns an *open* session, so
            # the loss is guaranteed to land mid-run, not after it.
            registry = fleet.router.registry
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if any(e["shard"] == "s1" for e in registry.entries().values()):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("no session ever landed on shard s1")
            fleet.kill_shard("s1")
            driver.join(timeout=120)
            assert not driver.is_alive()

            result = box["result"]
            assert result.failed_streams == 0
            assert result.verify_failures == 0
            assert result.events_total == 60 * 6000
            # The kill must actually have been noticed by somebody.
            assert result.retries > 0


class TestFleetServeCommand:
    def test_serve_status_drain_and_merged_trace(self, tmp_path, capsys, no_leaked_files):
        """``fleet serve`` end to end: one subprocess, router + 2 shards."""
        repo_root = Path(__file__).resolve().parents[1]
        trace_path = tmp_path / "fleet-trace.json"
        # Every client this process opens (the stats, status and drain
        # commands) must close its socket before the block ends.
        with no_leaked_files():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "fleet", "serve", "--port", "0",
                 "--shards", "2", "--fleet-dir", str(tmp_path / "fleet"),
                 "--trace", str(trace_path)],
                stdout=subprocess.PIPE, text=True, cwd=repo_root,
                env=dict(os.environ, PYTHONPATH=str(repo_root / "src"),
                         REPRO_2DPROF_CACHE=str(tmp_path / "cache")))
            try:
                line = proc.stdout.readline()
                match = re.match(r"fleet listening on \S+:(\d+) ", line)
                assert match, f"unexpected first line: {line!r}"
                port = match.group(1)

                assert cli.main(["stats", "--port", port, "--json"]) == 0
                stats = json.loads(capsys.readouterr().out)
                assert sorted(stats["shards"]) == ["s0", "s1"]

                assert cli.main(["fleet", "status", "--port", port, "--json"]) == 0
                status = json.loads(capsys.readouterr().out)
                assert [s["alive"] for s in status["shards"]] == [True, True]

                assert cli.main(["fleet", "drain", "--port", port]) == 0
                assert proc.wait(timeout=60) == 0
            finally:
                if proc.poll() is None:
                    proc.terminate()  # graceful: stops the shards too
                    proc.wait(timeout=60)
                proc.stdout.close()

        # The router's spans plus each shard's, merged into one file.
        events = json.loads(trace_path.read_text())["traceEvents"]
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert len(pids) >= 3, pids
