"""Concurrent multi-writer warehouse tests (the fleet ingest path).

N shard servers finalize closed sessions into **one** warehouse
directory.  The warehouse's two-phase commit (segment files fsynced
first, manifest committed atomically under an flock) was built for this;
here it is proven under real concurrency at both layers:

* raw: N subprocesses ingest simultaneously into one root — every run
  committed, manifest consistent, ``check()`` clean; threads sharing one
  instance lose no commit; a compaction racing an uncommitted ingest
  leaves that ingest's segment alone;
* service: N in-process shard servers close keep-series sessions in
  parallel threads into one shared warehouse — every close returns a run
  id and every run is readable afterwards.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.profiler2d import ProfilerConfig, TwoDProfiler
from repro.service.client import StreamingClient, stream_simulation
from repro.service.server import ProfilingServer, ServerThread
from repro.store import IngestRun, ProfileWarehouse, SegmentBuilder

REPO_ROOT = Path(__file__).resolve().parents[1]

_INGEST_SCRIPT = """
import sys
import numpy as np
from repro.core.profiler2d import ProfilerConfig, TwoDProfiler
from repro.store import IngestRun, ProfileWarehouse

root, worker, runs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
warehouse = ProfileWarehouse(root)
config = ProfilerConfig(slice_size=64, keep_series=True)
for i in range(runs):
    rng = np.random.default_rng(1000 * worker + i)
    profiler = TwoDProfiler(12, config)
    profiler.record_batch(rng.integers(0, 12, 4000), rng.integers(0, 2, 4000))
    warehouse.ingest([IngestRun(profiler.finish(), f"w{worker}", f"i{i}",
                                "synthetic", source="test")])
print("done", worker)
"""


def _keep_series_report(seed: int):
    rng = np.random.default_rng(seed)
    profiler = TwoDProfiler(12, ProfilerConfig(slice_size=64, keep_series=True))
    profiler.record_batch(rng.integers(0, 12, 4000), rng.integers(0, 2, 4000))
    return profiler.finish()


class TestConcurrentIngest:
    @pytest.mark.slow
    def test_parallel_processes_share_one_warehouse(self, tmp_path):
        """4 writer processes x 5 runs each -> 20 committed, 0 corrupt."""
        root = tmp_path / "wh"
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", _INGEST_SCRIPT, str(root), str(w), "5"],
                env=dict(os.environ, PYTHONPATH="src"),
                cwd=REPO_ROOT,
            )
            for w in range(4)
        ]
        for worker in workers:
            assert worker.wait(timeout=120) == 0

        warehouse = ProfileWarehouse(root)
        assert warehouse.check() == []
        stats = warehouse.stats()
        assert stats["runs"] == 20
        assert stats["corrupt_runs"] == 0
        # Every run is readable, not just present in the manifest.
        for record in warehouse.runs():
            assert warehouse.open_run(record.run_id).profiled_sites() is not None

    def test_threaded_ingest_single_process(self, tmp_path):
        """Thread-level concurrency on one warehouse object's root."""
        root = tmp_path / "wh"
        errors: list = []

        def _writer(worker: int) -> None:
            try:
                warehouse = ProfileWarehouse(root)
                for i in range(4):
                    warehouse.ingest([IngestRun(
                        _keep_series_report(100 * worker + i),
                        f"w{worker}", f"i{i}", "synthetic", source="test")])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=_writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        warehouse = ProfileWarehouse(root)
        assert warehouse.check() == []
        assert warehouse.stats()["runs"] == 16

    def test_shared_instance_threads_lose_no_commit(self, tmp_path):
        """Threads share instances, as shard servers do: no commit is lost
        and no reader sees its image change under it.  Readers use both
        the writers' instance and a second one over the same root, which
        must apply the writers' log records as they land."""
        warehouse = ProfileWarehouse(tmp_path / "wh")
        other = ProfileWarehouse(tmp_path / "wh")
        reports = [_keep_series_report(seed) for seed in range(4)]
        errors: list = []
        done = threading.Event()

        def _writer(worker: int) -> None:
            try:
                for i in range(6):
                    warehouse.ingest([IngestRun(reports[worker], f"w{worker}", f"i{i}",
                                                "synthetic", source="test")])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def _reader(instance: ProfileWarehouse) -> None:
            try:
                seen = 0
                while not done.is_set():
                    image = instance.manifest()
                    runs = list(image.runs)
                    if len(runs) < seen or runs != sorted(runs):
                        raise AssertionError(f"image went back or out of order: {runs}")
                    seen = len(runs)
                    if any(image.segments.get(rec.segment) is None
                           for rec in image.runs.values()):
                        raise AssertionError("a run references a missing segment")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        writers = [threading.Thread(target=_writer, args=(w,)) for w in range(4)]
        readers = [threading.Thread(target=_reader, args=(instance,))
                   for instance in (warehouse, other, other)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            for thread in readers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert errors == []
        expected = [f"r{n:06d}" for n in range(1, 25)]
        assert list(warehouse.manifest().runs) == expected
        assert list(other.manifest().runs) == expected
        fresh = ProfileWarehouse(tmp_path / "wh")
        assert [rec.run_id for rec in fresh.runs()] == expected
        assert fresh.check() == []

    def test_compaction_keeps_a_concurrent_ingests_segment(self, tmp_path, monkeypatch):
        """A compaction that commits while another writer's segment is
        written but not yet committed must leave that segment alone."""
        root = tmp_path / "wh"
        ProfileWarehouse(root).ingest([
            IngestRun(_keep_series_report(seed), f"w{seed}", "live", "synthetic",
                      source="test") for seed in range(2)])
        real_write = SegmentBuilder.write
        compactions = []

        def write_then_compact(builder, directory):
            sizes = real_write(builder, directory)
            if not compactions:
                compactions.append(None)  # compact's own write must not recurse
                compactions[0] = ProfileWarehouse(root).compact()
            return sizes

        monkeypatch.setattr(SegmentBuilder, "write", write_then_compact)
        [run_id] = ProfileWarehouse(root).ingest([IngestRun(
            _keep_series_report(2), "w2", "live", "synthetic", source="test")])
        monkeypatch.undo()

        assert run_id == "r000003"
        assert compactions[0].runs_rewritten == 2
        warehouse = ProfileWarehouse(root)
        assert warehouse.check() == []
        assert warehouse.open_run(run_id).profiled_sites()

    def test_shard_servers_finalize_into_shared_warehouse(self, tmp_path):
        """3 shard servers, concurrent keep-series closes, one warehouse."""
        warehouse_dir = tmp_path / "wh"
        shards = [
            ServerThread(ProfilingServer(checkpoint_dir=tmp_path / "ckpt",
                                         warehouse_dir=warehouse_dir,
                                         shard_name=f"s{i}")).start()
            for i in range(3)
        ]
        config = dataclasses.replace(
            ProfilerConfig(slice_size=64), keep_series=True)
        run_ids: list = []
        errors: list = []
        lock = threading.Lock()

        def _drive(shard_idx: int, stream_idx: int) -> None:
            try:
                rng = np.random.default_rng(10 * shard_idx + stream_idx)
                sites = rng.integers(0, 12, 4000).astype(np.int64)
                correct = rng.integers(0, 2, 4000).astype(np.int64)
                name = f"sess-{shard_idx}-{stream_idx}"
                with StreamingClient("127.0.0.1", shards[shard_idx].port) as client:
                    stream_simulation(client, name, sites, correct, config,
                                      num_sites=12,
                                      meta={"workload": name, "input": "live",
                                            "predictor": "synthetic"})
                    reply = client.close_session(name)
                run_id = reply["warehouse_run"]
                assert run_id is not None
                with lock:
                    run_ids.append(run_id)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=_drive, args=(s, i))
                for s in range(3) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            for shard in shards:
                shard.drain()

        assert errors == []
        assert len(run_ids) == 9 and len(set(run_ids)) == 9
        warehouse = ProfileWarehouse(warehouse_dir)
        assert warehouse.check() == []
        assert warehouse.stats()["runs"] == 9
        workloads = {rec.workload for rec in warehouse.runs()}
        assert len(workloads) == 9  # one per closed session, none clobbered
