"""Crash-safety tests for the profile warehouse.

Mirrors ``tests/test_cachefs.py``: the warehouse inherits the cache's
discipline — atomic publication, corruption-as-miss — and adds a two-phase
commit (segment files first, manifest second).  Covered here:

* truncated / garbage segment files behind a *committed* run surface as
  :class:`~repro.errors.StoreError` on open and as a miss in ``find``,
  never as wrong data;
* a real ``SIGKILL`` landing exactly between segment publication and the
  manifest commit, or halfway through the commit's log record, leaves
  the store openable with every run of the interrupted batch absent, its
  one segment unreferenced garbage that ``gc`` sweeps, and a retried
  ingest succeeding (and truncating the torn record);
* a ``SIGKILL`` between a fold's snapshot publication and its log reset
  changes no answer: the stale log is ignored, then replaced;
* injected ENOSPC, EIO and short writes on the manifest files fail the
  ingest with no run visible, and the next commit after the fault
  succeeds; the streaming service still closes the session;
* external damage to the manifest itself (snapshot or log) raises loudly
  instead of being silently treated as an empty store (which would
  orphan data);
* compaction moves a stored population's runs without changing its
  report.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.cachefs as cachefs
import repro.store.manifest as manifest_mod
from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.core.profiler2d import ProfilerConfig, TwoDProfiler
from repro.errors import StoreError
from repro.service.client import StreamingClient, stream_simulation
from repro.service.protocol import serialize_report
from repro.service.server import ProfilingServer, ServerThread
from repro.store import IngestRun, ProfileWarehouse

SCALE = 0.05
WORKLOAD = "gzipish"
KEEP = ProfilerConfig(keep_series=True)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return ExperimentRunner(SuiteConfig(scale=SCALE, cache_dir=cache))


@pytest.fixture()
def stocked(tmp_path, runner):
    warehouse = ProfileWarehouse(tmp_path / "wh")
    report = runner.profile_2d(WORKLOAD, "gshare", config=KEEP)
    sim = runner.simulation(WORKLOAD, "train", "gshare")
    [run_id] = warehouse.ingest([IngestRun(report, WORKLOAD, "train", "gshare",
                                           scale=SCALE, sim=sim)])
    return warehouse, run_id, report, sim


def _segment_file(warehouse: ProfileWarehouse, run_id: str, key: str) -> Path:
    record = warehouse.manifest().runs[run_id]
    return warehouse.segments_root / record.segment / f"{key}.npy"


# ----------------------------------------------------------------------
# Damaged segment files behind a committed run
# ----------------------------------------------------------------------


class TestSegmentCorruption:
    @pytest.mark.parametrize("key", ["acc", "indptr", "exec"])
    def test_truncated_segment_file_fails_validation(self, stocked, key):
        warehouse, run_id, _report, _sim = stocked
        path = _segment_file(warehouse, run_id, key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(StoreError, match="bytes"):
            warehouse.open_run(run_id)
        assert warehouse.check() == [run_id]

    def test_missing_segment_file_fails_validation(self, stocked):
        warehouse, run_id, _report, _sim = stocked
        _segment_file(warehouse, run_id, "slice").unlink()
        with pytest.raises(StoreError, match="missing"):
            warehouse.open_run(run_id)

    def test_garbage_segment_file_fails_on_read(self, stocked):
        """Same-size garbage passes the cheap size check but is refused at
        map time — the query layer never trusts undecodable bytes."""
        warehouse, run_id, _report, _sim = stocked
        path = _segment_file(warehouse, run_id, "acc")
        path.write_bytes(b"\xff" * path.stat().st_size)
        run = warehouse.open_run(run_id)  # the cheap size check still passes
        site = min(run.profiled_sites())  # reads only the (intact) index
        with pytest.raises(StoreError, match="cannot map|dtype"):
            run.site_series(site)

    def test_find_treats_corrupt_run_as_miss(self, stocked, caplog):
        warehouse, run_id, report, sim = stocked
        path = _segment_file(warehouse, run_id, "acc")
        path.write_bytes(path.read_bytes()[:8])
        with caplog.at_level("WARNING", logger="repro.store.warehouse"):
            assert warehouse.find(WORKLOAD, "train", "gshare") is None
        assert any("unreadable" in rec.message for rec in caplog.records)
        # Re-ingest goes through (dedupe misses the corrupt copy) and the
        # store is healthy again under the same key.
        [fresh] = warehouse.ingest([IngestRun(report, WORKLOAD, "train", "gshare",
                                              scale=SCALE, sim=sim)])
        assert fresh != run_id
        found = warehouse.find(WORKLOAD, "train", "gshare")
        assert found is not None and found.run_id == fresh

    def test_corrupt_manifest_raises_not_empty(self, stocked):
        warehouse, _run_id, _report, _sim = stocked
        warehouse.manifest_path.write_text("{not json")
        with pytest.raises(StoreError, match="corrupt manifest"):
            ProfileWarehouse(warehouse.root).runs()


# ----------------------------------------------------------------------
# SIGKILL at the commit's crash points
# ----------------------------------------------------------------------

# The child commits one run normally (the first commit to an empty store
# folds it into the snapshot), then dies at the crash point ``mode``
# names:
#   commit: a 2-run batch's segment is fully published, but its log
#           append never starts (the window the two-phase protocol must
#           make harmless);
#   torn:   the same batch's log record is half written;
#   fold:   after the batch commits, a compaction has published its new
#           snapshot but not yet replaced the log.  The child waits for a
#           line on stdin first, so the parent can record every answer.
_KILL_SCRIPT = """
import os, signal, sys
from pathlib import Path
import repro.store.manifest as manifest_mod
from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.core.profiler2d import ProfilerConfig
from repro.store import IngestRun, ProfileWarehouse

cache_dir, store_dir, scale, mode = (Path(sys.argv[1]), sys.argv[2],
                                     float(sys.argv[3]), sys.argv[4])
runner = ExperimentRunner(SuiteConfig(scale=scale, cache_dir=cache_dir))
config = ProfilerConfig(keep_series=True)
warehouse = ProfileWarehouse(store_dir)

def item(input_name, predictor):
    report = runner.profile_2d("gzipish", predictor, input_name=input_name,
                               config=config)
    sim = runner.simulation("gzipish", input_name, predictor)
    return IngestRun(report, "gzipish", input_name, predictor, scale=scale, sim=sim)

def die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

class HalfWrite:
    # The manifest module's os, except that a write stops halfway and dies.
    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        os.write(fd, data[: len(data) // 2])
        die()

warehouse.ingest([item("train", "gshare")])
batch = [item("ref", "gshare"), item("ref", "bimodal")]
if mode == "fold":
    warehouse.ingest(batch)
print("committed", flush=True)

if mode == "commit":
    manifest_mod.ManifestFile._append = die
    warehouse.ingest(batch)
elif mode == "torn":
    manifest_mod.os = HalfWrite()
    warehouse.ingest(batch)
else:
    sys.stdin.readline()
    manifest_mod.ManifestFile._reset_log = die
    warehouse.compact()
raise SystemExit("unreachable: the kill must land first")
"""


def _killed_child(store_dir: Path, runner, mode: str, before_kill=None) -> ProfileWarehouse:
    """Run ``_KILL_SCRIPT`` in ``mode`` until its SIGKILL; returns the store."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT,
         str(runner.config.cache_dir), str(store_dir), str(SCALE), mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=Path(__file__).resolve().parents[1],
    )
    assert proc.stdin is not None and proc.stdout is not None
    with proc.stdin, proc.stdout:
        assert proc.stdout.readline().strip() == b"committed"
        if before_kill is not None:
            before_kill()
            proc.stdin.write(b"go\n")
            proc.stdin.flush()
        assert proc.wait(timeout=120) == -signal.SIGKILL
    return ProfileWarehouse(store_dir, create=False)


def _answers(warehouse: ProfileWarehouse) -> dict:
    """Every run's identity and its refolded report, by run id."""
    return {rec.run_id: (rec.key, serialize_report(warehouse.open_run(rec).report()))
            for rec in warehouse.runs()}


def _log_records(warehouse: ProfileWarehouse) -> list[dict]:
    """The log's records; asserts the log holds nothing but whole records."""
    data = warehouse.log_path.read_bytes()
    bodies, consumed = manifest_mod._decode_records(data, warehouse.log_path)
    assert consumed == len(data)
    return bodies


def _assert_only_first_run_then_recover(warehouse: ProfileWarehouse, runner) -> str:
    """The store after a batch killed before its commit landed: only the
    first run is visible, the batch's segment is the one orphan gc
    sweeps, and a retried ingest succeeds.  Returns the retried run id."""
    records = warehouse.runs()
    assert [(rec.workload, rec.input) for rec in records] == [("gzipish", "train")]
    assert warehouse.check() == []
    run = warehouse.open_run(records[0].run_id)
    assert run.profiled_sites()

    # The interrupted batch's one segment was fully written but never
    # committed: it is unreferenced garbage, and gc sweeps exactly it.
    live = {rec.segment for rec in records}
    on_disk = {p.name for p in warehouse.segments_root.iterdir() if p.is_dir()}
    assert len(on_disk - live) == 1
    stats = warehouse.gc()
    assert stats.segments_removed == 1
    on_disk_after = {p.name for p in warehouse.segments_root.iterdir() if p.is_dir()}
    assert on_disk_after == live

    # Retrying the interrupted ingest succeeds from cached artifacts.
    report = runner.profile_2d(WORKLOAD, "gshare", input_name="ref", config=KEEP)
    sim = runner.simulation(WORKLOAD, "ref", "gshare")
    [run_id] = warehouse.ingest([IngestRun(report, WORKLOAD, "ref", "gshare",
                                           scale=SCALE, sim=sim)])
    assert {rec.input for rec in warehouse.runs()} == {"train", "ref"}
    assert warehouse.open_run(run_id).counts()
    return run_id


@pytest.mark.slow
def test_sigkill_between_segment_write_and_commit(tmp_path, runner):
    warehouse = _killed_child(tmp_path / "wh", runner, "commit")
    # The store opens cleanly; only the first run is visible and readable:
    # no run of the killed batch is.
    _assert_only_first_run_then_recover(warehouse, runner)


@pytest.mark.slow
def test_sigkill_mid_append_leaves_an_ignored_torn_tail(tmp_path, runner):
    warehouse = _killed_child(tmp_path / "wh", runner, "torn")
    torn = warehouse.log_path.read_bytes()
    assert torn and manifest_mod._decode_records(torn, warehouse.log_path) == ([], 0)
    run_id = _assert_only_first_run_then_recover(warehouse, runner)
    # The retry truncated the torn tail before appending its own record.
    assert [[rec["run_id"] for rec in body["runs"]]
            for body in _log_records(warehouse)] == [[run_id]]
    assert [rec.input for rec in ProfileWarehouse(warehouse.root).runs()] == [
        "train", "ref"]


@pytest.mark.slow
def test_sigkill_between_fold_publish_and_log_reset(tmp_path, runner):
    store_dir = tmp_path / "wh"
    before = {}
    warehouse = _killed_child(
        store_dir, runner, "fold",
        before_kill=lambda: before.update(_answers(ProfileWarehouse(store_dir))))
    assert len(before) == 3

    # The new snapshot (generation 2) holds every run, repointed at the
    # compacted segment; the log still holds generation 1's record, which
    # readers ignore.  Every answer is unchanged.
    assert json.loads(warehouse.manifest_path.read_text())["generation"] == 2
    assert [body["generation"] for body in _log_records(warehouse)] == [1]
    assert _answers(warehouse) == before
    assert warehouse.check() == []
    assert warehouse.stats()["segments"] == 1

    # The next commit replaces the stale log before it appends, and gc
    # removes the superseded segments the killed compaction left behind.
    report, sim = (runner.profile_2d(WORKLOAD, "gshare", config=KEEP),
                   runner.simulation(WORKLOAD, "train", "gshare"))
    [run_id] = warehouse.ingest([IngestRun(report, WORKLOAD, "train", "gshare",
                                           scale=SCALE, sim=sim)], dedupe=False)
    assert [body["generation"] for body in _log_records(warehouse)] == [2]
    after = _answers(ProfileWarehouse(store_dir))
    assert set(after) == set(before) | {run_id}
    assert {key: after[key] for key in before} == before
    assert warehouse.gc().segments_removed == 2
    assert warehouse.check() == []


# ----------------------------------------------------------------------
# Compaction under a stored population
# ----------------------------------------------------------------------


def test_population_report_survives_compaction(tmp_path):
    """A sweep population (one segment) and a run ingested after it (a
    second segment) compact into one; the stored population report
    renders byte-identically before and after."""
    from repro.sweep import PopulationSpec, population_report_from_store, run_sweep

    spec = PopulationSpec(workload="gapish", base_input="ref",
                          size=4, seed=2, scale=SCALE)
    warehouse = ProfileWarehouse(tmp_path / "wh")
    run_sweep(spec, warehouse=warehouse)
    run_sweep(spec, predictor="bimodal", warehouse=warehouse)
    before = {predictor: population_report_from_store(
        warehouse, spec.tag, predictor=predictor).render()
        for predictor in ("gshare", "bimodal")}
    assert warehouse.stats()["segments"] == 2

    stats = warehouse.compact()
    assert (stats.runs_rewritten, stats.segments_after) == (2 * spec.size, 1)
    for predictor, rendered in before.items():
        assert population_report_from_store(
            warehouse, spec.tag, predictor=predictor).render() == rendered


# ----------------------------------------------------------------------
# Damage to the manifest log
# ----------------------------------------------------------------------


def _synthetic(seed: int) -> IngestRun:
    rng = np.random.default_rng(seed)
    profiler = TwoDProfiler(12, ProfilerConfig(slice_size=64, keep_series=True))
    profiler.record_batch(rng.integers(0, 12, 4000), rng.integers(0, 2, 4000))
    return IngestRun(profiler.finish(), "synthetic", f"i{seed}", "synthetic", source="test")


def _logged_store(root: Path) -> ProfileWarehouse:
    """A store whose snapshot holds r000001 and whose log holds r000002, r000003."""
    warehouse = ProfileWarehouse(root)
    for seed in range(3):
        warehouse.ingest([_synthetic(seed)])
    assert [len(body["runs"]) for body in _log_records(warehouse)] == [1, 1]
    return warehouse


def _flip_byte(path: Path, index: int) -> None:
    data = bytearray(path.read_bytes())
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))


class TestLogDamage:
    def test_bad_record_before_a_valid_one_raises(self, tmp_path):
        warehouse = _logged_store(tmp_path / "wh")
        _flip_byte(warehouse.log_path, 20)  # inside the first record's body
        with pytest.raises(StoreError, match="corrupt manifest log"):
            ProfileWarehouse(warehouse.root).runs()

    def test_bad_final_record_is_a_torn_tail(self, tmp_path):
        """A final record failing its checksum was never acknowledged:
        readers stop before it and the next committer truncates it."""
        warehouse = _logged_store(tmp_path / "wh")
        _flip_byte(warehouse.log_path, warehouse.log_path.stat().st_size - 2)
        fresh = ProfileWarehouse(warehouse.root)
        assert [rec.run_id for rec in fresh.runs()] == ["r000001", "r000002"]
        assert fresh.ingest([_synthetic(9)]) == ["r000003"]
        assert [[rec["run_id"] for rec in body["runs"]]
                for body in _log_records(fresh)] == [["r000002"], ["r000003"]]

    def test_malformed_record_body_raises(self, tmp_path):
        warehouse = _logged_store(tmp_path / "wh")
        with warehouse.log_path.open("ab") as handle:
            handle.write(manifest_mod._encode_record(1, 9, [], [])[:8])
        assert len(ProfileWarehouse(warehouse.root).runs()) == 3  # a torn header
        body = b'{"generation": 1}'
        warehouse.log_path.write_bytes(
            manifest_mod._HEADER.pack(len(body), zlib.crc32(body)) + body)
        with pytest.raises(StoreError, match="malformed record"):
            ProfileWarehouse(warehouse.root).runs()


# ----------------------------------------------------------------------
# Injected I/O faults on the manifest files
# ----------------------------------------------------------------------


class _FaultyOS:
    """``os`` for the manifest and cachefs modules, failing manifest-file I/O.

    Only descriptors of files named ``manifest*`` directly under ``root``
    (the snapshot, the log and their ``*.tmp`` siblings) are affected:

    * ``enospc`` — a write raises ENOSPC before storing anything;
    * ``short`` — a write stores half its bytes; a log write then returns
      the short count and the rollback ``ftruncate`` fails with EIO, so a
      torn tail stays behind; a snapshot write raises ENOSPC;
    * ``eio`` — ``fsync`` raises EIO after the write completed.
    """

    def __init__(self, root: Path, fault: str):
        self.root, self.fault = root, fault
        self.armed = True
        self.hits = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def _hit(self, fd: int, *faults: str) -> bool:
        if not self.armed or self.fault not in faults:
            return False
        path = Path(os.readlink(f"/proc/self/fd/{fd}"))
        if path.parent != self.root or not path.name.startswith("manifest"):
            return False
        self.hits += 1
        return True

    def write(self, fd, data):
        if self._hit(fd, "enospc"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if self._hit(fd, "short"):
            return os.write(fd, bytes(data)[: len(data) // 2])
        return os.write(fd, data)

    def ftruncate(self, fd, length):
        if self._hit(fd, "short"):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return os.ftruncate(fd, length)

    def fsync(self, fd):
        if self._hit(fd, "eio"):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return os.fsync(fd)

    def fdopen(self, fd, *args, **kwargs):
        handle = os.fdopen(fd, *args, **kwargs)
        return _FaultyHandle(handle, self) if self._hit(fd, "enospc", "short") else handle


class _FaultyHandle:
    """A snapshot ``*.tmp`` handle whose write fails (after half, for ``short``)."""

    def __init__(self, handle, faults: _FaultyOS):
        self._handle, self._faults = handle, faults

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def write(self, data):
        if self._faults.fault == "short":
            self._handle.write(bytes(data)[: len(data) // 2])
            self._handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


FAULTS = ["enospc", "short", "eio"]

needs_proc_fd = pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                                   reason="the fault layer maps descriptors via /proc")


@pytest.fixture()
def inject(monkeypatch):
    """Install a :class:`_FaultyOS` for the store at ``root``; returns it."""

    def install(root: Path, fault: str) -> _FaultyOS:
        faulty = _FaultyOS(Path(root), fault)
        monkeypatch.setattr(manifest_mod, "os", faulty)
        monkeypatch.setattr(cachefs, "os", faulty)
        return faulty

    return install


@needs_proc_fd
class TestInjectedFaults:
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("target", ["log", "snapshot"])
    def test_fault_fails_the_batch_then_clears(self, tmp_path, inject, fault, target):
        """``log``: the store has a snapshot, so the batch appends;
        ``snapshot``: the store is empty, so the batch's commit folds."""
        warehouse = ProfileWarehouse(tmp_path / "wh")
        committed = warehouse.ingest([_synthetic(0)]) if target == "log" else []
        files_before = [path.read_bytes() if path.exists() else None
                        for path in (warehouse.manifest_path, warehouse.log_path)]
        faulty = inject(warehouse.root, fault)
        batch = [_synthetic(1), _synthetic(2)]
        with pytest.raises(OSError):
            warehouse.ingest(batch)
        assert faulty.hits >= 1
        assert [rec.run_id for rec in warehouse.runs()] == committed
        assert [rec.run_id for rec in ProfileWarehouse(warehouse.root).runs()] == committed
        assert warehouse.manifest_path.exists() == (target == "log")
        assert not list(warehouse.root.glob("*.tmp"))
        if target == "log" and fault == "short":
            # The failed rollback left a torn tail, which readers ignore.
            assert warehouse.log_path.stat().st_size > len(files_before[1] or b"")
        elif target == "log":
            assert warehouse.log_path.read_bytes() == (files_before[1] or b"")

        faulty.armed = False
        ids = warehouse.ingest(batch)
        assert ids == [f"r{n:06d}" for n in range(len(committed) + 1, len(committed) + 3)]
        fresh = ProfileWarehouse(warehouse.root)
        assert [rec.run_id for rec in fresh.runs()] == committed + ids
        assert fresh.check() == []
        if warehouse.log_path.exists():
            _log_records(fresh)  # whole records only: any torn tail is gone

    @pytest.mark.parametrize("fault", FAULTS)
    def test_service_close_survives_the_fault(self, tmp_path, inject, fault):
        """A close under a warehouse fault still replies ok, without a
        ``warehouse_run``, and counts in ``warehouse_failures``."""
        store = tmp_path / "wh"
        server = ServerThread(ProfilingServer(checkpoint_dir=tmp_path / "ckpt",
                                              warehouse_dir=store)).start()
        config = ProfilerConfig(slice_size=64, keep_series=True)
        rng = np.random.default_rng(7)
        sites = rng.integers(0, 12, 4000).astype(np.int64)
        correct = rng.integers(0, 2, 4000).astype(np.int64)

        def close(client, name):
            stream_simulation(client, name, sites, correct, config, num_sites=12,
                              meta={"workload": name, "input": "live",
                                    "predictor": "synthetic"})
            return client.close_session(name)

        try:
            with StreamingClient("127.0.0.1", server.port) as client:
                assert close(client, "before")["warehouse_run"] == "r000001"
                faulty = inject(store, fault)
                reply = close(client, "during")
                assert reply["ok"] and reply["warehouse_run"] is None
                assert faulty.hits >= 1
                stats = client.stats()
                assert (stats["warehouse_failures"], stats["runs_ingested"]) == (1, 1)
                faulty.armed = False
                assert close(client, "after")["warehouse_run"] == "r000002"
        finally:
            server.drain()
        assert [rec.workload for rec in ProfileWarehouse(store).runs()] == [
            "before", "after"]
