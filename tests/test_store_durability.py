"""Crash-safety tests for the profile warehouse.

Mirrors ``tests/test_cachefs.py``: the warehouse inherits the cache's
discipline — atomic publication, corruption-as-miss — and adds a two-phase
commit (segment files first, manifest second).  Covered here:

* truncated / garbage segment files behind a *committed* run surface as
  :class:`~repro.errors.StoreError` on open and as a miss in ``find``,
  never as wrong data;
* a real ``SIGKILL`` landing exactly between segment publication and the
  manifest commit leaves the store openable with every run of the
  interrupted batch absent, its one segment unreferenced garbage that
  ``gc`` sweeps, and a retried ingest succeeding;
* external damage to the manifest itself raises loudly instead of being
  silently treated as an empty store (which would orphan data);
* compaction moves a stored population's runs without changing its
  report.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.core.profiler2d import ProfilerConfig
from repro.errors import StoreError
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
# SIGKILL between segment write and manifest commit
# ----------------------------------------------------------------------

# The child commits one run normally, then ingests a 2-run batch with the
# manifest writer replaced by SIGKILL-to-self: the batch's segment is
# fully published but its manifest commit never lands — exactly the
# window the two-phase protocol must make harmless.
_KILL_SCRIPT = """
import os, signal, sys
from pathlib import Path
import repro.store.manifest as manifest_mod
from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.core.profiler2d import ProfilerConfig
from repro.store import IngestRun, ProfileWarehouse

cache_dir, store_dir, scale = Path(sys.argv[1]), sys.argv[2], float(sys.argv[3])
runner = ExperimentRunner(SuiteConfig(scale=scale, cache_dir=cache_dir))
config = ProfilerConfig(keep_series=True)
warehouse = ProfileWarehouse(store_dir)

def item(input_name, predictor):
    report = runner.profile_2d("gzipish", predictor, input_name=input_name,
                               config=config)
    sim = runner.simulation("gzipish", input_name, predictor)
    return IngestRun(report, "gzipish", input_name, predictor, scale=scale, sim=sim)

warehouse.ingest([item("train", "gshare")])
print("committed", flush=True)

batch = [item("ref", "gshare"), item("ref", "bimodal")]

def die(path, manifest):
    os.kill(os.getpid(), signal.SIGKILL)

manifest_mod.save_manifest = die
warehouse.ingest(batch)
raise SystemExit("unreachable: the kill must land before the commit")
"""


@pytest.mark.slow
def test_sigkill_between_segment_write_and_commit(tmp_path, runner):
    store_dir = tmp_path / "wh"
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT,
         str(runner.config.cache_dir), str(store_dir), str(SCALE)],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=Path(__file__).resolve().parents[1],
    )
    assert proc.stdout is not None
    assert proc.stdout.readline().strip() == b"committed"
    assert proc.wait(timeout=120) == -signal.SIGKILL

    # The store opens cleanly; only the first run is visible and readable:
    # no run of the killed batch is.
    warehouse = ProfileWarehouse(store_dir, create=False)
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
