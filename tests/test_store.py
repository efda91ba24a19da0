"""Tests for the profile warehouse (ingest, queries, maintenance).

The acceptance bar for the query engine is *bit-identity* with the live
pipeline: ``diff_runs`` must reproduce :func:`repro.core.groundtruth.ground_truth`
labels exactly (no trace replay), and ``reclassify`` must match a fresh
:func:`repro.core.profiler2d.profile_trace` classification under the same
thresholds — pinned here with a Hypothesis property over the threshold
space.  The zero-copy contract (queries read memmap views, never whole
segment files) is asserted directly on the returned arrays.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.core.profiler2d import ProfilerConfig, TwoDProfiler, profile_trace
from repro.core.stats import TestThresholds
import repro.store.layout as layout_mod
import repro.store.manifest as manifest_mod
from repro.errors import StoreError
from repro.obs import get_registry
from repro.service.protocol import serialize_report
from repro.store import (
    IngestRun,
    Manifest,
    ManifestFile,
    ProfileWarehouse,
    RunRecord,
    SegmentBuilder,
    SegmentRecord,
    STORE_VERSION,
    csr_from_series,
    diff_runs,
    join_runs,
    reclassify,
)

SCALE = 0.05
WORKLOAD = "gzipish"
KEEP = ProfilerConfig(keep_series=True)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return ExperimentRunner(SuiteConfig(scale=SCALE, cache_dir=cache))


@pytest.fixture(scope="module")
def artifacts(runner):
    """(report, sim) per input, profiled with the raw series retained."""
    out = {}
    for input_name in ("train", "ref"):
        report = runner.profile_2d(WORKLOAD, "gshare", input_name=input_name,
                                   config=KEEP)
        sim = runner.simulation(WORKLOAD, input_name, "gshare")
        out[input_name] = (report, sim)
    return out


@pytest.fixture()
def warehouse(tmp_path):
    return ProfileWarehouse(tmp_path / "wh")


def _item(artifacts, input_name, **kwargs):
    report, sim = artifacts[input_name]
    kwargs.setdefault("sim", sim)
    kwargs.setdefault("scale", SCALE)
    return IngestRun(report, workload=WORKLOAD, input_name=input_name,
                     predictor="gshare", **kwargs)


def _ingest(warehouse, artifacts, input_name, dedupe=True, **kwargs):
    [run_id] = warehouse.ingest([_item(artifacts, input_name, **kwargs)],
                                dedupe=dedupe)
    return run_id


@pytest.fixture()
def stocked(warehouse, artifacts):
    """A warehouse holding the train and ref runs; returns (wh, ids)."""
    ids = {name: _ingest(warehouse, artifacts, name) for name in ("train", "ref")}
    return warehouse, ids


# ----------------------------------------------------------------------
# Ingest and catalog
# ----------------------------------------------------------------------


class TestIngest:
    def test_catalog_lists_committed_runs(self, stocked):
        warehouse, ids = stocked
        records = warehouse.runs()
        assert [rec.run_id for rec in records] == sorted(ids.values())
        by_input = {rec.input: rec for rec in records}
        assert set(by_input) == {"train", "ref"}
        assert all(rec.workload == WORKLOAD for rec in records)
        assert all(rec.has_counts for rec in records)

    def test_stats_counts_everything(self, stocked):
        warehouse, _ids = stocked
        stats = warehouse.stats()
        assert stats["runs"] == 2
        assert stats["segments"] == 2
        assert stats["entries"] > 0
        assert stats["bytes"] > 0
        assert stats["corrupt_runs"] == 0

    def test_dedupe_returns_existing_run(self, stocked, artifacts):
        warehouse, ids = stocked
        again = _ingest(warehouse, artifacts, "train")
        assert again == ids["train"]
        assert len(warehouse.runs()) == 2

    def test_dedupe_off_appends(self, stocked, artifacts):
        warehouse, ids = stocked
        fresh = _ingest(warehouse, artifacts, "train", dedupe=False)
        assert fresh != ids["train"]
        assert len(warehouse.runs()) == 3

    def test_ingest_requires_series(self, warehouse, runner):
        report = runner.profile_2d(WORKLOAD, "gshare")  # keep_series off
        with pytest.raises(StoreError, match="keep_series"):
            warehouse.ingest([IngestRun(report, workload=WORKLOAD,
                                        input_name="train", predictor="gshare")])

    def test_pam_exact_run_round_trips(self, warehouse, runner, artifacts):
        """A stored pam_exact run records the ablation and refolds with it,
        and gets its own digest instead of deduping into the plain run."""
        report = runner.profile_2d(WORKLOAD, "gshare",
                                   config=ProfilerConfig(pam_exact=True))
        [run_id] = warehouse.ingest([IngestRun(report, workload=WORKLOAD,
                                               input_name="train", predictor="gshare")])
        stored = warehouse.open_run(run_id)
        assert stored.record.config["pam_exact"] is True
        assert serialize_report(stored.report()) == serialize_report(report)
        plain, _sim = artifacts["train"]
        assert serialize_report(plain) != serialize_report(report)
        [plain_id] = warehouse.ingest([IngestRun(plain, workload=WORKLOAD,
                                                 input_name="train", predictor="gshare")])
        assert plain_id != run_id
        assert warehouse.open_run(plain_id).record.config["pam_exact"] is False

    def test_seven_key_record_refolds_identically(self, stocked, artifacts):
        """Records written before the config stored pam_exact/keep_series
        open and refold exactly as before (both decode as False).  Such
        records live in a version-1 store: one snapshot, no log."""
        warehouse, ids = stocked
        report, _sim = artifacts["train"]
        data = _v1_snapshot(warehouse)
        config = data["runs"][ids["train"]]["config"]
        del config["pam_exact"], config["keep_series"]
        assert sorted(config) == ["exec_threshold", "fir_cold_start", "mean_th",
                                  "pam_th", "slice_size", "std_th", "use_fir"]
        warehouse.manifest_path.write_text(json.dumps(data))
        warehouse.log_path.unlink()
        refolded = ProfileWarehouse(warehouse.root).open_run(ids["train"]).report()
        assert serialize_report(refolded) == serialize_report(report)
        assert refolded.config == report.config
        np.testing.assert_array_equal(refolded.series, report.series)

    def test_open_unknown_run(self, warehouse):
        with pytest.raises(StoreError, match="unknown run"):
            warehouse.open_run("r999999")


def _segment_dirs(warehouse) -> set[str]:
    return {p.name for p in warehouse.segments_root.iterdir() if p.is_dir()}


def _v1_snapshot(warehouse) -> dict:
    """The store's runs as a version-1 manifest: no generation, no log."""
    data = warehouse.manifest().to_json()
    data["version"] = 1
    del data["generation"]
    return data


def _manifest_files(warehouse) -> tuple[bytes | None, bytes | None]:
    """The snapshot's and the log's bytes (None for a missing file)."""
    return tuple(path.read_bytes() if path.exists() else None
                 for path in (warehouse.manifest_path, warehouse.log_path))


def _counter(name: str) -> float:
    return get_registry().counter(name).value


@pytest.fixture()
def commits(monkeypatch):
    """Counts manifest writes: log appends and snapshot folds."""
    calls = []
    for name in ("_append", "_fold"):
        real = getattr(manifest_mod.ManifestFile, name)

        def counting(self, *args, _name=name, _real=real):
            calls.append(_name)
            _real(self, *args)

        monkeypatch.setattr(manifest_mod.ManifestFile, name, counting)
    return calls


class TestBatchIngest:
    def test_ids_follow_input_order(self, tmp_path, artifacts):
        for order in (("train", "ref"), ("ref", "train")):
            warehouse = ProfileWarehouse(tmp_path / "-".join(order))
            ids = warehouse.ingest([_item(artifacts, name) for name in order])
            assert ids == ["r000001", "r000002"]
            assert [warehouse.manifest().runs[i].input for i in ids] == list(order)

    def test_one_segment_and_one_commit(self, warehouse, artifacts, commits):
        segments = _counter("store_segments_total")
        runs = _counter("store_runs_total")
        ids = warehouse.ingest([_item(artifacts, "train"), _item(artifacts, "ref")])
        assert len(commits) == 1
        assert len(_segment_dirs(warehouse)) == 1
        assert _counter("store_segments_total") - segments == 1
        assert _counter("store_runs_total") - runs == 2
        records = [warehouse.manifest().runs[i] for i in ids]
        assert records[0].segment == records[1].segment
        for name, run in zip(("train", "ref"), warehouse.open_runs(ids)):
            report, _sim = artifacts[name]
            assert serialize_report(run.report()) == serialize_report(report)

    def test_dedupe_against_store_and_within_batch(self, stocked, artifacts, commits):
        warehouse, ids = stocked
        before = _segment_dirs(warehouse)
        runs = _counter("store_runs_total")
        again = warehouse.ingest([
            _item(artifacts, "train"),
            _item(artifacts, "ref", scale=0.5),
            _item(artifacts, "train"),
            _item(artifacts, "ref", scale=0.5),
        ])
        assert again[0] == again[2] == ids["train"]
        assert again[1] == again[3] not in ids.values()
        assert len(commits) == 1
        assert len(_segment_dirs(warehouse) - before) == 1
        assert _counter("store_runs_total") - runs == 1
        assert len(warehouse.runs()) == 3

    def test_dedupe_off_appends_every_item(self, warehouse, artifacts):
        ids = warehouse.ingest([_item(artifacts, "train")] * 2, dedupe=False)
        assert ids == ["r000001", "r000002"]

    def test_nothing_new_writes_nothing(self, stocked, artifacts, commits):
        warehouse, ids = stocked
        manifest = _manifest_files(warehouse)
        before = _segment_dirs(warehouse)
        segments = _counter("store_segments_total")
        assert warehouse.ingest([]) == []
        again = warehouse.ingest([_item(artifacts, "ref"), _item(artifacts, "train")])
        assert again == [ids["ref"], ids["train"]]
        assert commits == []
        assert _segment_dirs(warehouse) == before
        assert _manifest_files(warehouse) == manifest
        assert _counter("store_segments_total") == segments

    def test_batch_of_one_matches_a_single_run_segment(self, warehouse, artifacts,
                                                       tmp_path):
        [run_id] = warehouse.ingest([_item(artifacts, "train")])
        record = warehouse.manifest().runs[run_id]
        report, sim = artifacts["train"]
        acc, slice_idx, indptr = csr_from_series(report.series)
        builder = SegmentBuilder()
        offsets = builder.add_run(
            acc, slice_idx, indptr, np.asarray(sim.exec_counts, np.int64),
            np.asarray(sim.correct_counts, np.int64),
            np.asarray(report.slice_overall, np.float64))
        builder.write(tmp_path / "expected")
        segment = warehouse.segments_root / record.segment
        assert sorted(p.name for p in segment.iterdir()) == sorted(
            p.name for p in (tmp_path / "expected").iterdir())
        for path in (tmp_path / "expected").iterdir():
            assert (segment / path.name).read_bytes() == path.read_bytes()
        assert {k: getattr(record, k) for k in offsets} == offsets
        assert (record.workload, record.input, record.predictor, record.scale,
                record.source, record.has_counts) == (
            WORKLOAD, "train", "gshare", SCALE, "experiment", True)
        assert record.config == report.config.to_dict()

    def test_bad_item_fails_the_whole_batch(self, warehouse, artifacts, runner, commits):
        no_series = runner.profile_2d(WORKLOAD, "gshare")  # keep_series off
        wrong_counts = IngestRun(artifacts["ref"][0], WORKLOAD, "ref", "gshare",
                                 sim=type("Sim", (), {"exec_counts": [1, 2],
                                                      "correct_counts": [1, 2]})())
        for bad, match in ((IngestRun(no_series, WORKLOAD, "x", "gshare"), "keep_series"),
                           (wrong_counts, "num_sites")):
            with pytest.raises(StoreError, match=match):
                warehouse.ingest([_item(artifacts, "train"), bad])
        assert commits == []
        assert _segment_dirs(warehouse) == set()
        assert _manifest_files(warehouse) == (None, None)

    def test_open_runs_shares_one_reader_per_segment(self, warehouse, artifacts):
        ids = warehouse.ingest([_item(artifacts, "train"), _item(artifacts, "ref")])
        first, second = warehouse.open_runs(ids)
        assert first.reader is second.reader
        assert warehouse.open_run(ids[1]).record == second.record
        with pytest.raises(StoreError, match="unknown run"):
            warehouse.open_runs([ids[0], "r999999"])


class TestRecordEncoding:
    def test_to_json_matches_asdict(self):
        config = {"slice_size": 64, "nested": {"a": [1, 2]}, "mean_th": 0.5}
        run = RunRecord(
            run_id="r000001", workload="w", input="i", predictor="gshare",
            scale=1.0, source="test", config=config, num_sites=3, n_slices=4,
            overall_accuracy=0.9, has_counts=True, segment="seg-x",
            entry_start=0, entry_count=5, indptr_start=0, counts_start=0,
            overall_start=0)
        segment = SegmentRecord(uid="seg-x", entries=5, files={"acc.npy": 128})
        for record in (run, segment):
            encoded = record.to_json()
            assert encoded == dataclasses.asdict(record)
            assert json.dumps(encoded, sort_keys=True) == json.dumps(
                dataclasses.asdict(record), sort_keys=True)
        # The encoding does not alias the record's own mutable fields.
        assert run.to_json()["config"] is not run.config
        assert segment.to_json()["files"] is not segment.files


# ----------------------------------------------------------------------
# Columnar reads
# ----------------------------------------------------------------------


class TestReads:
    def test_site_series_matches_report(self, stocked, artifacts):
        warehouse, ids = stocked
        report, _sim = artifacts["train"]
        run = warehouse.open_run(ids["train"])
        for site in sorted(run.profiled_sites()):
            column = report.series[:, site]
            mask = ~np.isnan(column)
            slices, acc = run.site_series(site)
            np.testing.assert_array_equal(np.asarray(slices), np.nonzero(mask)[0])
            np.testing.assert_array_equal(np.asarray(acc), column[mask])

    def test_site_series_is_memmap_view(self, stocked):
        """The zero-copy guarantee: queries return views into the mapped
        segment file, not materialized copies of it."""
        warehouse, ids = stocked
        run = warehouse.open_run(ids["train"])
        site = min(run.profiled_sites())
        slices, acc = run.site_series(site)
        for view in (slices, acc):
            assert isinstance(view, np.memmap) or isinstance(view.base, np.memmap)

    def test_site_series_out_of_range(self, stocked):
        warehouse, ids = stocked
        run = warehouse.open_run(ids["train"])
        with pytest.raises(StoreError, match="out of range"):
            run.site_series(run.num_sites)

    def test_slice_overall_roundtrip(self, stocked, artifacts):
        warehouse, ids = stocked
        report, _sim = artifacts["train"]
        run = warehouse.open_run(ids["train"])
        np.testing.assert_array_equal(np.asarray(run.slice_overall()),
                                      report.slice_overall)

    def test_counts_roundtrip(self, stocked, artifacts):
        warehouse, ids = stocked
        _report, sim = artifacts["train"]
        run = warehouse.open_run(ids["train"])
        exec_counts, correct_counts = run.counts()
        np.testing.assert_array_equal(np.asarray(exec_counts), sim.exec_counts)
        np.testing.assert_array_equal(np.asarray(correct_counts), sim.correct_counts)
        assert run.as_simulation().site_accuracies() == sim.site_accuracies()

    def test_run_without_counts(self, warehouse, artifacts):
        run_id = _ingest(warehouse, artifacts, "train", sim=None)
        run = warehouse.open_run(run_id)
        assert not run.record.has_counts
        with pytest.raises(StoreError, match="without per-site counts"):
            run.counts()
        # Time-series and reclassification still work without counts.
        assert run.profiled_sites()
        assert reclassify(run)["profiled"]

    def test_overall_accuracy_bit_exact(self, stocked, artifacts):
        warehouse, ids = stocked
        report, _sim = artifacts["train"]
        assert warehouse.open_run(ids["train"]).overall_accuracy == report.overall_accuracy


# ----------------------------------------------------------------------
# Query engine vs. the live pipeline (bit-identity)
# ----------------------------------------------------------------------


class TestQueries:
    def test_reclassify_defaults_match_original_run(self, stocked, artifacts):
        warehouse, ids = stocked
        report, _sim = artifacts["train"]
        result = reclassify(warehouse.open_run(ids["train"]))
        assert result["input_dependent"] == sorted(report.input_dependent_sites())
        assert result["profiled"] == sorted(report.profiled_sites())

    def test_diff_matches_ground_truth_bit_identically(self, stocked, runner):
        """The acceptance criterion: ``db diff`` labels == the live
        pipeline's ground truth, with zero trace replay."""
        warehouse, ids = stocked
        truth = diff_runs(warehouse.open_run(ids["train"]),
                          [warehouse.open_run(ids["ref"])])
        live = runner.ground_truth(WORKLOAD, "gshare")
        assert truth.dependent == live.dependent
        assert truth.independent == live.independent
        assert truth.universe == live.universe
        assert truth.dependent_fraction == live.dependent_fraction

    def test_diff_threshold_passthrough(self, stocked):
        warehouse, ids = stocked
        train = warehouse.open_run(ids["train"])
        ref = warehouse.open_run(ids["ref"])
        loose = diff_runs(train, [ref], threshold=0.0)
        strict = diff_runs(train, [ref], threshold=0.5)
        assert strict.dependent <= loose.dependent
        assert strict.universe == loose.universe

    def test_diff_requires_other_runs(self, stocked):
        warehouse, ids = stocked
        with pytest.raises(StoreError, match="at least one"):
            diff_runs(warehouse.open_run(ids["train"]), [])

    def test_join_is_symmetric_on_agreement(self, stocked):
        warehouse, ids = stocked
        a = warehouse.open_run(ids["train"])
        b = warehouse.open_run(ids["ref"])
        rows = join_runs(a, b)
        assert rows, "train and ref share profiled branches"
        sites = [row["site"] for row in rows]
        assert sites == sorted(sites)
        flipped = {row["site"]: row for row in join_runs(b, a)}
        for row in rows:
            assert flipped[row["site"]]["agree"] == row["agree"]


class TestWindowCounts:
    def test_full_window_covers_every_observation(self, stocked):
        warehouse, ids = stocked
        run = warehouse.open_run(ids["train"])
        counts = run.window_counts()
        assert int(counts.total.sum()) == run.record.entry_count
        assert counts.line == run.record.overall_accuracy
        for site in sorted(run.profiled_sites())[:25]:
            slices, _acc = run.site_series(site)
            assert counts.total[site] == len(slices)

    def test_low_is_bounded_and_line_sensitive(self, stocked):
        warehouse, ids = stocked
        run = warehouse.open_run(ids["train"])
        counts = run.window_counts()
        assert np.all(counts.low <= counts.total)
        for site in sorted(run.profiled_sites())[:25]:
            _slices, acc = run.site_series(site)
            assert counts.low[site] == int((acc < counts.line).sum())


@pytest.fixture(scope="module")
def module_store(tmp_path_factory, artifacts):
    """A module-lifetime store for the Hypothesis property (one ingest)."""
    warehouse = ProfileWarehouse(tmp_path_factory.mktemp("wh-prop"))
    [run_id] = warehouse.ingest([_item(artifacts, "train")])
    return warehouse, run_id


class TestReclassifyProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(std_th=st.floats(0.0, 0.2, allow_nan=False),
           pam_th=st.floats(0.0, 1.0, allow_nan=False))
    def test_reclassify_bit_identical_to_fresh_profile(
            self, runner, module_store, std_th, pam_th):
        """For any (std_th, pam_th), the stored run's refolded report is
        exactly the report of a fresh ``profile_trace`` run: same verdicts,
        same statistics, bit for bit."""
        warehouse, run_id = module_store
        run = warehouse.open_run(run_id)
        stored = run.report(std_th=std_th, pam_th=pam_th)
        config = ProfilerConfig(
            thresholds=TestThresholds(std_th=std_th, pam_th=pam_th))
        fresh = profile_trace(
            runner.trace(WORKLOAD, "train"),
            simulation=runner.simulation(WORKLOAD, "train", "gshare"),
            config=config,
        )
        assert serialize_report(stored) == serialize_report(fresh)
        assert stored.stats == fresh.stats
        relabeled = reclassify(run, std_th=std_th, pam_th=pam_th)
        assert relabeled["input_dependent"] == sorted(fresh.input_dependent_sites())
        assert relabeled["profiled"] == sorted(fresh.profiled_sites())


# ----------------------------------------------------------------------
# Maintenance: compaction and gc
# ----------------------------------------------------------------------


class TestMaintenance:
    def test_compact_preserves_every_query(self, stocked, runner):
        warehouse, ids = stocked
        before = reclassify(warehouse.open_run(ids["train"]))
        truth_before = diff_runs(warehouse.open_run(ids["train"]),
                                 [warehouse.open_run(ids["ref"])])

        stats = warehouse.compact()
        assert stats.runs_rewritten == 2
        assert stats.segments_after == 1
        assert warehouse.stats()["segments"] == 1
        assert warehouse.check() == []

        after = reclassify(warehouse.open_run(ids["train"]))
        truth_after = diff_runs(warehouse.open_run(ids["train"]),
                                [warehouse.open_run(ids["ref"])])
        assert after["input_dependent"] == before["input_dependent"]
        assert truth_after.dependent == truth_before.dependent
        # Superseded segment directories are gone (compact or gc removes them).
        warehouse.gc()
        dirs = [p for p in warehouse.segments_root.iterdir() if p.is_dir()]
        assert len(dirs) == 1

    def test_compact_empty_store(self, warehouse):
        stats = warehouse.compact()
        assert stats.runs_rewritten == 0

    def test_gc_sweeps_garbage_only(self, stocked):
        warehouse, ids = stocked
        orphan = warehouse.segments_root / "seg-dead"
        orphan.mkdir()
        (orphan / "acc.npy").write_bytes(b"partial")
        litter = warehouse.segments_root / ("x.npy.123" + ".tmp")
        litter.write_bytes(b"partial")

        stats = warehouse.gc()
        assert stats.segments_removed == 1
        assert stats.tmp_files_removed == 1
        assert not orphan.exists() and not litter.exists()
        # Committed data untouched.
        assert len(warehouse.runs()) == 2
        assert warehouse.open_run(ids["train"]).profiled_sites()

    def test_gc_purge_corrupt_drops_damaged_runs(self, stocked):
        warehouse, ids = stocked
        record = warehouse.manifest().runs[ids["ref"]]
        acc = warehouse.segments_root / record.segment / "segment.bin"
        acc.write_bytes(acc.read_bytes()[:16])
        assert warehouse.check() == [ids["ref"]]

        stats = warehouse.gc(purge_corrupt=True)
        assert stats.runs_purged == 1
        assert stats.segments_removed == 1
        assert [rec.run_id for rec in warehouse.runs()] == [ids["train"]]
        assert warehouse.check() == []

    def test_gc_dry_run_reports_without_touching_anything(self, stocked):
        """--dry-run counts what a sweep would do; disk stays untouched."""
        warehouse, ids = stocked
        orphan = warehouse.segments_root / "seg-dead"
        orphan.mkdir()
        (orphan / "acc.npy").write_bytes(b"partial")
        litter = warehouse.segments_root / ("x.npy.123" + ".tmp")
        litter.write_bytes(b"partial")
        record = warehouse.manifest().runs[ids["ref"]]
        acc = warehouse.segments_root / record.segment / "segment.bin"
        acc.write_bytes(acc.read_bytes()[:16])

        before = _manifest_files(warehouse)
        stats = warehouse.gc(purge_corrupt=True, dry_run=True)

        # orphan dir + the would-be-purged run's segment; one tmp file.
        assert stats.segments_removed == 2
        assert stats.tmp_files_removed == 1
        assert stats.runs_purged == 1
        assert _manifest_files(warehouse) == before, (
            "dry run must leave the snapshot and the log byte-identical")
        assert orphan.exists() and litter.exists()
        assert set(warehouse.manifest().runs) == set(ids.values())

        # The real sweep afterwards does exactly what the dry run promised.
        real = warehouse.gc(purge_corrupt=True)
        assert (real.segments_removed, real.tmp_files_removed,
                real.runs_purged) == (2, 1, 1)


# ----------------------------------------------------------------------
# The manifest log: commit cost and store versions
# ----------------------------------------------------------------------


def _synthetic_run(seed: int, workload: str) -> IngestRun:
    rng = np.random.default_rng(seed)
    profiler = TwoDProfiler(12, ProfilerConfig(slice_size=64, keep_series=True))
    profiler.record_batch(rng.integers(0, 12, 4000), rng.integers(0, 2, 4000))
    return IngestRun(profiler.finish(), workload, "live", "synthetic", source="test")


def _grown_store(root: Path, runs: int) -> ProfileWarehouse:
    """A store of ``runs`` runs: one real run plus records that copy it."""
    warehouse = ProfileWarehouse(root)
    [first] = warehouse.ingest([_synthetic_run(0, "seed")])
    record = warehouse.manifest().runs[first]
    with ManifestFile(warehouse.manifest_path).commit() as manifest:
        for index in range(runs - 1):
            manifest.add_run(dataclasses.replace(
                record, run_id=manifest.allocate_run_id(), input=f"copy{index}"))
    return warehouse


class TestCommitCost:
    """A one-run commit costs the same whatever the store holds.

    Counted in bytes parsed and written, not timed."""

    @staticmethod
    def _one_run_ingest(warehouse, monkeypatch) -> tuple[str, int, int]:
        """(run id, snapshot bytes parsed, manifest bytes written) of one
        one-run ingest through a warm instance."""
        warehouse.manifest()
        parsed = []
        real = manifest_mod._parse_snapshot

        def counting(data, path):
            parsed.append(len(data))
            return real(data, path)

        def manifest_bytes():
            return sum(path.stat().st_size for path in
                       (warehouse.manifest_path, warehouse.log_path) if path.exists())

        before = manifest_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(manifest_mod, "_parse_snapshot", counting)
            [run_id] = warehouse.ingest([_synthetic_run(1, "probe")])
        return run_id, sum(parsed), manifest_bytes() - before

    def test_one_run_ingest_cost_does_not_grow_with_the_store(self, tmp_path,
                                                               monkeypatch):
        big = _grown_store(tmp_path / "big", 4000)
        # The 4000-run commit outgrew max(snapshot, 1 MiB) and was folded.
        assert big.log_path.stat().st_size == 0
        assert json.loads(big.manifest_path.read_text())["generation"] == 2
        small = _grown_store(tmp_path / "small", 5)

        big_id, big_parsed, big_written = self._one_run_ingest(big, monkeypatch)
        small_id, small_parsed, small_written = self._one_run_ingest(small, monkeypatch)
        assert (big_id, small_id) == ("r004001", "r000006")
        assert big_parsed == small_parsed == 0
        # One log record each; only next_run's digits differ.
        assert 0 < small_written <= big_written <= small_written + 8
        assert big.manifest_path.stat().st_size > 1 << 20
        assert len(ProfileWarehouse(big.root).runs()) == 4001

    def test_small_commits_append_until_the_log_outgrows_the_snapshot(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(manifest_mod, "FOLD_MIN_BYTES", 0)
        warehouse = ProfileWarehouse(tmp_path / "wh")
        generations = []
        for seed in range(8):
            warehouse.ingest([_synthetic_run(seed, f"w{seed}")])
            snapshot = warehouse.manifest_path.read_bytes()
            log = warehouse.log_path.read_bytes() if warehouse.log_path.exists() else b""
            assert len(log) <= len(snapshot)
            generations.append(json.loads(snapshot)["generation"])
        # Some commits appended, and some appends triggered a fold.
        assert generations[0] == 1 and generations[-1] > 1
        assert len(set(generations)) < len(generations)
        assert [rec.workload for rec in ProfileWarehouse(warehouse.root).runs()] == [
            f"w{seed}" for seed in range(8)]


def _scanned_dedupe_index(warehouse, keys) -> dict:
    """Dedupe lookup by a scan over every stored run: the index's oracle."""
    manifest = warehouse.manifest()
    index = {}
    for key in set(keys):
        rec = warehouse._latest_valid(manifest, [
            rec for rec in manifest.runs.values()
            if rec.key + (rec.digest, rec.scale) == key])
        if rec is not None:
            index[key] = rec.run_id
    return index


class TestDedupeIndex:
    """The per-key index answers exactly what a scan of every run did."""

    @staticmethod
    def _store(root: Path) -> tuple[ProfileWarehouse, list[tuple]]:
        """Duplicates under each key across three segments, the middle one
        corrupt; returns the store and every key it was asked about."""
        warehouse = ProfileWarehouse(root)
        items = [_synthetic_run(seed, f"w{seed % 3}") for seed in range(6)]
        items.append(dataclasses.replace(items[0], scale=0.5))
        warehouse.ingest(items, dedupe=False)
        warehouse.ingest(items[:1])  # builds the index; later commits update it
        [corrupt, *_] = warehouse.ingest(items[:4], dedupe=False)
        warehouse.ingest(items[:1], dedupe=False)
        segment = warehouse.manifest().runs[corrupt].segment
        path = warehouse.segments_root / segment / "segment.bin"
        path.write_bytes(path.read_bytes()[:100])
        keys = [warehouse._prepare(item)[0] for item in items]
        keys.append(keys[0][:3] + ("no-such-digest", 1.0))
        return warehouse, keys

    def test_index_matches_a_full_scan(self, tmp_path):
        warehouse, keys = self._store(tmp_path / "wh")
        expected = _scanned_dedupe_index(warehouse, keys)
        # The corrupt segment's copies are misses: w1 and w2 fall back to
        # the first segment, w0 finds its newest copy in the third.
        assert sorted(expected.values()) == ["r000005", "r000006", "r000007", "r000012"]
        assert warehouse._dedupe_index(keys) == expected
        assert ProfileWarehouse(warehouse.root)._dedupe_index(keys) == expected

        # Purging the corrupt runs rebuilds the index; it still agrees.
        warehouse.gc(purge_corrupt=True)
        assert warehouse._dedupe_index(keys) == _scanned_dedupe_index(warehouse, keys)
        assert ProfileWarehouse(warehouse.root)._dedupe_index(keys) == expected

    def test_lookup_does_not_scan_the_store(self, tmp_path, monkeypatch):
        """Once built, the index is kept current: a one-run ingest digests
        only its own run's config, however many runs are stored."""
        warehouse = _grown_store(tmp_path / "wh", 50)
        warehouse.ingest([_synthetic_run(1, "warm")])  # builds the index
        digests = []
        real = layout_mod.config_digest

        def counting(config):
            digests.append(config)
            return real(config)

        monkeypatch.setattr(layout_mod, "config_digest", counting)
        [run_id] = warehouse.ingest([_synthetic_run(2, "probe")])
        assert len(digests) <= 1
        assert warehouse.ingest([_synthetic_run(2, "probe")]) == [run_id]


class TestFsyncsPerIngest:
    def test_an_ingest_fsyncs_twice(self, tmp_path, monkeypatch):
        """One for the segment file, one for the manifest: the first
        ingest folds into a new snapshot, the later ones append to the log."""
        warehouse = ProfileWarehouse(tmp_path / "wh")
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        for seed in range(3):
            calls.clear()
            warehouse.ingest([_synthetic_run(seed, f"w{seed}")])
            assert len(calls) == 2
        assert [len(body["runs"]) for body in _log_bodies(warehouse)] == [1, 1]


def _log_bodies(warehouse) -> list[dict]:
    data = warehouse.log_path.read_bytes()
    return manifest_mod._decode_records(data, warehouse.log_path)[0]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestStoreVersions:
    def test_v1_store_answers_unchanged_then_upgrades(self, stocked, artifacts,
                                                      capsys):
        warehouse, ids = stocked
        catalog = _run_db_cli(capsys, warehouse.root, "query")
        reports = {run_id: serialize_report(warehouse.open_run(run_id).report())
                   for run_id in ids.values()}
        # The same runs in the version-1 format: one snapshot, no log.
        warehouse.manifest_path.write_text(
            json.dumps(_v1_snapshot(warehouse), indent=1, sort_keys=True) + "\n")
        warehouse.log_path.unlink()
        v1 = _manifest_files(warehouse)

        old = ProfileWarehouse(warehouse.root)
        assert _run_db_cli(capsys, old.root, "query") == catalog
        assert {run_id: serialize_report(old.open_run(run_id).report())
                for run_id in ids.values()} == reports
        assert old.check() == []
        assert old.ingest([_item(artifacts, "train")]) == [ids["train"]]
        assert _manifest_files(old) == v1, "reading a v1 store must not write it"

        # Its first commit publishes a snapshot of the current version.
        [fresh] = old.ingest([_item(artifacts, "train", scale=0.5)])
        data = json.loads(old.manifest_path.read_text())
        assert (data["version"], data["generation"]) == (STORE_VERSION, 1)
        assert sorted(data["runs"]) == sorted([*ids.values(), fresh])
        again = ProfileWarehouse(warehouse.root)
        assert {run_id: serialize_report(again.open_run(run_id).report())
                for run_id in ids.values()} == reports

    def test_v2_store_answers_unchanged_then_compacts_to_one_file(self, tmp_path,
                                                                    capsys):
        """A six-``.npy`` store written by version-2 code (the fixture, with
        its answers recorded by that code) answers the same; reading it
        writes nothing; compaction rewrites it into one ``segment.bin``."""
        store = tmp_path / "wh"
        shutil.copytree(GOLDEN_DIR / "warehouse_v2", store)
        expected = json.loads((GOLDEN_DIR / "warehouse_v2_answers.json").read_text())
        before = _tree_bytes(store)

        def answers() -> dict:
            warehouse = ProfileWarehouse(store)
            runs = warehouse.runs()
            got = {
                "catalog": [line for line in _run_db_cli(capsys, store, "query").splitlines()
                            if not line.startswith("total:")],
                "runs": {rec.run_id: _run_db_cli(capsys, store, "query", rec.run_id)
                         for rec in runs},
                "sites": {rec.run_id: _run_db_cli(capsys, store, "query", rec.run_id,
                                                  "--site", "2") for rec in runs},
                "reports": {rec.run_id: serialize_report(warehouse.open_run(rec).report())
                            for rec in runs},
                "counts": {rec.run_id: [list(map(int, column))
                                        for column in warehouse.open_run(rec).counts()]
                           for rec in runs if rec.has_counts},
            }
            return json.loads(json.dumps(got))

        assert json.loads((store / "manifest.json").read_text())["version"] == 2
        assert answers() == expected
        assert ProfileWarehouse(store).check() == []
        assert _tree_bytes(store) == before, "reading a v2 store must not write it"

        stats = ProfileWarehouse(store).compact()
        assert (stats.runs_rewritten, stats.segments_before, stats.segments_after) == (3, 2, 1)
        data = json.loads((store / "manifest.json").read_text())
        assert data["version"] == STORE_VERSION
        [segment] = data["segments"].values()
        assert list(segment["files"]) == ["segment.bin"]
        assert [path.name for path in (store / "segments").iterdir()] == [segment["uid"]]
        assert [path.name for path in (store / "segments" / segment["uid"]).iterdir()] == [
            "segment.bin"]
        assert answers() == expected

    def test_unknown_version_is_refused(self, stocked):
        with pytest.raises(StoreError, match="unsupported store version 4"):
            Manifest.from_json({"version": 4})
        warehouse, _ids = stocked
        data = json.loads(warehouse.manifest_path.read_text())
        data["version"] = 4
        warehouse.manifest_path.write_text(json.dumps(data))
        with pytest.raises(StoreError, match="unsupported store version 4"):
            ProfileWarehouse(warehouse.root).runs()


# ----------------------------------------------------------------------
# Golden-fixture regression guard
# ----------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"


def _run_db_cli(capsys, store, *argv) -> str:
    from repro.cli import main

    assert main(["db", *argv, "--store", str(store)]) == 0
    return capsys.readouterr().out


def _ingest_run(warehouse, runner, workload, input_name, predictor) -> str:
    report = runner.profile_2d(workload, predictor, input_name=input_name,
                               config=KEEP)
    [run_id] = warehouse.ingest([IngestRun(
        report, workload=workload, input_name=input_name, predictor=predictor,
        scale=SCALE, sim=runner.simulation(workload, input_name, predictor))])
    return run_id


def _check_golden(name: str, actual: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), f"missing fixture {path}; run with REPRO_UPDATE_GOLDEN=1"
    assert actual == path.read_text(), (
        f"{name} drifted; if the change is intentional, regenerate with "
        "REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


class TestGoldenGuard:
    """``db reclassify``/``db diff``/``db join`` output is pinned byte for byte.

    The pinned numbers were produced by the pre-vectorization pipeline,
    so any replay or profiler fast path that shifts a classification —
    even by one site — fails here.  The same reclassify result must also
    match a *fresh* ``profile_trace`` of the trace, closing the loop
    between the warehouse's stored matrices and the live pipeline.
    """

    def test_db_reclassify_matches_golden_and_fresh_profile(
            self, stocked, artifacts, runner, capsys):
        warehouse, ids = stocked
        assert ids["train"] == "r000001", "golden fixture assumes ingest order"

        out = _run_db_cli(capsys, warehouse.root, "reclassify", ids["train"],
                          "--std-th", "0.08")
        _check_golden("warehouse_reclassify_gzipish.txt", out)

        report, _sim = artifacts["train"]
        fresh = profile_trace(
            runner.trace(WORKLOAD, "train"),
            simulation=runner.simulation(WORKLOAD, "train", "gshare"),
            config=ProfilerConfig(thresholds=TestThresholds(std_th=0.08)),
        )
        result = reclassify(warehouse.open_run(ids["train"]), std_th=0.08)
        assert result["input_dependent"] == sorted(fresh.input_dependent_sites())
        assert result["profiled"] == sorted(fresh.profiled_sites())
        # And with the run's own thresholds, the stored matrix reproduces
        # the live report's verdicts.
        default = reclassify(warehouse.open_run(ids["train"]))
        assert default["input_dependent"] == sorted(report.input_dependent_sites())

    def test_db_diff_matches_golden(self, stocked, capsys):
        warehouse, ids = stocked
        out = _run_db_cli(capsys, warehouse.root, "diff",
                          ids["train"], ids["ref"])
        _check_golden("warehouse_diff_gzipish.txt", out)

    def test_db_diff_matches_golden_vortexish(self, stocked, runner, capsys):
        warehouse, _ids = stocked
        ids = {input_name: _ingest_run(warehouse, runner, "vortexish",
                                       input_name, "gshare")
               for input_name in ("train", "ref")}
        assert ids["train"] == "r000003", "golden fixture assumes ingest order"
        out = _run_db_cli(capsys, warehouse.root, "diff",
                          ids["train"], ids["ref"])
        _check_golden("warehouse_diff_vortexish.txt", out)

    def test_db_join_matches_golden(self, stocked, runner, capsys):
        """The gshare-vs-perceptron join, stocked in the CI job's ingest
        order (gzipish, vortexish, then gzipish train under perceptron)."""
        warehouse, ids = stocked
        for input_name in ("train", "ref"):
            _ingest_run(warehouse, runner, "vortexish", input_name, "gshare")
        perceptron = _ingest_run(warehouse, runner, WORKLOAD, "train",
                                 "perceptron")
        assert perceptron == "r000005", "golden fixture assumes ingest order"
        out = _run_db_cli(capsys, warehouse.root, "join", ids["train"],
                          perceptron, "--all")
        _check_golden("warehouse_join_gzipish.txt", out)
