"""Input-population sweep engine: specs, runner, stability reports, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.store import ProfileWarehouse
from repro.sweep import (
    PopulationSpec,
    generate_population,
    population_report,
    population_report_from_store,
    population_runs,
    run_sweep,
)
from repro.workloads import get_workload
from repro.workloads.inputs import rng, variant_seed

SPEC = PopulationSpec(workload="gapish", base_input="ref",
                      size=6, seed=3, scale=0.05)


@pytest.fixture(scope="module")
def sweep_store(tmp_path_factory):
    """One sweep, run once, shared by the read-only report/CLI tests."""
    root = tmp_path_factory.mktemp("sweep") / "wh"
    warehouse = ProfileWarehouse(root, create=True)
    result = run_sweep(SPEC, warehouse=warehouse)
    return warehouse, result, root


class TestVariantSeed:
    def test_variant_changes_the_stream(self):
        base = rng(7).integers(0, 1000, size=8).tolist()
        with variant_seed(3, 1):
            varied = rng(7).integers(0, 1000, size=8).tolist()
        assert base != varied

    def test_variant_is_deterministic(self):
        with variant_seed(3, 1):
            first = rng(7).integers(0, 1000, size=8).tolist()
        with variant_seed(3, 1):
            second = rng(7).integers(0, 1000, size=8).tolist()
        assert first == second

    def test_nesting_restores_previous_variant(self):
        with variant_seed(1):
            outer = rng(7).integers(0, 1000, size=8).tolist()
            with variant_seed(2):
                inner = rng(7).integers(0, 1000, size=8).tolist()
            again = rng(7).integers(0, 1000, size=8).tolist()
        after = rng(7).integers(0, 1000, size=8).tolist()
        assert outer == again != inner
        assert after == rng(7).integers(0, 1000, size=8).tolist()


class TestPopulationSpec:
    def test_tag_roundtrip(self):
        assert PopulationSpec.from_tag(SPEC.tag) == SPEC

    def test_tag_format(self):
        assert SPEC.tag == "sweep:gapish:ref~3x6@s0.05"

    def test_lane_names(self):
        assert SPEC.lane_name(0) == "ref~3.0"
        assert SPEC.lane_names == [f"ref~3.{i}" for i in range(6)]

    def test_size_validation(self):
        with pytest.raises(ExperimentError):
            PopulationSpec(workload="gapish", size=0)

    @pytest.mark.parametrize("tag", ["nope", "sweep:gapish", "sweep:gapish:ref",
                                     "sweep:gapish:ref~ax2@s1"])
    def test_malformed_tags(self, tag):
        with pytest.raises(ExperimentError):
            PopulationSpec.from_tag(tag)


class TestGeneratePopulation:
    def test_lanes_are_named_distinct_and_deterministic(self):
        first = generate_population(SPEC)
        second = generate_population(SPEC)
        assert [s.name for s in first] == SPEC.lane_names
        assert len({s.data for s in first}) == SPEC.size
        assert [(s.data, s.args) for s in first] == \
            [(s.data, s.args) for s in second]

    def test_seed_changes_every_lane(self):
        other = PopulationSpec(workload="gapish", base_input="ref",
                               size=6, seed=4, scale=0.05)
        a = generate_population(SPEC)
        b = generate_population(other)
        assert all(x.data != y.data for x, y in zip(a, b))

    def test_base_input_generation_is_untouched(self):
        # Growing populations must not perturb the plain named inputs.
        workload = get_workload("gapish")
        before = workload.make_input("ref", 0.05)
        generate_population(SPEC)
        after = workload.make_input("ref", 0.05)
        assert before.data == after.data and before.args == after.args


class TestRunSweep:
    def test_in_memory_only(self):
        result = run_sweep(SPEC)
        assert result.tag == SPEC.tag
        assert [lane.input_name for lane in result.lanes] == SPEC.lane_names
        assert result.run_ids == []
        assert result.total_events > 0
        assert all(lane.report.profiled_sites() for lane in result.lanes)

    def test_warehouse_ingest(self, sweep_store):
        warehouse, result, _ = sweep_store
        assert len(result.run_ids) == SPEC.size
        records = population_runs(warehouse, SPEC.tag)
        assert [rec.input for rec in records] == SPEC.lane_names
        assert all(rec.source == SPEC.tag for rec in records)
        assert all(rec.scale == SPEC.scale for rec in records)


class TestPopulationReport:
    def test_live_and_stored_reports_agree(self, sweep_store):
        warehouse, result, _ = sweep_store
        live = population_report(result)
        stored = population_report_from_store(warehouse, SPEC.tag)
        assert set(live.sites) == set(stored.sites)
        for site in live.sites:
            a, b = live.sites[site], stored.sites[site]
            assert (a.lanes, a.dependent, a.verdict) == \
                (b.lanes, b.dependent, b.verdict)
            assert a.mean_acc == pytest.approx(b.mean_acc)
        assert [(ln.lane, ln.flips) for ln in live.lanes] == \
            [(ln.lane, ln.flips) for ln in stored.lanes]

    def test_verdict_partition(self, sweep_store):
        _, result, _ = sweep_store
        report = population_report(result)
        all_sites = set(report.stable_dependent) | \
            set(report.stable_independent) | set(report.flaky)
        assert all_sites == set(report.sites)
        for site in report.stable_dependent:
            assert report.sites[site].dep_fraction == 1.0
        for site in report.stable_independent:
            assert report.sites[site].dep_fraction == 0.0
        for site in report.flaky:
            assert 0.0 < report.sites[site].dep_fraction < 1.0

    def test_extremes_ordering(self, sweep_store):
        _, result, _ = sweep_store
        report = population_report(result)
        conforming, deviant = report.extremes()
        assert conforming.flips <= deviant.flips
        ranked = report.ranked_lanes()
        assert ranked[0] == deviant and ranked[-1] == conforming

    def test_extremes_need_two_lanes(self):
        spec = PopulationSpec(workload="gapish", base_input="ref",
                              size=1, seed=0, scale=0.05)
        report = population_report(run_sweep(spec))
        with pytest.raises(ExperimentError):
            report.extremes()

    def test_json_and_write(self, sweep_store, tmp_path):
        _, result, _ = sweep_store
        report = population_report(result)
        path = report.write(tmp_path / "pop.json")
        doc = json.loads(path.read_text())
        assert doc["tag"] == SPEC.tag
        assert doc["num_lanes"] == SPEC.size
        assert len(doc["sites"]) == doc["num_sites"]
        assert {row["verdict"] for row in doc["sites"]} <= {"dep", "indep", "flaky"}
        rendered = report.render()
        assert SPEC.tag in rendered and "flaky" in rendered

    def test_threshold_overrides_change_verdicts(self, sweep_store):
        warehouse, _, _ = sweep_store
        strict = population_report_from_store(warehouse, SPEC.tag, std_th=1e9,
                                              pam_th=0.499)
        # An impossible STD threshold plus a near-0.5 PAM band kills
        # (almost) every dependent verdict.
        assert len(strict.stable_dependent) <= 1

    def test_report_reads_the_chosen_predictor(self, tmp_path):
        """Sweeping one population under two predictors keeps both lane
        sets apart: the stored report reads the predictor it is asked
        for, and refuses to guess when the tag holds several."""
        spec = PopulationSpec(workload="gapish", base_input="ref",
                              size=3, seed=5, scale=0.05)
        warehouse = ProfileWarehouse(tmp_path / "wh")
        gshare = run_sweep(spec, predictor="gshare", warehouse=warehouse)
        assert gshare.run_ids == ["r000001", "r000002", "r000003"]
        only = population_report_from_store(warehouse, spec.tag)
        perceptron = run_sweep(spec, predictor="perceptron", warehouse=warehouse)
        assert perceptron.run_ids == ["r000004", "r000005", "r000006"]
        assert run_sweep(spec, predictor="gshare",
                         warehouse=warehouse).run_ids == gshare.run_ids

        report = population_report_from_store(warehouse, spec.tag,
                                              predictor="gshare")
        assert report.predictor == "gshare"
        assert [ln.run_id for ln in report.lanes] == gshare.run_ids
        assert report.render() == only.render()
        other = population_report_from_store(warehouse, spec.tag,
                                             predictor="perceptron")
        assert "predictor=perceptron" in other.render()
        assert [ln.run_id for ln in other.lanes] == perceptron.run_ids
        with pytest.raises(ExperimentError, match="gshare, perceptron"):
            population_report_from_store(warehouse, spec.tag)

    def test_failed_lane_commits_no_lane(self, tmp_path, monkeypatch):
        """The population is one batch: a lane that fails before the
        commit leaves the store empty, and a rerun ingests every lane."""
        import repro.sweep.runner as runner_mod

        spec = PopulationSpec(workload="gapish", base_input="ref",
                              size=3, seed=5, scale=0.05)
        warehouse = ProfileWarehouse(tmp_path / "wh")
        real, calls = runner_mod.profile_trace, []

        def fail_last(*args, **kwargs):
            calls.append(1)
            if len(calls) == spec.size:
                raise RuntimeError("lane failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "profile_trace", fail_last)
        with pytest.raises(RuntimeError, match="lane failed"):
            run_sweep(spec, warehouse=warehouse)
        assert warehouse.runs() == []
        monkeypatch.setattr(runner_mod, "profile_trace", real)
        assert run_sweep(spec, warehouse=warehouse).run_ids == [
            "r000001", "r000002", "r000003"]

    def test_missing_population_errors(self, sweep_store):
        warehouse, _, _ = sweep_store
        ghost = PopulationSpec(workload="gapish", base_input="ref",
                               size=4, seed=99, scale=0.05)
        with pytest.raises(ExperimentError, match="incomplete"):
            population_report_from_store(warehouse, ghost.tag)


def test_import_keeps_the_store_out():
    """`sweep` stays below `store`: importing it loads no store module."""
    code = ("import sys, repro.sweep; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.store')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    ).stdout
    assert out.strip() == "[]"


class TestSweepCli:
    def test_run_and_report_and_bisect(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "cache"))
        store = str(tmp_path / "wh")
        spec = PopulationSpec(workload="gapish", base_input="ref",
                              size=4, seed=9, scale=0.05)
        code = main(["--scale", "0.05", "sweep", "run", "gapish",
                     "--size", "4", "--seed", "9", "--store", store])
        out = capsys.readouterr().out
        assert code == 0
        assert spec.tag in out and "4 lane(s)" in out

        code = main(["sweep", "report", spec.tag, "--store", store,
                     "--out", str(tmp_path / "pop.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "stable dependent" in out
        assert json.loads((tmp_path / "pop.json").read_text())["tag"] == spec.tag

        code = main(["db", "bisect", "--population", spec.tag,
                     "--store", store])
        out = capsys.readouterr().out
        assert code == 0
        assert "suspiciousness" in out

        # A second predictor's lanes under the same tag: both commands
        # then need --predictor.
        assert main(["--scale", "0.05", "sweep", "run", "gapish", "--size", "4",
                     "--seed", "9", "--predictor", "bimodal", "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", "report", spec.tag, "--store", store]) == 1
        assert "--predictor" in capsys.readouterr().err
        assert main(["sweep", "report", spec.tag, "--predictor", "bimodal",
                     "--store", store]) == 0
        assert "predictor=bimodal" in capsys.readouterr().out
        assert main(["db", "bisect", "--population", spec.tag, "--predictor",
                     "gshare", "--store", store]) == 0

    def test_run_no_store_prints_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "cache"))
        code = main(["--scale", "0.05", "sweep", "run", "gapish", "--size", "2",
                     "--no-store", "--summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-       " in out  # no run ids without a store
        assert "lanes by consensus flips" in out

    def test_report_unknown_population(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "cache"))
        store = str(tmp_path / "wh")
        ProfileWarehouse(store, create=True)
        code = main(["sweep", "report", "sweep:gapish:ref~0x2@s1",
                     "--store", store])
        assert code == 1  # incomplete population -> clean CLI error

    def test_bisect_argument_validation(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "cache"))
        store = str(tmp_path / "wh")
        ProfileWarehouse(store, create=True)
        assert main(["db", "bisect", "--store", store]) == 2
        assert main(["db", "bisect", "r000001", "r000002", "--population",
                     "sweep:gapish:ref~0x2@s1", "--store", store]) == 2
