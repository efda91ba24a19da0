"""Tests for the analysis layer: table builders, time series, overhead."""

import math

import pytest

from repro.analysis.overhead import MODES, measure_overheads, run_mode
from repro.analysis.tables import (
    ACCURACY_BINS,
    fig2_rows,
    fig3_rows,
    fig10_rows,
    format_fraction,
    format_table,
    render_rows,
    table1_rows,
)
from repro.analysis.timeseries import (
    figure8_series,
    pick_exemplars,
    render_ascii_series,
    site_series,
)
from repro.core.profiler2d import ProfilerConfig, profile_trace
from repro.predictors import make_predictor, simulate
from repro.trace.synthetic import phased_trace
from repro.vm import Machine
from repro.workloads import get_workload


class TestFormatting:
    def test_format_fraction_nan(self):
        assert format_fraction(float("nan")) == "n/a"

    def test_format_fraction_value(self):
        assert format_fraction(0.876) == "0.88"

    def test_format_table_alignment(self):
        text = format_table(["a", "long"], [["1", "2"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "long" in lines[1]

    def test_render_rows_percent(self):
        rows = [{"w": "x", "v": 0.5}]
        text = render_rows(rows, percent_keys=("v",))
        assert "50.0%" in text

    def test_render_rows_empty(self):
        assert render_rows([], title="T") == "T"

    def test_accuracy_bins_cover_unit_interval(self):
        assert ACCURACY_BINS[0][0] == 0.0
        for (lo, hi, _), (lo2, _hi2, _) in zip(ACCURACY_BINS, ACCURACY_BINS[1:]):
            assert hi == lo2
        assert ACCURACY_BINS[-1][1] > 1.0


class TestFig2:
    def test_crossover_visible_in_rows(self):
        rows = fig2_rows(points=21)
        below = [r for r in rows if r["misp_rate"] < 0.06]
        above = [r for r in rows if r["misp_rate"] > 0.08]
        assert all(r["branch_cost"] < r["predicated_cost"] for r in below)
        assert all(r["branch_cost"] > r["predicated_cost"] for r in above)


class TestRowBuilders:
    def test_table1_rows(self, tiny_runner):
        rows = table1_rows(tiny_runner)
        assert len(rows) == 12
        for row in rows:
            assert 0.0 <= row["train"] <= 1.0
            assert 0.0 <= row["ref"] <= 1.0

    def test_fig3_rows_sorted(self, tiny_runner):
        rows = fig3_rows(tiny_runner)
        dynamics = [r["dynamic"] for r in rows]
        assert dynamics == sorted(dynamics, reverse=True)

    def test_fig10_rows_have_metrics(self, tiny_runner):
        rows = fig10_rows(tiny_runner)
        assert len(rows) == 12
        for row in rows:
            for key in ("COV-dep", "ACC-dep", "COV-indep", "ACC-indep"):
                value = row[key]
                assert math.isnan(value) or 0.0 <= value <= 1.0


class TestTimeseries:
    def test_pick_exemplars_on_synthetic(self):
        trace, _stationary, phased = phased_trace(6, 2, 20_000, seed=41)
        sim = simulate(make_predictor("bimodal"), trace)
        report = profile_trace(trace, simulation=sim,
                               config=ProfilerConfig(keep_series=True))
        varying, flat = pick_exemplars(report)
        assert varying in phased
        assert report.stats[flat].std <= report.stats[varying].std

    def test_site_series_extraction(self):
        trace, _s, _p = phased_trace(4, 2, 10_000, seed=42)
        sim = simulate(make_predictor("bimodal"), trace)
        report = profile_trace(trace, simulation=sim,
                               config=ProfilerConfig(keep_series=True))
        series = site_series(report, 0, label="x")
        assert series.label == "x"
        assert len(series.points) == len(series.accuracies)

    def test_figure8_series_end_to_end(self, tiny_runner):
        varying, flat, overall = figure8_series(tiny_runner, "gapish", slices=20)
        assert varying.points and flat.points and overall
        assert varying.std >= flat.std

    def test_ascii_render(self):
        trace, _s, _p = phased_trace(2, 1, 5_000, seed=43)
        sim = simulate(make_predictor("bimodal"), trace)
        report = profile_trace(trace, simulation=sim,
                               config=ProfilerConfig(keep_series=True))
        text = render_ascii_series(site_series(report, 0))
        assert "mean=" in text and "|" in text


class TestOverhead:
    def test_all_modes_run(self):
        wl = get_workload("mcfish")
        machine = Machine(wl.program())
        input_set = wl.make_input("train", 0.02)
        for mode in MODES:
            run_mode(machine, input_set, mode)

    def test_unknown_mode_rejected(self):
        wl = get_workload("mcfish")
        machine = Machine(wl.program())
        with pytest.raises(ValueError, match="unknown overhead mode"):
            run_mode(machine, wl.make_input("train", 0.02), "turbo")

    def test_measure_overheads_normalized(self):
        # Best of 3: a cold first `binary` run would inflate the baseline.
        rows = measure_overheads("mcfish", scale=0.02, repeats=3)
        by_mode = {r.mode: r for r in rows}
        assert by_mode["binary"].normalized == pytest.approx(1.0)
        # Instrumented modes cannot be faster than the bare binary by much
        # (tolerance for timing noise at tiny scale).
        assert by_mode["2d+gshare"].normalized > 0.8

    def test_tools_produce_results(self):
        wl = get_workload("vortexish")
        machine = Machine(wl.program())
        input_set = wl.make_input("train", 0.02)
        edge_tool = run_mode(machine, input_set, "edge")
        assert sum(edge_tool.exec_counts) > 0
        predictor_tool = run_mode(machine, input_set, "gshare")
        assert predictor_tool.overall_accuracy > 0.0
        online = run_mode(machine, input_set, "2d+gshare", slice_size=500)
        report = online.finish()
        assert report.profiled_sites()
