"""Tests for the markdown report generator and remaining small surfaces."""

import pytest

from repro.analysis import tables
from repro.analysis.reportgen import generate_report, write_report
from repro.cli import main
from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.errors import (
    ExperimentError,
    FuelExhausted,
    LexError,
    MinicError,
    ParseError,
    ReproError,
    SemanticError,
    TraceError,
    VMError,
    VMRuntimeError,
)
from repro.vm.inputs import InputSet


class _RecordingRunner(ExperimentRunner):
    """Records every simulation and trace a row builder asks for."""

    def __init__(self, config: SuiteConfig):
        super().__init__(config)
        self.sims: set = set()
        self.traces: set = set()

    def simulation(self, workload, input_name, predictor="gshare"):
        self.sims.add((workload, input_name, predictor))
        return super().simulation(workload, input_name, predictor)

    def trace(self, workload, input_name):
        self.traces.add((workload, input_name))
        return super().trace(workload, input_name)


class TestReportGenerator:
    @pytest.fixture(scope="class")
    def report_cache(self, tmp_path_factory):
        return tmp_path_factory.mktemp("rg")

    @pytest.fixture(scope="class")
    def report_text(self, report_cache):
        runner = ExperimentRunner(SuiteConfig(scale=0.03, cache_dir=report_cache))
        return generate_report(runner, include_whatif=True,
                               whatif_workloads=("vortexish",))

    @pytest.mark.parametrize("key", list(tables.FIGURES))
    def test_needs_are_what_the_builder_reads(self, key, report_text, report_cache):
        """`fig --jobs`, `warm` and the bench warm-up prefetch exactly these."""
        runner = _RecordingRunner(SuiteConfig(scale=0.03, cache_dir=report_cache))
        figure = tables.FIGURES[key]
        figure.rows(runner)
        needs = figure.needs()
        assert runner.sims == set(needs)
        assert runner.traces <= {(workload, inp) for workload, inp, _ in needs}

    @pytest.mark.parametrize("key", list(tables.FIGURES))
    def test_fig_prints_the_report_section(self, key, report_text, report_cache,
                                           monkeypatch, capsys):
        monkeypatch.setenv("REPRO_2DPROF_CACHE", str(report_cache))
        assert main(["--scale", "0.03", "fig", key]) == 0
        title, body = capsys.readouterr().out.split("\n", 1)
        assert f"## {title}\n\n```\n{body}```\n" in report_text

    def test_contains_every_section(self, report_text):
        for heading in ("Figure 2", "Figure 3", "Figure 4", "Figure 5",
                        "Table 1", "Table 2", "Figure 8", "Figure 10",
                        "Figure 11", "Figure 12", "Figure 13", "Figure 14",
                        "Figure 15", "Table 4", "what-if"):
            assert heading in report_text, f"missing section {heading}"

    def test_all_workloads_appear(self, report_text):
        from repro.workloads import workload_names

        for name in workload_names():
            assert name in report_text

    def test_write_report(self, tmp_path):
        runner = ExperimentRunner(
            SuiteConfig(scale=0.03, cache_dir=tmp_path / "cache")
        )
        out = write_report(runner, tmp_path / "sub" / "r.md", include_whatif=False)
        assert out.exists()
        assert "what-if" not in out.read_text()


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (MinicError, LexError, ParseError, SemanticError,
                         VMError, VMRuntimeError, FuelExhausted, TraceError,
                         ExperimentError):
            assert issubclass(exc_type, ReproError)

    def test_minic_error_location_formatting(self):
        error = ParseError("bad token", line=3, column=7)
        assert "line 3:7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_minic_error_without_location(self):
        error = SemanticError("no main")
        assert "line" not in str(error)

    def test_fuel_exhausted_carries_count(self):
        error = FuelExhausted(12345)
        assert error.executed == 12345
        assert "12345" in str(error)


class TestInputSet:
    def test_make_coerces_iterables(self):
        input_set = InputSet.make("x", data=(str(i) for i in range(3)), args=[1.0])
        assert input_set.data == (0, 1, 2)
        assert input_set.args == (1,)

    def test_len_is_data_length(self):
        assert len(InputSet.make("x", data=[1, 2, 3])) == 3

    def test_describe(self):
        text = InputSet.make("ref", data=[1], args=[9]).describe()
        assert "ref" in text and "1 data words" in text

    def test_frozen(self):
        input_set = InputSet.make("x")
        with pytest.raises(AttributeError):
            input_set.name = "y"
