"""Unit tests for the Pin-style instrumentation tools."""

import pytest

from repro.lang import compile_source
from repro.predictors import paper_gshare, make_predictor
from repro.vm import InputSet, Machine
from repro.vm.instrument import EdgeProfilerTool, NullTool, PredictorTool

BIASED_SOURCE = """
func main() {
    var taken = 0;
    var i;
    for (i = 0; i < 100; i += 1) {
        if (i % 10 != 0) { taken += 1; }   // 90% taken if-branch
    }
    return taken;
}
"""


@pytest.fixture(scope="module")
def biased_program():
    return compile_source(BIASED_SOURCE)


def run_with(program, tool):
    machine = Machine(program)
    result = machine.run(InputSet.make("t"), mode="callback", hook=tool.on_branch)
    return result


class TestNullTool:
    def test_callback_runs_to_completion(self, biased_program):
        result = run_with(biased_program, NullTool())
        assert result.return_value == 90


class TestEdgeProfiler:
    def test_counts_sum_to_branch_count(self, biased_program):
        tool = EdgeProfilerTool(biased_program.num_sites)
        result = run_with(biased_program, tool)
        assert sum(tool.exec_counts) == result.branches

    def test_bias_matches_source_semantics(self, biased_program):
        tool = EdgeProfilerTool(biased_program.num_sites)
        run_with(biased_program, tool)
        # Find the if-branch: executed 100 times.
        if_sites = [s for s, c in enumerate(tool.exec_counts) if c == 100]
        assert if_sites
        bias = tool.taken_counts[if_sites[0]] / 100
        # The branch is either ~90% or ~10% taken depending on codegen
        # polarity; its bias must reflect the 90/10 split.
        assert bias == pytest.approx(0.9, abs=0.011) or bias == pytest.approx(0.1, abs=0.011)

    def test_biases_skips_unexecuted(self, biased_program):
        tool = EdgeProfilerTool(biased_program.num_sites + 5)
        run_with(biased_program, tool)
        assert all(tool.exec_counts[s] for s in tool.biases())


class TestPredictorTool:
    def test_overall_accuracy_in_range(self, biased_program):
        tool = PredictorTool(paper_gshare(), biased_program.num_sites)
        run_with(biased_program, tool)
        assert 0.0 < tool.overall_accuracy <= 1.0

    def test_correct_never_exceeds_executed(self, biased_program):
        tool = PredictorTool(make_predictor("bimodal"), biased_program.num_sites)
        run_with(biased_program, tool)
        for executed, correct in zip(tool.exec_counts, tool.correct_counts):
            assert 0 <= correct <= executed

    def test_always_taken_accuracy_equals_bias(self, biased_program):
        edge = EdgeProfilerTool(biased_program.num_sites)
        run_with(biased_program, edge)
        tool = PredictorTool(make_predictor("always-taken"), biased_program.num_sites)
        run_with(biased_program, tool)
        for site, bias in edge.biases().items():
            assert tool.correct_counts[site] / tool.exec_counts[site] == pytest.approx(bias)
