"""Tests for the 2D edge-profiling (bias) variant."""

import pytest

from repro.core.edge2d import Edge2DProfiler
from repro.core.profiler2d import ProfilerConfig
from repro.trace.synthetic import SiteSpec, bernoulli_site, interleave_sites


@pytest.fixture(scope="module")
def bias_trace():
    streams = {
        0: bernoulli_site(40_000, SiteSpec.stationary(0.9), seed=31),   # stable high bias
        1: bernoulli_site(40_000, SiteSpec.stationary(0.5), seed=32),   # stable mid bias
        2: bernoulli_site(40_000, SiteSpec.two_phase(0.2, 0.8), seed=33),  # bias flips
        3: bernoulli_site(40_000, SiteSpec.two_phase(0.9, 0.6), seed=34),  # bias shifts
    }
    return interleave_sites(streams, seed=35)


class TestEdge2D:
    def test_bias_varying_sites_detected(self, bias_trace):
        report = Edge2DProfiler().profile(bias_trace)
        detected = report.input_dependent_sites()
        assert {2, 3} <= detected

    def test_stable_sites_not_detected(self, bias_trace):
        report = Edge2DProfiler().profile(bias_trace)
        detected = report.input_dependent_sites()
        assert 0 not in detected
        assert 1 not in detected  # mid bias but *stable* -> STD fails

    def test_profiled_sites(self, bias_trace):
        report = Edge2DProfiler().profile(bias_trace)
        assert report.profiled_sites() == {0, 1, 2, 3}

    def test_custom_thresholds(self, bias_trace):
        strict = Edge2DProfiler(std_th=0.5)  # Impossible bar: nothing detected.
        assert not strict.profile(bias_trace).input_dependent_sites()

    def test_series_passthrough(self, bias_trace):
        profiler = Edge2DProfiler(config=ProfilerConfig(keep_series=True))
        report = profiler.profile(bias_trace)
        indices, biases = report.site_series(2)
        assert len(indices) > 0
        assert ((biases >= 0) & (biases <= 1)).all()
        _indices, stable = report.site_series(0)
        assert stable.mean() == pytest.approx(0.9, abs=0.02)
