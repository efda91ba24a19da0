"""Tests for the 2D-profiling algorithm: online/offline equivalence,
detection behaviour on known synthetic phase structure, configuration
resolution, and the Figure 8 time-series surface.
"""

import json

import numpy as np
import pytest

from repro.core.stats import TestThresholds
from repro.errors import ExperimentError
from repro.core.profiler2d import (
    OnlineProfilerTool,
    ProfilerConfig,
    TwoDProfiler,
    profile_trace,
)
from repro.predictors import make_predictor, simulate
from repro.trace.synthetic import phased_trace


@pytest.fixture(scope="module")
def mixed_trace():
    trace, stationary, phased = phased_trace(8, 4, 30_000, seed=21)
    sim = simulate(make_predictor("bimodal"), trace)
    return trace, sim, stationary, phased


class TestConfigResolution:
    def test_auto_slice_size_targets_slices(self):
        config = ProfilerConfig().resolve(total_branches=800_000)
        assert config.slice_size == 800_000 // 80

    def test_auto_slice_size_floor(self):
        config = ProfilerConfig().resolve(total_branches=1000)
        assert config.slice_size == 500

    def test_exec_threshold_scales_with_slice(self):
        config = ProfilerConfig(slice_size=15_000_000).resolve(0)
        assert config.exec_threshold == 1000  # The paper's exact ratio.

    def test_explicit_values_respected(self):
        config = ProfilerConfig(slice_size=1234, exec_threshold=7).resolve(10**9)
        assert config.slice_size == 1234 and config.exec_threshold == 7

    def test_pam_exact_forces_series(self):
        config = ProfilerConfig(slice_size=100, pam_exact=True).resolve(0)
        assert config.keep_series


class TestConfigCodec:
    def test_to_dict_is_the_resolved_json_projection(self):
        encoded = ProfilerConfig(slice_size=1500, pam_exact=True).to_dict()
        assert encoded == {
            "slice_size": 1500, "exec_threshold": 4, "mean_th": None,
            "std_th": 0.04, "pam_th": 0.05, "use_fir": True,
            "fir_cold_start": False, "pam_exact": True, "keep_series": True,
        }
        assert json.loads(json.dumps(encoded)) == encoded

    def test_to_dict_needs_slice_size(self):
        with pytest.raises(ExperimentError, match="slice_size"):
            ProfilerConfig().to_dict()

    def test_from_dict_defaults_ignores_extras_accepts_numpy(self):
        assert ProfilerConfig.from_dict({"op": "open", "session": "s"}) == ProfilerConfig()
        decoded = ProfilerConfig.from_dict({
            "slice_size": np.int64(700), "std_th": np.float64(0.1),
            "pam_th": 0, "use_fir": np.bool_(False), "N": np.zeros(3),
        })
        assert decoded == ProfilerConfig(
            slice_size=700, thresholds=TestThresholds(std_th=0.1, pam_th=0.0),
            use_fir=False)
        assert type(decoded.slice_size) is int and type(decoded.use_fir) is bool

    @pytest.mark.parametrize("key, value", [
        ("slice_size", True), ("slice_size", 2.5), ("slice_size", 0),
        ("exec_threshold", -1), ("exec_threshold", np.bool_(True)),
        ("mean_th", [1]), ("std_th", "abc"), ("std_th", False),
        ("pam_th", None), ("use_fir", "no"), ("use_fir", 1),
        ("keep_series", None),
    ])
    def test_from_dict_rejects_bad_fields(self, key, value):
        with pytest.raises(ExperimentError, match=key):
            ProfilerConfig.from_dict({key: value})


class TestDetection:
    def test_phased_sites_detected(self, mixed_trace):
        trace, sim, stationary, phased = mixed_trace
        report = profile_trace(trace, simulation=sim)
        detected = report.input_dependent_sites()
        assert phased <= detected, f"missed {phased - detected}"

    def test_high_accuracy_stationary_not_detected(self, mixed_trace):
        trace, sim, stationary, phased = mixed_trace
        report = profile_trace(trace, simulation=sim)
        detected = report.input_dependent_sites()
        strong = {
            s for s in stationary
            if report.stats[s].mean > report.overall_accuracy
        }
        assert not (detected & strong)

    def test_verdict_fields_consistent(self, mixed_trace):
        trace, sim, _stationary, _phased = mixed_trace
        report = profile_trace(trace, simulation=sim)
        for site, verdict in report.verdicts().items():
            assert verdict.site_id == site
            assert verdict.n_slices > 0
            assert 0.0 <= verdict.mean <= 1.0
            assert verdict.input_dependent == (
                (verdict.passed_mean or verdict.passed_std) and verdict.passed_pam
            )

    def test_profiled_sites_subset_of_all(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        report = profile_trace(trace, simulation=sim)
        assert report.input_dependent_sites() <= report.profiled_sites()
        assert all(0 <= s < trace.num_sites for s in report.profiled_sites())

    def test_no_fir_changes_std(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        with_fir = profile_trace(trace, simulation=sim)
        without = profile_trace(
            trace, simulation=sim, config=ProfilerConfig(use_fir=False)
        )
        # The FIR filter smooths: per-branch std should not grow.
        for site in with_fir.profiled_sites():
            assert with_fir.stats[site].std <= without.stats[site].std + 1e-9


class TestOnlineOfflineEquivalence:
    def test_statistics_identical(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        config = ProfilerConfig(slice_size=len(trace) // 50)
        offline = profile_trace(trace, simulation=sim, config=config)
        online = TwoDProfiler(trace.num_sites, config)
        for site, correct in zip(trace.sites.tolist(), sim.correct.tolist()):
            online.record(site, correct)
        online_report = online.finish()
        for site in range(trace.num_sites):
            a = offline.stats[site]
            b = online_report.stats[site]
            assert a.N == b.N
            assert a.SPA == pytest.approx(b.SPA, abs=1e-9)
            assert a.SSPA == pytest.approx(b.SSPA, abs=1e-9)
            assert a.NPAM == b.NPAM
        assert offline.input_dependent_sites() == online_report.input_dependent_sites()

    def test_online_requires_slice_size(self):
        with pytest.raises(ExperimentError, match="slice_size"):
            TwoDProfiler(4, ProfilerConfig())

    def test_partial_tail_slice_rule(self):
        # A tail of >= slice_size/2 branches is folded; a smaller one is not.
        config = ProfilerConfig(slice_size=100, exec_threshold=0)
        big_tail = TwoDProfiler(1, config)
        for _ in range(160):
            big_tail.record(0, 1)
        assert big_tail.finish().stats[0].N == 2

        small_tail = TwoDProfiler(1, config)
        for _ in range(140):
            small_tail.record(0, 1)
        assert small_tail.finish().stats[0].N == 1

        # With slice_size 1 every slice closes on its event: no phantom
        # empty tail slice is folded at finish().
        single = TwoDProfiler(1, ProfilerConfig(slice_size=1, exec_threshold=0))
        for _ in range(3):
            single.record(0, 1)
        assert len(single.finish().slice_overall) == 3


class TestProfileTraceValidation:
    def test_requires_exactly_one_source(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        with pytest.raises(ExperimentError, match="exactly one"):
            profile_trace(trace)
        with pytest.raises(ExperimentError, match="exactly one"):
            profile_trace(trace, predictor=make_predictor("bimodal"), simulation=sim)

    def test_mismatched_simulation_rejected(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        short = trace.slice_view(0, len(trace) // 2)
        with pytest.raises(ExperimentError, match="match"):
            profile_trace(short, simulation=sim)

    def test_predictor_path_equals_simulation_path(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        by_predictor = profile_trace(trace, predictor=make_predictor("bimodal"))
        by_simulation = profile_trace(trace, simulation=sim)
        assert (by_predictor.input_dependent_sites()
                == by_simulation.input_dependent_sites())


class TestSeries:
    def test_series_surface_shape(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        config = ProfilerConfig(keep_series=True)
        report = profile_trace(trace, simulation=sim, config=config)
        slices = report.series.shape[0]
        assert report.series.shape == (slices, trace.num_sites)
        assert report.slice_overall.shape == (slices,)

    def test_site_series_values_in_range(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        report = profile_trace(trace, simulation=sim,
                               config=ProfilerConfig(keep_series=True))
        site = next(iter(report.profiled_sites()))
        indices, accuracies = report.site_series(site)
        assert len(indices) == len(accuracies) > 0
        assert ((accuracies >= 0) & (accuracies <= 1)).all()

    def test_site_series_without_keep_raises(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        report = profile_trace(trace, simulation=sim)
        with pytest.raises(ExperimentError, match="keep_series"):
            report.site_series(0)

    def test_slice_overall_tracks_program(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        report = profile_trace(trace, simulation=sim,
                               config=ProfilerConfig(keep_series=True))
        assert report.slice_overall.mean() == pytest.approx(
            report.overall_accuracy, abs=0.02
        )


class TestExactPAM:
    def test_exact_pam_recomputes_npam(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        running = profile_trace(trace, simulation=sim)
        exact = profile_trace(trace, simulation=sim,
                              config=ProfilerConfig(pam_exact=True))
        # The running-mean approximation (paper footnote 5) tracks the
        # exact points-above-mean count loosely on phased branches: the
        # running mean trails a step change, so bound at a third of N.
        for site in range(trace.num_sites):
            if running.stats[site].N:
                assert abs(running.stats[site].NPAM - exact.stats[site].NPAM) <= max(
                    3, running.stats[site].N // 3
                )


class TestOnlineProfilerTool:
    def test_tool_combines_predictor_and_profiler(self, mixed_trace):
        trace, _sim, _s, _p = mixed_trace
        config = ProfilerConfig(slice_size=len(trace) // 40)
        tool = OnlineProfilerTool(make_predictor("bimodal"), trace.num_sites, config)
        for site, taken in zip(trace.sites.tolist(), trace.outcomes.tolist()):
            tool.on_branch(site, taken)
        report = tool.finish()
        offline = profile_trace(trace, predictor=make_predictor("bimodal"), config=config)
        assert report.input_dependent_sites() == offline.input_dependent_sites()


def _exact_report_fingerprint(report):
    """Every per-site scalar plus the report-level summary, bit-exact.

    Floats are compared through ``.hex()`` so the assertion fails on any
    bit difference rather than hiding one behind ``==`` tolerance quirks
    (e.g. ``-0.0 == 0.0``).
    """
    rows = []
    for s in report.stats:
        rows.append((
            s.N,
            float(s.SPA).hex(),
            float(s.SSPA).hex(),
            s.NPAM,
            float(s.LPA).hex(),
            s.exec_counter,
            s.predict_counter,
        ))
    return (
        rows,
        float(report.overall_accuracy).hex(),
        report.profiled_sites(),
        report.input_dependent_sites(),
    )


def _tool_report(trace, config):
    """Replay ``trace`` through the online tool with a fresh predictor."""
    tool = OnlineProfilerTool(make_predictor("bimodal"), trace.num_sites, config)
    for site, taken in zip(trace.sites.tolist(), trace.outcomes.tolist()):
        tool.on_branch(site, taken)
    return tool.finish()


class TestTruncatedTraceEquivalence:
    """OnlineProfilerTool must match offline profile_trace bit-for-bit on
    truncated prefixes — the property the streaming service relies on when
    a producer dies mid-slice and the run is replayed from a checkpoint.
    """

    SLICE = 600

    def _compare(self, mixed_trace, length):
        trace, _sim, _s, _p = mixed_trace
        short = trace.slice_view(0, length)
        config = ProfilerConfig(slice_size=self.SLICE)
        offline = profile_trace(
            short, predictor=make_predictor("bimodal"), config=config
        )
        online = _tool_report(short, config)
        assert _exact_report_fingerprint(online) == _exact_report_fingerprint(offline)

    def test_mid_slice_truncations(self, mixed_trace):
        # Cuts landing at awkward offsets inside a slice, including one
        # event past a boundary and one event before the next boundary.
        for length in (self.SLICE * 7 + 1, self.SLICE * 11 - 1,
                       self.SLICE * 13 + 317):
            self._compare(mixed_trace, length)

    def test_empty_last_slice(self, mixed_trace):
        # Length an exact multiple of slice_size: the final slice closes
        # on the last event and finish() must not fold a phantom tail.
        self._compare(mixed_trace, self.SLICE * 9)

    def test_single_slice_run(self, mixed_trace):
        self._compare(mixed_trace, self.SLICE)

    def test_sub_slice_run_folds_big_tail(self, mixed_trace):
        # Shorter than one slice but >= slice_size/2: folded as one slice.
        self._compare(mixed_trace, self.SLICE // 2 + 10)

    def test_sub_half_slice_run_drops_tail(self, mixed_trace):
        # Shorter than slice_size/2: no slice at all, nothing profiled.
        trace, _sim, _s, _p = mixed_trace
        short = trace.slice_view(0, self.SLICE // 2 - 10)
        config = ProfilerConfig(slice_size=self.SLICE)
        report = _tool_report(short, config)
        assert report.profiled_sites() == set()
        self._compare(mixed_trace, self.SLICE // 2 - 10)


class TestStateRoundtrip:
    def test_mid_slice_snapshot_resumes_identically(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        config = ProfilerConfig(slice_size=700)
        sites = trace.sites.tolist()
        correct = sim.correct.tolist()
        cut = 700 * 5 + 123  # mid-slice

        straight = TwoDProfiler(trace.num_sites, config)
        for site, ok in zip(sites, correct):
            straight.record(site, ok)

        first = TwoDProfiler(trace.num_sites, config)
        for site, ok in zip(sites[:cut], correct[:cut]):
            first.record(site, ok)
        resumed = TwoDProfiler.from_state(first.state_dict())
        for site, ok in zip(sites[cut:], correct[cut:]):
            resumed.record(site, ok)

        assert (_exact_report_fingerprint(resumed.finish())
                == _exact_report_fingerprint(straight.finish()))

    def test_state_dict_snapshot_is_independent(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        config = ProfilerConfig(slice_size=500)
        profiler = TwoDProfiler(trace.num_sites, config)
        profiler.record_batch(trace.sites[:2000], sim.correct[:2000])
        state = profiler.state_dict()
        profiler.record_batch(trace.sites[2000:4000], sim.correct[2000:4000])
        # Mutating the original after the snapshot must not leak through.
        assert int(state["total_branches"]) == 2000
        clone = TwoDProfiler.from_state(state)
        assert clone.total_branches == 2000
        assert profiler.total_branches == 4000

    def test_from_state_rejects_bad_version(self, mixed_trace):
        trace, _sim, _s, _p = mixed_trace
        profiler = TwoDProfiler(trace.num_sites, ProfilerConfig(slice_size=500))
        state = profiler.state_dict()
        state["state_version"] = np.int64(99)
        with pytest.raises(ExperimentError, match="version"):
            TwoDProfiler.from_state(state)

    def test_from_state_rejects_missing_array(self, mixed_trace):
        trace, _sim, _s, _p = mixed_trace
        profiler = TwoDProfiler(trace.num_sites, ProfilerConfig(slice_size=500))
        state = profiler.state_dict()
        del state["SPA"]
        with pytest.raises(ExperimentError):
            TwoDProfiler.from_state(state)


class TestRecordBatchEquivalence:
    def test_odd_chunking_matches_scalar_record(self, mixed_trace):
        trace, sim, _s, _p = mixed_trace
        config = ProfilerConfig(slice_size=640)
        scalar = TwoDProfiler(trace.num_sites, config)
        for site, ok in zip(trace.sites.tolist(), sim.correct.tolist()):
            scalar.record(site, ok)

        batched = TwoDProfiler(trace.num_sites, config)
        pos = 0
        step = 1
        while pos < len(trace):
            stop = min(pos + step, len(trace))
            batched.record_batch(trace.sites[pos:stop], sim.correct[pos:stop])
            pos = stop
            step = step * 3 + 1  # 1, 4, 13, ... crosses boundaries unevenly

        assert (_exact_report_fingerprint(batched.finish())
                == _exact_report_fingerprint(scalar.finish()))

    def test_batch_site_range_checked(self):
        profiler = TwoDProfiler(4, ProfilerConfig(slice_size=100))
        with pytest.raises(ExperimentError, match="beyond"):
            profiler.record_batch(np.array([0, 7]), np.array([1, 0]))

    def test_empty_batch_is_noop(self):
        profiler = TwoDProfiler(4, ProfilerConfig(slice_size=100))
        profiler.record_batch(np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64))
        assert profiler.finish().profiled_sites() == set()
