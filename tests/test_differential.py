"""Differential test harness: independent implementations must agree exactly.

The suite has three pairs of independently implemented paths that are
required to be interchangeable:

* the branch-at-a-time reference replay
  (:func:`repro.predictors.simulate.simulate_reference`) vs the vectorized
  segmented-scan replay (:mod:`repro.predictors.vectorized`) — for every
  predictor kind in the zoo, not just bimodal/gshare;
* the paper-literal Figure 9 fold (:meth:`BranchSliceStats.end_slice`,
  one object per branch) vs the online profiler (:class:`TwoDProfiler`,
  one ``record`` per branch) vs the batched ``record_batch`` path behind
  :func:`profile_trace`;
* ``simulate()``'s dispatch, which must pick the fast path only when it
  is exact, and must count and log every kernel that refuses its input
  state (``replay_fallbacks_total``) — none for the stock kinds.

Each replay pair is driven with seeded traces from several families
(mixed-random, bursty, phase-shifted, single-site, alias-heavy) and the
results are compared *exactly*: the per-branch correctness stream, the
per-site counts and accuracies, and the complete end-of-run predictor
state (:meth:`Predictor.state_dict`), so ``reset=False`` chains stay in
lockstep too.
"""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.profiler2d import (
    ProfilerConfig,
    TwoDProfiler,
    profile_trace,
    report_from_series,
)
from repro.core.stats import PAM_EPSILON, BranchSliceStats, TestThresholds
from repro.errors import VMError
from repro.lang import compile_source
from repro.obs import get_registry, set_registry
from repro.obs.metrics import Registry
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GAg,
    Gshare,
    LocalTwoLevel,
    LoopPredictor,
    Perceptron,
    Tage,
    Tournament,
    simulate,
    simulate_reference,
)
from repro.predictors.vectorized import try_simulate_vectorized
from repro.trace.capture import capture_trace
from repro.trace.trace import BranchTrace
from repro.trace.synthetic import (
    SiteSpec,
    bernoulli_site,
    interleave_sites,
    loop_site,
    pattern_site,
)
from repro.vm import InputSet
from tests.test_fuzz import ProgramGenerator

# ----------------------------------------------------------------------
# Trace families
# ----------------------------------------------------------------------


def random_trace(seed: int) -> BranchTrace:
    """A deterministic random trace mixing the site shapes real code has."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(3, 32))
    streams: dict[int, np.ndarray] = {}
    for site in range(num_sites):
        kind = int(rng.integers(0, 4))
        n = int(rng.integers(20, 320))
        if kind == 0:
            spec = SiteSpec.stationary(float(rng.uniform(0.02, 0.98)))
            streams[site] = bernoulli_site(n, spec, seed * 1009 + site)
        elif kind == 1:
            spec = SiteSpec.two_phase(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 0.95))
            )
            streams[site] = bernoulli_site(n, spec, seed * 1009 + site)
        elif kind == 2:
            pattern = "".join(rng.choice(["T", "N"], size=int(rng.integers(2, 7))))
            streams[site] = pattern_site(pattern, max(1, n // len(pattern)))
        else:
            counts = [int(c) for c in rng.integers(1, 9, size=max(1, n // 4))]
            streams[site] = loop_site(counts)
        if streams[site].size == 0:
            streams[site] = np.ones(1, dtype=np.uint8)
    return interleave_sites(streams, seed=seed)


def bursty_trace(seed: int) -> BranchTrace:
    """Long same-direction runs: loop predictor and RLE-edge territory."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(3, 10))
    streams: dict[int, np.ndarray] = {}
    for site in range(num_sites):
        runs = []
        direction = int(rng.integers(0, 2))
        total = 0
        while total < 300:
            length = int(rng.integers(1, 120))
            runs.append(np.full(length, direction, dtype=np.uint8))
            direction ^= 1
            total += length
        streams[site] = np.concatenate(runs)
    return interleave_sites(streams, seed=seed)


def phase_shifted_trace(seed: int) -> BranchTrace:
    """Every site flips bias mid-stream (the paper's phased behavior)."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(3, 12))
    streams = {
        site: bernoulli_site(
            int(rng.integers(150, 500)),
            SiteSpec.two_phase(
                float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.7, 1.0))
            ),
            seed * 31 + site,
        )
        for site in range(num_sites)
    }
    return interleave_sites(streams, seed=seed)


def single_site_trace(seed: int) -> BranchTrace:
    """One hot site among many cold ones: degenerate segment layouts."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(2, 24))
    site = int(rng.integers(0, num_sites))
    n = int(rng.integers(300, 1200))
    outcomes = (rng.random(n) < float(rng.uniform(0.1, 0.9))).astype(np.uint8)
    return BranchTrace(
        program="<family>",
        input_name=f"single-site-{seed}",
        num_sites=num_sites,
        sites=np.full(n, site, dtype=np.int32),
        outcomes=outcomes,
    )


def alias_heavy_trace(seed: int) -> BranchTrace:
    """Far more sites than tiny tables have entries: index collisions."""
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(40, 96))
    n = int(rng.integers(1200, 2600))
    sites = rng.integers(0, num_sites, size=n).astype(np.int32)
    biases = rng.uniform(0.05, 0.95, size=num_sites)
    outcomes = (rng.random(n) < biases[sites]).astype(np.uint8)
    return BranchTrace(
        program="<family>",
        input_name=f"alias-heavy-{seed}",
        num_sites=num_sites,
        sites=sites,
        outcomes=outcomes,
    )


TRACE_FAMILIES = {
    "random": random_trace,
    "bursty": bursty_trace,
    "phase-shifted": phase_shifted_trace,
    "single-site": single_site_trace,
    "alias-heavy": alias_heavy_trace,
}


# ----------------------------------------------------------------------
# Predictor zoo
# ----------------------------------------------------------------------

#: Every kind with a vectorized kernel, in a tiny (alias-prone) and a
#: realistic configuration.  Tiny tables are where index bugs hide.
PREDICTOR_CONFIGS = [
    ("bimodal-tiny", lambda: Bimodal(table_bits=2)),
    ("bimodal-paper", lambda: Bimodal()),
    ("gshare-tiny", lambda: Gshare(history_bits=3)),
    ("gshare-wide-table", lambda: Gshare(history_bits=4, table_bits=6)),
    ("gshare-paper", lambda: Gshare(history_bits=14)),
    ("gag-tiny", lambda: GAg(history_bits=4)),
    ("gag", lambda: GAg(history_bits=12)),
    ("local-tiny", lambda: LocalTwoLevel(history_bits=3, num_histories=4)),
    ("local", lambda: LocalTwoLevel(history_bits=10, num_histories=64)),
    ("tournament-tiny", lambda: Tournament(history_bits=3, chooser_bits=4)),
    ("tournament", lambda: Tournament(history_bits=8, chooser_bits=8)),
    ("loop-tiny", lambda: LoopPredictor(num_entries=8)),
    ("loop", lambda: LoopPredictor(num_entries=64, confidence_threshold=3)),
    ("perceptron-tiny", lambda: Perceptron(num_entries=16, history_bits=8)),
    ("perceptron-paper", lambda: Perceptron()),
    ("perceptron-saturating", lambda: Perceptron(num_entries=8, history_bits=12, weight_bits=4)),
    ("tage-tiny", lambda: Tage(num_tables=3, table_bits=4, tag_bits=5,
                               min_history=2, max_history=12)),
    ("tage", lambda: Tage()),
]

_CONFIG_IDS = [name for name, _ in PREDICTOR_CONFIGS]


def _assert_state_equal(ref_state, vec_state, path: str = "state") -> None:
    """Recursive exact equality over state_dict values (arrays included)."""
    assert type(ref_state) is type(vec_state), f"{path}: type mismatch"
    if isinstance(ref_state, dict):
        assert ref_state.keys() == vec_state.keys(), f"{path}: key mismatch"
        for key in ref_state:
            _assert_state_equal(ref_state[key], vec_state[key], f"{path}.{key}")
    elif isinstance(ref_state, (list, tuple)):
        assert len(ref_state) == len(vec_state), f"{path}: length mismatch"
        for i, (a, b) in enumerate(zip(ref_state, vec_state)):
            _assert_state_equal(a, b, f"{path}[{i}]")
    elif isinstance(ref_state, np.ndarray):
        assert ref_state.dtype == vec_state.dtype, f"{path}: dtype mismatch"
        np.testing.assert_array_equal(ref_state, vec_state, err_msg=path)
    else:
        assert ref_state == vec_state, f"{path}: {ref_state!r} != {vec_state!r}"


def _assert_sim_equal(ref, vec) -> None:
    np.testing.assert_array_equal(ref.correct, vec.correct)
    np.testing.assert_array_equal(ref.exec_counts, vec.exec_counts)
    np.testing.assert_array_equal(ref.correct_counts, vec.correct_counts)
    assert ref.predictor_name == vec.predictor_name
    assert ref.num_sites == vec.num_sites
    # Exact counts imply exact accuracies, but assert the derived view
    # too: it is the API the profilers and experiments consume.
    assert ref.site_accuracies() == vec.site_accuracies()


# ----------------------------------------------------------------------
# Reference replay vs vectorized replay
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(TRACE_FAMILIES), ids=str)
@pytest.mark.parametrize("config_index", range(len(PREDICTOR_CONFIGS)), ids=_CONFIG_IDS)
def test_vectorized_matches_reference(config_index: int, family: str):
    name, factory = PREDICTOR_CONFIGS[config_index]
    make_trace = TRACE_FAMILIES[family]
    for seed in range(3):
        trace = make_trace(config_index * 1000 + seed)
        ref_pred, vec_pred = factory(), factory()
        ref = simulate_reference(ref_pred, trace)
        vec = try_simulate_vectorized(vec_pred, trace)
        assert vec is not None, f"{name} should take the vectorized path"
        _assert_sim_equal(ref, vec)
        # End-of-run predictor state must match so chained replays agree.
        _assert_state_equal(
            ref_pred.state_dict(), vec_pred.state_dict(), f"{name}/seed{seed}"
        )


@pytest.mark.parametrize("config_index", range(len(PREDICTOR_CONFIGS)), ids=_CONFIG_IDS)
def test_vectorized_matches_reference_chained(config_index: int):
    """reset=False chaining across trace fragments stays exact per kind."""
    name, factory = PREDICTOR_CONFIGS[config_index]
    for seed in (901, 902):
        trace = random_trace(seed)
        cut = len(trace) // 3
        parts = [(0, cut), (cut, 2 * cut), (2 * cut, len(trace))]
        ref_pred, vec_pred = factory(), factory()
        ref_pred.reset()
        vec_pred.reset()
        for start, stop in parts:
            fragment = trace.slice_view(start, stop)
            ref = simulate_reference(ref_pred, fragment, reset=False)
            vec = try_simulate_vectorized(vec_pred, fragment, reset=False)
            assert vec is not None, f"{name} refused a warm-start fragment"
            _assert_sim_equal(ref, vec)
            _assert_state_equal(
                ref_pred.state_dict(), vec_pred.state_dict(),
                f"{name}/seed{seed}/{start}:{stop}",
            )


def test_vectorized_adversarial_streams():
    """Saturating and alternating streams exercise the constant-retirement
    optimization's edge cases (instant collapse vs never collapsing)."""
    n = 4000
    for stream_name, outcomes in [
        ("all-taken", np.ones(n, dtype=np.uint8)),
        ("all-not-taken", np.zeros(n, dtype=np.uint8)),
        ("alternating", (np.arange(n) & 1).astype(np.uint8)),
    ]:
        sites = (np.arange(n) % 7).astype(np.int32)
        trace = BranchTrace(
            program="<adversarial>", input_name=stream_name, num_sites=7,
            sites=sites, outcomes=outcomes,
        )
        for name, factory in PREDICTOR_CONFIGS:
            ref_pred, vec_pred = factory(), factory()
            ref = simulate_reference(ref_pred, trace)
            vec = try_simulate_vectorized(vec_pred, trace)
            assert vec is not None, f"{name} on {stream_name}"
            _assert_sim_equal(ref, vec)
            _assert_state_equal(
                ref_pred.state_dict(), vec_pred.state_dict(),
                f"{name}/{stream_name}",
            )


def test_vectorized_empty_trace():
    trace = BranchTrace(
        program="<empty>", input_name="none", num_sites=4,
        sites=np.zeros(0, dtype=np.int32), outcomes=np.zeros(0, dtype=np.uint8),
    )
    for name, factory in PREDICTOR_CONFIGS:
        ref_pred, vec_pred = factory(), factory()
        ref = simulate_reference(ref_pred, trace)
        vec = try_simulate_vectorized(vec_pred, trace)
        assert vec is not None, name
        _assert_sim_equal(ref, vec)
        _assert_state_equal(ref_pred.state_dict(), vec_pred.state_dict(), name)


# ----------------------------------------------------------------------
# Dispatch exactness and counted fallbacks
# ----------------------------------------------------------------------


def test_simulate_dispatch_only_when_exact():
    """simulate() takes the fast path only for exact stock types."""

    class TweakedBimodal(Bimodal):
        """A subclass may change the update rule; must NOT be vectorized."""

    class TweakedPerceptron(Perceptron):
        """Same story for every other kind with a kernel."""

    trace = random_trace(77)
    assert try_simulate_vectorized(TweakedBimodal(), trace) is None
    assert (
        try_simulate_vectorized(TweakedPerceptron(num_entries=16, history_bits=8), trace)
        is None
    )

    # Dispatch agrees with both explicit paths.
    for factory in (lambda: Gshare(history_bits=6),
                    lambda: Perceptron(num_entries=16, history_bits=8)):
        auto = simulate(factory(), trace)
        forced_ref = simulate_reference(factory(), trace)
        _assert_sim_equal(forced_ref, auto)

    # Running a predictor that has no kernel is not a fallback.
    before = _fallbacks().total()
    for factory in (TweakedBimodal, AlwaysTaken, AlwaysNotTaken):
        _assert_sim_equal(simulate_reference(factory(), trace), simulate(factory(), trace))
    assert _fallbacks().total() == before


def _fallbacks():
    return get_registry().counter("replay_fallbacks_total")


def test_refused_kernel_is_counted_logged_and_exact(caplog):
    """A TAGE whose folded registers were hand-edited makes its kernel
    refuse; simulate() counts and logs the fallback and still matches the
    reference loop exactly."""
    trace = random_trace(42)

    def edited_tage() -> Tage:
        tage = Tage(num_tables=2, table_bits=4)
        tage.reset()
        tage.folded_index[0].folded ^= 1
        return tage

    ref_pred, pred = edited_tage(), edited_tage()
    assert try_simulate_vectorized(edited_tage(), trace, reset=False) is None
    before = _fallbacks().labels(kind="Tage").value
    with caplog.at_level(logging.INFO, logger="repro.predictors.vectorized"):
        result = simulate(pred, trace, reset=False)
    assert _fallbacks().labels(kind="Tage").value == before + 1
    events = [r for r in caplog.records
              if getattr(r, "structured_event", None) == "replay_fallback"]
    assert len(events) == 1
    assert events[0].structured_fields == {
        "kind": "Tage", "predictor": pred.name, "events": len(trace)}
    _assert_sim_equal(simulate_reference(ref_pred, trace, reset=False), result)
    _assert_state_equal(ref_pred.state_dict(), pred.state_dict())


def test_stock_kinds_never_fall_back():
    """Every stock kind takes its kernel through simulate() on every trace
    family: the fallback counter does not move."""
    before = _fallbacks().total()
    for family, make_trace in sorted(TRACE_FAMILIES.items()):
        trace = make_trace(7)
        for name, factory in PREDICTOR_CONFIGS:
            simulate(factory(), trace)
            assert _fallbacks().total() == before, f"{name} fell back on {family}"


def test_replay_throughput_gauge_is_per_kind():
    """gshare and perceptron replays alternate in a report; each kind keeps
    its own throughput gauge instead of overwriting one shared value."""
    trace = random_trace(11)
    previous = set_registry(Registry())
    try:
        simulate(Gshare(history_bits=6), trace)
        simulate(Perceptron(num_entries=16, history_bits=8), trace)
        gauge = get_registry().snapshot()["replay_events_per_second"]
    finally:
        set_registry(previous)
    assert set(gauge["labels"]) == {'kind="Gshare"', 'kind="Perceptron"'}
    assert all(child["value"] > 0 for child in gauge["labels"].values())


# ----------------------------------------------------------------------
# Paper-literal fold vs online profiler vs batched profiler
# ----------------------------------------------------------------------

PROFILER_CONFIGS = [
    ProfilerConfig(slice_size=100),
    ProfilerConfig(slice_size=230),
    ProfilerConfig(slice_size=100, use_fir=False),
]


@pytest.mark.parametrize("config_index", range(len(PROFILER_CONFIGS)))
@pytest.mark.parametrize("seed_base", [0, 10, 20])
def test_online_matches_offline(config_index: int, seed_base: int):
    config = PROFILER_CONFIGS[config_index]
    for seed in range(seed_base, seed_base + 10):
        trace = random_trace(5000 + seed)
        sim = simulate(Gshare(history_bits=8), trace)

        online = TwoDProfiler(trace.num_sites, config)
        for site, correct in zip(trace.sites.tolist(), sim.correct.tolist()):
            online.record(site, correct)
        online_report = online.finish()

        offline_report = profile_trace(trace, simulation=sim, config=config)

        assert online_report.overall_accuracy == pytest.approx(
            offline_report.overall_accuracy, abs=1e-12
        )
        for site in range(trace.num_sites):
            a = online_report.stats[site]
            b = offline_report.stats[site]
            assert a.N == b.N, f"seed {seed} site {site}"
            assert a.NPAM == b.NPAM, f"seed {seed} site {site}"
            assert a.has_lpa == b.has_lpa, f"seed {seed} site {site}"
            assert a.SPA == pytest.approx(b.SPA, abs=1e-12), f"seed {seed} site {site}"
            assert a.SSPA == pytest.approx(b.SSPA, abs=1e-12), f"seed {seed} site {site}"
            assert a.LPA == pytest.approx(b.LPA, abs=1e-12), f"seed {seed} site {site}"

        assert online_report.profiled_sites() == offline_report.profiled_sites()
        assert (
            online_report.input_dependent_sites()
            == offline_report.input_dependent_sites()
        ), f"seed {seed}: verdict sets diverge"


def test_record_batch_matches_record_loop():
    """The whole-slice bincount fast path is bit-identical to record()."""
    for seed, slice_size in [(321, 97), (322, 100), (323, 64)]:
        trace = random_trace(seed)
        sim = simulate(Gshare(history_bits=8), trace)
        config = ProfilerConfig(slice_size=slice_size)

        looped = TwoDProfiler(trace.num_sites, config)
        for site, correct in zip(trace.sites.tolist(), sim.correct.tolist()):
            looped.record(site, correct)

        batched = TwoDProfiler(trace.num_sites, config)
        # Irregular batch sizes: partial-slice prefixes, spans of several
        # whole slices, and tails all get exercised.
        cuts = [0, 1, 8, 8 + slice_size * 3 + 5, len(trace)]
        cuts = sorted(set(min(c, len(trace)) for c in cuts))
        for start, stop in zip(cuts, cuts[1:]):
            batched.record_batch(trace.sites[start:stop], sim.correct[start:stop])

        a, b = looped.state_dict(), batched.state_dict()
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def _paper_literal_fold(trace: BranchTrace, correct: np.ndarray,
                        config: ProfilerConfig) -> list[BranchSliceStats]:
    """Figure 9 transcribed: one BranchSliceStats per branch, the Fig. 9b
    end_slice method run for every branch at every slice boundary, and a
    trailing partial slice folded only when at least half full.  With
    ``pam_exact``, NPAM is recounted as the filtered values above the
    final mean (footnote 5)."""
    stats = [BranchSliceStats(has_lpa=config.fir_cold_start)
             for _ in range(trace.num_sites)]
    filtered = [[] for _ in range(trace.num_sites)]

    def end_slice():
        for branch, values in zip(stats, filtered):
            folded = branch.N
            branch.end_slice(config.exec_threshold, config.use_fir,
                             config.fir_cold_start)
            if branch.N > folded:
                values.append(branch.LPA)

    in_slice = 0
    for site, hit in zip(trace.sites.tolist(), correct.tolist()):
        stats[site].exec_counter += 1
        stats[site].predict_counter += hit
        in_slice += 1
        if in_slice == config.slice_size:
            end_slice()
            in_slice = 0
    if in_slice and in_slice >= config.slice_size // 2:
        end_slice()
    for branch, values in zip(stats, filtered):
        branch.exec_counter = branch.predict_counter = 0
        if config.pam_exact:
            branch.NPAM = sum(v > branch.mean + PAM_EPSILON for v in values)
    return stats


def _paper_literal_verdicts(stats: list[BranchSliceStats], thresholds: TestThresholds,
                            overall_accuracy: float) -> dict[int, tuple[bool, ...]]:
    """Figure 9c transcribed over the Figure 9a variables: for every branch
    with a qualifying slice, (MEAN, STD, PAM, (MEAN or STD) and PAM)."""
    mean_th = overall_accuracy if thresholds.mean_th is None else thresholds.mean_th
    verdicts = {}
    for site, branch in enumerate(stats):
        if branch.N == 0:
            continue
        mean = branch.SPA / branch.N
        variance = branch.SSPA / branch.N - mean ** 2
        std = math.sqrt(variance) if variance > 0.0 else 0.0
        pam_fraction = branch.NPAM / branch.N
        passed_mean = mean < mean_th
        passed_std = std > thresholds.std_th
        passed_pam = thresholds.pam_th <= pam_fraction <= 1.0 - thresholds.pam_th
        verdicts[site] = (passed_mean, passed_std, passed_pam,
                          (passed_mean or passed_std) and passed_pam)
    return verdicts


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       use_fir=st.booleans(),
       fir_cold_start=st.booleans(),
       pam_exact=st.booleans(),
       slices=st.integers(1, 12),
       exec_threshold=st.integers(0, 2),
       std_th=st.floats(0.0, 0.2),
       pam_th=st.floats(0.0, 0.5))
def test_profile_trace_matches_paper_literal_fold(
        seed, use_fir, fir_cold_start, pam_exact, slices, exec_threshold,
        std_th, pam_th):
    """profile_trace's stats equal the literal Figure 9 fold bit for bit on
    traces of generated programs, cut into about ``slices`` slices — and so
    does report_from_series refolding the kept raw series (the stored-run
    path).  Its verdicts equal a literal Figure 9c over those stats, and
    the config survives its to_dict/from_dict encoding."""
    program = compile_source(ProgramGenerator(seed).program(), name="fuzz")
    try:
        trace = capture_trace(program, InputSet.make("fuzz"), fuel=200_000)
    except VMError:
        return  # a faulting program has no trace to profile
    config = ProfilerConfig(slice_size=max(1, len(trace) // slices),
                            exec_threshold=exec_threshold,
                            thresholds=TestThresholds(std_th=std_th, pam_th=pam_th),
                            use_fir=use_fir, fir_cold_start=fir_cold_start,
                            pam_exact=pam_exact, keep_series=True)
    assert ProfilerConfig.from_dict(config.to_dict()) == config
    sim = simulate(Gshare(history_bits=4), trace)
    report = profile_trace(trace, simulation=sim, config=config)
    literal = _paper_literal_fold(trace, sim.correct, config)
    assert report.stats == literal
    assert report.overall_accuracy == sim.overall_accuracy
    verdicts = _paper_literal_verdicts(literal, config.thresholds, sim.overall_accuracy)
    assert report.input_dependent_sites() == {
        site for site, flags in verdicts.items() if flags[-1]}
    assert {site: (v.passed_mean, v.passed_std, v.passed_pam, v.input_dependent)
            for site, v in report.verdicts().items()} == verdicts
    if report.series is not None:  # an empty trace folds no slice
        stored = report_from_series(report.series, report.slice_overall,
                                    report.overall_accuracy, report.config)
        assert stored.stats == literal


def test_three_way_agreement_on_real_workload(tiny_runner):
    """Reference sim, vectorized sim and both profilers agree end to end on
    a real compiled-workload trace, not just synthetic streams."""
    trace = tiny_runner.trace("gzipish", "train")
    ref = simulate_reference(Gshare(history_bits=14), trace)
    vec = simulate(Gshare(history_bits=14), trace)
    _assert_sim_equal(ref, vec)

    config = ProfilerConfig(slice_size=max(500, len(trace) // 40))
    online = TwoDProfiler(trace.num_sites, config)
    for site, correct in zip(trace.sites.tolist(), vec.correct.tolist()):
        online.record(site, correct)
    online_report = online.finish()
    offline_report = profile_trace(trace, simulation=vec, config=config)
    assert online_report.input_dependent_sites() == offline_report.input_dependent_sites()
    assert online_report.profiled_sites() == offline_report.profiled_sites()
