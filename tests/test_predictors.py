"""Unit tests for the branch predictor zoo.

Each predictor is checked on the signature behaviours it exists for:
bimodal learns bias, gshare learns global patterns, the local predictor
learns per-branch periodicity, the loop predictor learns trip counts, the
perceptron learns linearly separable correlations, and the tournament
predictor tracks its better component.
"""

import numpy as np
import pytest

from repro.predictors import (
    PREDICTOR_FACTORIES,
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GAg,
    Gshare,
    LocalTwoLevel,
    LoopPredictor,
    Perceptron,
    Tournament,
    make_predictor,
    paper_gshare,
    paper_perceptron,
    simulate,
)
from repro.trace.synthetic import (
    SiteSpec,
    bernoulli_site,
    interleave_sites,
    loop_site,
    pattern_site,
)


def accuracy(predictor, outcomes, site=0):
    predictor.reset()
    correct = sum(
        predictor.predict_and_update(site, int(t)) == int(t) for t in outcomes
    )
    return correct / len(outcomes)


class TestStaticPredictors:
    def test_always_taken(self):
        assert accuracy(AlwaysTaken(), [1, 1, 0, 1]) == 0.75

    def test_always_not_taken(self):
        assert accuracy(AlwaysNotTaken(), [0, 0, 1, 0]) == 0.75


class TestBimodal:
    def test_learns_strong_bias(self):
        outcomes = bernoulli_site(5000, SiteSpec.stationary(0.95), seed=1)
        assert accuracy(Bimodal(), outcomes) > 0.9

    def test_accuracy_between_chance_and_max_bias(self):
        # A 2-bit counter on iid Bernoulli(p) dithers: its accuracy lands
        # strictly between 0.5 and max(p, 1-p).
        outcomes = bernoulli_site(20_000, SiteSpec.stationary(0.3), seed=2)
        acc = accuracy(Bimodal(), outcomes)
        assert 0.55 < acc <= 0.71

    def test_counter_saturation_bounds(self):
        predictor = Bimodal(table_bits=2)
        for _ in range(10):
            predictor.predict_and_update(0, 1)
        assert max(predictor.table) <= 3
        for _ in range(10):
            predictor.predict_and_update(0, 0)
        assert min(predictor.table) >= 0

    def test_reset_restores_weakly_taken(self):
        predictor = Bimodal(table_bits=3)
        predictor.predict_and_update(0, 0)
        predictor.reset()
        assert all(c == 2 for c in predictor.table)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Bimodal(table_bits=0)


class TestGshare:
    def test_learns_global_pattern(self):
        # TTN repeating: global history disambiguates perfectly.
        outcomes = pattern_site("TTN", 3000)
        assert accuracy(paper_gshare(), outcomes) > 0.98

    def test_paper_configuration_size(self):
        predictor = paper_gshare()
        assert predictor.history_bits == 14
        assert predictor.size == 1 << 14  # 2-bit counters -> 4 KB
        assert "4096 bytes" in predictor.describe()

    def test_history_wraps_in_mask(self):
        predictor = Gshare(history_bits=4)
        for _ in range(100):
            predictor.predict_and_update(0, 1)
        assert predictor.history <= predictor.mask

    def test_table_bits_must_cover_history(self):
        with pytest.raises(ValueError):
            Gshare(history_bits=10, table_bits=8)

    def test_reset(self):
        predictor = Gshare(history_bits=6)
        predictor.predict_and_update(3, 1)
        predictor.reset()
        assert predictor.history == 0 and all(c == 2 for c in predictor.table)


class TestGAg:
    def test_learns_alternation(self):
        outcomes = pattern_site("TN", 2000)
        assert accuracy(GAg(history_bits=8), outcomes) > 0.95

    def test_aliasing_across_sites(self):
        # GAg has no address component: two sites with identical history
        # share table entries, unlike gshare.
        gag = GAg(history_bits=6)
        gshare = Gshare(history_bits=6)
        streams = {0: pattern_site("TTTN", 500), 1: pattern_site("NNTT", 500)}
        trace = interleave_sites(streams, seed=7)
        acc_gag = simulate(gag, trace).overall_accuracy
        acc_gshare = simulate(gshare, trace).overall_accuracy
        assert acc_gshare >= acc_gag - 0.02


class TestLocalTwoLevel:
    def test_learns_per_branch_period(self):
        outcomes = pattern_site("TTNN", 2500)
        assert accuracy(LocalTwoLevel(history_bits=8), outcomes) > 0.95

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LocalTwoLevel(history_bits=0)
        with pytest.raises(ValueError):
            LocalTwoLevel(num_histories=0)


class TestLoopPredictor:
    def test_constant_trip_count_near_perfect(self):
        outcomes = loop_site([8] * 500)
        assert accuracy(LoopPredictor(), outcomes) > 0.99

    def test_variable_trip_counts_degrade(self):
        rng = np.random.default_rng(8)
        outcomes = loop_site([int(rng.integers(2, 20)) for _ in range(300)])
        acc = accuracy(LoopPredictor(), outcomes)
        assert acc < 0.99  # Cannot lock onto a trip count.

    def test_reset_clears_confidence(self):
        predictor = LoopPredictor(num_entries=4)
        for t in loop_site([5] * 10):
            predictor.predict_and_update(0, int(t))
        predictor.reset()
        assert predictor.entries[0].confidence == 0


class TestPerceptron:
    def test_paper_configuration(self):
        predictor = paper_perceptron()
        assert predictor.num_entries == 457
        assert predictor.history_bits == 36
        assert predictor.theta == int(1.93 * 36 + 14)

    def test_learns_history_correlation(self):
        # Outcome = outcome 2 branches ago: linearly separable in history.
        rng = np.random.default_rng(9)
        history = [1, 0]
        outcomes = []
        for _ in range(4000):
            nxt = history[-2]
            outcomes.append(nxt)
            history.append(nxt if rng.random() > 0.02 else 1 - nxt)
        assert accuracy(Perceptron(num_entries=64, history_bits=8), outcomes) > 0.9

    def test_weights_clamped(self):
        predictor = Perceptron(num_entries=4, history_bits=4, weight_bits=4)
        for _ in range(200):
            predictor.predict_and_update(0, 1)
        assert predictor.weights.max() <= 7
        assert predictor.weights.min() >= -8

    @pytest.mark.parametrize("kwargs", [
        {"num_entries": 0}, {"history_bits": 0}, {"weight_bits": 1}, {"weight_bits": 0},
    ])
    def test_rejects_bad_geometry(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be"):
            Perceptron(**kwargs)

    def test_describe_reports_weight_width(self):
        assert "(16 KB of 8-bit weights)" in paper_perceptron().describe()
        assert "(8 KB of 4-bit weights)" in Perceptron(weight_bits=4).describe()

    def test_reset(self):
        predictor = Perceptron(num_entries=8, history_bits=4)
        predictor.predict_and_update(0, 1)
        predictor.reset()
        assert not predictor.weights.any()
        assert (predictor.history == 1).all()


class TestTournament:
    def test_beats_or_matches_worst_component(self):
        streams = {
            0: bernoulli_site(4000, SiteSpec.stationary(0.95), seed=10),
            1: pattern_site("TTN", 1334)[:4000],
        }
        trace = interleave_sites(streams, seed=11)
        acc_tournament = simulate(Tournament(history_bits=10), trace).overall_accuracy
        acc_bimodal = simulate(Bimodal(table_bits=10), trace).overall_accuracy
        acc_gshare = simulate(Gshare(history_bits=10), trace).overall_accuracy
        assert acc_tournament >= min(acc_bimodal, acc_gshare) - 0.02

    def test_reset(self):
        predictor = Tournament(history_bits=6, chooser_bits=6)
        predictor.predict_and_update(0, 1)
        predictor.reset()
        assert all(c == 2 for c in predictor.chooser)


class TestRegistry:
    def test_all_registry_names_construct(self):
        for name in PREDICTOR_FACTORIES:
            predictor = make_predictor(name)
            predictor.predict_and_update(0, 1)
            predictor.reset()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("neural-oracle")

    def test_describe_is_informative(self):
        for name in ("bimodal", "gshare", "perceptron", "tournament", "loop"):
            assert len(make_predictor(name).describe()) > 10


class TestSimulate:
    def test_aggregates_consistent(self):
        trace = interleave_sites({0: pattern_site("TN", 100), 1: pattern_site("T", 50)}, seed=12)
        result = simulate(Bimodal(), trace)
        assert result.num_branches == len(trace)
        assert result.exec_counts.sum() == len(trace)
        assert result.correct_counts.sum() == result.correct.sum()
        assert 0.0 <= result.overall_accuracy <= 1.0

    def test_site_accuracies_min_executions(self):
        trace = interleave_sites({0: pattern_site("T", 100), 1: pattern_site("T", 3)}, seed=13)
        result = simulate(AlwaysTaken(), trace)
        assert set(result.site_accuracies(min_executions=10)) == {0}

    def test_always_taken_accuracy_is_taken_rate(self):
        outcomes = bernoulli_site(2000, SiteSpec.stationary(0.7), seed=15)
        trace = interleave_sites({0: outcomes}, seed=15)
        result = simulate(AlwaysTaken(), trace)
        assert result.overall_accuracy == pytest.approx(outcomes.mean())

    def test_reset_flag_controls_warm_state(self):
        trace = interleave_sites({0: pattern_site("TTN", 200)}, seed=16)
        predictor = Gshare(history_bits=8)
        first = simulate(predictor, trace)
        warm = simulate(predictor, trace, reset=False)
        assert warm.overall_accuracy >= first.overall_accuracy

    def test_empty_trace(self):
        trace = interleave_sites({}, seed=17)
        result = simulate(Bimodal(), trace)
        assert result.num_branches == 0
        assert result.overall_accuracy == 0.0
