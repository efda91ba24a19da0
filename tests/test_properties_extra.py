"""Additional property-based tests: edge profiling, phase classifier, the
cost simulator's arithmetic identities, and the vectorized-replay kernels
(scan/packing primitives checked against naive sequential replays)."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.phases import PhaseShape, classify_series
from repro.core.edge2d import Edge2DProfiler
from repro.core.predication import AdvisorDecision, PredicationCosts
from repro.core.profiler2d import ProfilerConfig
from repro.core.timing import evaluate_policy
from repro.predictors import Perceptron, simulate_reference
from repro.predictors.simulate import SimulationResult
from repro.predictors.vectorized import (
    _final_history,
    counter_scan,
    gshare_history,
    segmented_history,
    try_simulate_vectorized,
)
from repro.trace.trace import BranchTrace

# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------


@st.composite
def traces_with_sims(draw, max_sites=4, max_len=300):
    num_sites = draw(st.integers(1, max_sites))
    length = draw(st.integers(1, max_len))
    sites = np.array(
        draw(st.lists(st.integers(0, num_sites - 1), min_size=length, max_size=length)),
        dtype=np.int32,
    )
    outcomes = np.array(
        draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)),
        dtype=np.uint8,
    )
    correct = np.array(
        draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)),
        dtype=np.uint8,
    )
    trace = BranchTrace(program="p", input_name="i", num_sites=num_sites,
                        sites=sites, outcomes=outcomes)
    sim = SimulationResult(
        predictor_name="arbitrary",
        num_sites=num_sites,
        correct=correct,
        exec_counts=np.bincount(sites, minlength=num_sites).astype(np.int64),
        correct_counts=np.bincount(sites, weights=correct, minlength=num_sites).astype(np.int64),
    )
    return trace, sim


# ----------------------------------------------------------------------
# Edge 2D profiler
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(data=traces_with_sims())
def test_edge2d_total_invariants(data):
    trace, _sim = data
    profiler = Edge2DProfiler(config=ProfilerConfig(slice_size=max(10, len(trace) // 10),
                                                    exec_threshold=1))
    report = profiler.profile(trace)
    assert report.input_dependent_sites() <= report.profiled_sites()


# ----------------------------------------------------------------------
# Phase classifier
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=80))
def test_phase_classifier_total(values):
    verdict = classify_series(np.array(values))
    assert isinstance(verdict.shape, PhaseShape)
    assert verdict.crossings >= 0
    assert verdict.std >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    level=st.floats(0.1, 0.9),
    n=st.integers(8, 60),
)
def test_constant_series_always_flat(level, n):
    verdict = classify_series(np.full(n, level))
    assert verdict.shape is PhaseShape.FLAT


@settings(max_examples=30, deadline=None)
@given(
    low=st.floats(0.05, 0.4),
    high=st.floats(0.6, 0.95),
    first=st.integers(6, 30),
    second=st.integers(6, 30),
)
def test_clean_step_never_flat(low, high, first, second):
    values = np.concatenate([np.full(first, low), np.full(second, high)])
    verdict = classify_series(values)
    assert verdict.shape is not PhaseShape.FLAT
    assert verdict.shape in (PhaseShape.LEVEL_SHIFT, PhaseShape.OSCILLATING,
                             PhaseShape.DRIFT)


# ----------------------------------------------------------------------
# Cost simulator
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(data=traces_with_sims())
def test_predicated_cost_is_exact(data):
    trace, sim = data
    costs = PredicationCosts()
    decisions = {site: AdvisorDecision.PREDICATE for site in range(trace.num_sites)}
    report = evaluate_policy(trace, sim, decisions, costs)
    assert report.total_cycles == pytest.approx(len(trace) * costs.exec_predicated)
    assert all(s.flushes == 0 for s in report.per_site.values())


@settings(max_examples=25, deadline=None)
@given(data=traces_with_sims())
def test_branch_cost_decomposition(data):
    trace, sim = data
    costs = PredicationCosts(exec_taken=2, exec_not_taken=7, misp_penalty=13)
    report = evaluate_policy(trace, sim, {}, costs)
    taken = int(trace.outcomes.sum())
    not_taken = len(trace) - taken
    mispredictions = len(trace) - int(sim.correct.sum())
    expected = 2 * taken + 7 * not_taken + 13 * mispredictions
    assert report.total_cycles == pytest.approx(expected)
    assert sum(s.flushes for s in report.per_site.values()) == mispredictions


@settings(max_examples=20, deadline=None)
@given(data=traces_with_sims())
def test_wish_bounded_by_per_execution_envelope(data):
    # With zero overhead, each wish execution costs either that execution's
    # branch cost or the predicated cost — so the total lies between the
    # per-execution oracle (min per execution) and pessimum (max per
    # execution).  Note the adaptive mix can legitimately BEAT both pure
    # static policies, so the pure totals are not valid bounds.
    trace, sim = data
    costs = PredicationCosts()
    decisions = {site: AdvisorDecision.WISH_BRANCH for site in range(trace.num_sites)}
    wish = evaluate_policy(trace, sim, decisions, costs, wish_overhead=0.0)

    lower = upper = 0.0
    for taken, ok in zip(trace.outcomes.tolist(), sim.correct.tolist()):
        branch_cost = (costs.exec_taken if taken else costs.exec_not_taken)
        if not ok:
            branch_cost += costs.misp_penalty
        lower += min(branch_cost, costs.exec_predicated)
        upper += max(branch_cost, costs.exec_predicated)
    assert lower - 1e-6 <= wish.total_cycles <= upper + 1e-6

# ----------------------------------------------------------------------
# Vectorized replay kernels
# ----------------------------------------------------------------------


@st.composite
def interleaved_counter_streams(draw):
    """Per-entry outcome queues riffled into one stream in a drawn order.

    The riffle preserves each entry's subsequence order, so any two draws
    with the same queues describe the *same* per-entry computation — which
    is exactly the invariance the segmented scan relies on.
    """
    num_entries = draw(st.integers(1, 6))
    queues = [
        draw(st.lists(st.integers(0, 1), max_size=40)) for _ in range(num_entries)
    ]
    initial = np.array(
        draw(st.lists(st.integers(0, 3), min_size=num_entries, max_size=num_entries)),
        dtype=np.uint8,
    )
    ids = [entry for entry, queue in enumerate(queues) for _ in queue]
    order = draw(st.permutations(ids))
    cursors = [0] * num_entries
    indices, outcomes = [], []
    for entry in order:
        indices.append(entry)
        outcomes.append(queues[entry][cursors[entry]])
        cursors[entry] += 1
    return (
        np.array(indices, dtype=np.int64),
        np.array(outcomes, dtype=np.uint8),
        initial,
        queues,
    )


def _naive_counter_replay(indices, outcomes, initial):
    table = initial.astype(np.int64).copy()
    before = np.empty(indices.size, dtype=np.uint8)
    for i, (entry, taken) in enumerate(zip(indices.tolist(), outcomes.tolist())):
        before[i] = table[entry]
        if taken:
            table[entry] = min(3, table[entry] + 1)
        else:
            table[entry] = max(0, table[entry] - 1)
    return before, table


@settings(max_examples=60, deadline=None)
@given(data=interleaved_counter_streams())
def test_counter_scan_matches_naive_and_is_riffle_invariant(data):
    indices, outcomes, initial, queues = data
    before, touched, finals = counter_scan(indices, outcomes, initial)

    naive_before, naive_table = _naive_counter_replay(indices, outcomes, initial)
    np.testing.assert_array_equal(before, naive_before)

    # Final states are a function of each entry's own queue alone — the
    # riffle order drawn for this example must not matter.
    for entry, queue in enumerate(queues):
        state = int(initial[entry])
        for taken in queue:
            state = min(3, state + 1) if taken else max(0, state - 1)
        if queue:
            assert entry in touched.tolist()
            assert int(finals[touched.tolist().index(entry)]) == state
        else:
            assert entry not in touched.tolist()
    assert len(touched) == len(set(touched.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    outcomes=st.lists(st.integers(0, 1), max_size=80),
    bits=st.integers(1, 12),
    initial=st.integers(0, (1 << 12) - 1),
)
def test_gshare_history_matches_sequential_register(outcomes, bits, initial):
    mask = (1 << bits) - 1
    initial &= mask
    arr = np.array(outcomes, dtype=np.uint8)
    packed = gshare_history(arr, bits, mask, initial)

    register = initial
    for i, taken in enumerate(outcomes):
        assert int(packed[i]) == register, f"branch {i}"
        register = ((register << 1) | taken) & mask
    assert _final_history(arr, bits, mask, initial) == register


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=80
    ),
    bits=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_segmented_history_matches_per_key_registers(pairs, bits, seed):
    mask = (1 << bits) - 1
    rng = np.random.default_rng(seed)
    initials = rng.integers(0, mask + 1, size=6, dtype=np.int64)
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    outcomes = np.array([o for _, o in pairs], dtype=np.uint8)

    packed, touched, finals = segmented_history(keys, outcomes, bits, mask, initials)

    registers = {key: int(initials[key]) for key in range(6)}
    for i, (key, taken) in enumerate(pairs):
        assert int(packed[i]) == registers[key], f"branch {i}"
        registers[key] = ((registers[key] << 1) | taken) & mask
    touched_list = touched.tolist()
    assert sorted(touched_list) == sorted(set(keys.tolist()))
    for key, final in zip(touched_list, finals.tolist()):
        assert registers[key] == int(final)


@settings(max_examples=25, deadline=None)
@given(data=traces_with_sims(max_sites=5, max_len=200))
def test_perceptron_integer_weight_replay(data):
    trace, _sim = data
    ref_pred = Perceptron(num_entries=3, history_bits=6)
    vec_pred = Perceptron(num_entries=3, history_bits=6)
    ref = simulate_reference(ref_pred, trace)
    vec = try_simulate_vectorized(vec_pred, trace)
    assert vec is not None
    np.testing.assert_array_equal(ref.correct, vec.correct)
    np.testing.assert_array_equal(ref_pred.weights, vec_pred.weights)
    np.testing.assert_array_equal(ref_pred.history, vec_pred.history)


@settings(max_examples=40, deadline=None)
@given(
    weight_bits=st.integers(3, 8),
    num_entries=st.integers(1, 4),
    history_bits=st.integers(2, 40),
    main_events=st.integers(200, 400),
    other_events=st.integers(0, 200),
    taken_rate=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
    cut_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_perceptron_saturating_chained_replay(weight_bits, num_entries, history_bits,
                                              main_events, other_events, taken_rate,
                                              cut_fraction, seed):
    """Narrow weights saturate: blocks that end at a clip, and the exact
    stepping after them, match the reference loop across a reset=False cut.
    One entry sees >= 200 events, so its stream crosses the 64-event block."""
    rng = np.random.default_rng(seed)
    sites = np.concatenate([
        np.zeros(main_events, dtype=np.int32),
        rng.integers(1, 8, size=other_events).astype(np.int32),
    ])
    sites = sites[rng.permutation(sites.size)]
    outcomes = (rng.random(sites.size) < taken_rate).astype(np.uint8)
    trace = BranchTrace(program="p", input_name="i", num_sites=int(sites.max()) + 1,
                        sites=sites, outcomes=outcomes)
    cut = int(cut_fraction * len(trace))

    ref_pred = Perceptron(num_entries, history_bits, weight_bits)
    vec_pred = Perceptron(num_entries, history_bits, weight_bits)
    for start, stop, reset in [(0, cut, True), (cut, len(trace), False)]:
        fragment = trace.slice_view(start, stop)
        ref = simulate_reference(ref_pred, fragment, reset=reset)
        vec = try_simulate_vectorized(vec_pred, fragment, reset=reset)
        assert vec is not None
        np.testing.assert_array_equal(ref.correct, vec.correct)
        np.testing.assert_array_equal(ref_pred.weights, vec_pred.weights)
        np.testing.assert_array_equal(ref_pred.history, vec_pred.history)
