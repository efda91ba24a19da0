"""Vectorized replay vs the reference loop, per predictor kind.

Not a paper exhibit — the perf guard for the replay fast path (PR 6).
Each bench replays the same synthetic trace (mixed stationary biases
plus loop-shaped sites) through one predictor kind twice: the
branch-at-a-time reference loop and the vectorized kernel from
:mod:`repro.predictors.vectorized`.  Results must agree exactly —
predictions, per-site counts — and the per-kind speedups land in
``BENCH_summary.json`` via the ``bench_extras`` payload, so the per-PR
snapshots track replay throughput, not just wall time.

The summary bench asserts the acceptance floor: at least three kinds at
>= 2x over the reference loop, and the per-kind floors in
:data:`KIND_FLOORS` (the perceptron's speculate-and-verify kernel must
stay >= 3x).  TAGE is allowed to be modest — its allocation walk
is still sequential; only index/tag/folded-history precompute is
vectorized.

``REPRO_BENCH_REPLAY_EVENTS`` sizes the trace (default 200k dynamic
branches).
"""

import os
import time

import numpy as np
import pytest

from repro.predictors import (
    Bimodal,
    GAg,
    Gshare,
    LocalTwoLevel,
    LoopPredictor,
    Perceptron,
    Tage,
    Tournament,
    simulate_reference,
)
from repro.predictors.vectorized import try_simulate_vectorized
from repro.trace.trace import BranchTrace

KINDS = [
    ("bimodal", lambda: Bimodal()),
    ("gshare", lambda: Gshare(history_bits=14)),
    ("gag", lambda: GAg(history_bits=12)),
    ("local", lambda: LocalTwoLevel()),
    ("tournament", lambda: Tournament()),
    ("loop", lambda: LoopPredictor()),
    ("perceptron", lambda: Perceptron()),
    ("tage", lambda: Tage()),
]

#: Minimum speedup over the reference loop for individual kinds.
KIND_FLOORS = {"perceptron": 3.0}

_EVENTS = int(os.environ.get("REPRO_BENCH_REPLAY_EVENTS", "200000"))
_NUM_SITES = 256

#: (kind, events, ref_seconds, vec_seconds, speedup), filled by the
#: parametrized benches and rendered by the summary bench below.
_ROWS: list[tuple] = []


def _replay_trace(n: int = _EVENTS, num_sites: int = _NUM_SITES,
                  seed: int = 20260806) -> BranchTrace:
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, num_sites, size=n).astype(np.int32)
    biases = rng.uniform(0.02, 0.98, size=num_sites)
    outcomes = (rng.random(n) < biases[sites]).astype(np.uint8)

    # Give the first eighth of the sites loop-shaped streams (taken for a
    # per-site trip count, then one not-taken exit) so the loop predictor
    # and TAGE's long histories have structure to learn.
    order = np.argsort(sites, kind="stable")
    sorted_sites = sites[order]
    positions = np.arange(n, dtype=np.int64)
    new_segment = np.r_[True, sorted_sites[1:] != sorted_sites[:-1]]
    segment_start = np.where(new_segment, positions, 0)
    np.maximum.accumulate(segment_start, out=segment_start)
    occurrence = np.empty(n, dtype=np.int64)
    occurrence[order] = positions - segment_start

    loopish = sites < num_sites // 8
    trips = 3 + (sites % 13)
    outcomes = np.where(
        loopish, (occurrence % trips != trips - 1).astype(np.uint8), outcomes
    )
    return BranchTrace(
        program="<bench>", input_name=f"replay-{n}", num_sites=num_sites,
        sites=sites, outcomes=outcomes.astype(np.uint8),
    )


@pytest.fixture(scope="module")
def replay_trace() -> BranchTrace:
    return _replay_trace()


@pytest.mark.parametrize("kind,factory", KINDS, ids=[k for k, _ in KINDS])
def bench_replay_speedup(kind, factory, replay_trace, bench_extras):
    ref_start = time.perf_counter()
    ref = simulate_reference(factory(), replay_trace)
    ref_seconds = time.perf_counter() - ref_start

    vec_seconds = float("inf")
    vec = None
    for _ in range(3):
        start = time.perf_counter()
        vec = try_simulate_vectorized(factory(), replay_trace)
        vec_seconds = min(vec_seconds, time.perf_counter() - start)
    assert vec is not None, f"{kind} fell back to the reference loop"

    # The speedup only counts if the answer is the same answer.
    np.testing.assert_array_equal(ref.correct, vec.correct)
    np.testing.assert_array_equal(ref.exec_counts, vec.exec_counts)
    np.testing.assert_array_equal(ref.correct_counts, vec.correct_counts)

    speedup = ref_seconds / vec_seconds if vec_seconds > 0 else float("inf")
    _ROWS.append((kind, len(replay_trace), ref_seconds, vec_seconds, speedup))
    bench_extras.update({
        "kind": kind,
        "events": len(replay_trace),
        "ref_seconds": round(ref_seconds, 6),
        "vec_seconds": round(vec_seconds, 6),
        "speedup": round(speedup, 2),
        "vec_events_per_second": round(len(replay_trace) / vec_seconds, 1),
    })


def bench_replay_speedup_summary(archive, bench_extras):
    assert len(_ROWS) == len(KINDS), "run the per-kind benches first"
    lines = [f"Vectorized replay vs reference loop ({_EVENTS} events, "
             f"{_NUM_SITES} sites)",
             f"{'kind':12s} {'ref s':>9s} {'vec s':>9s} {'speedup':>8s} "
             f"{'vec events/s':>13s}"]
    for kind, events, ref_s, vec_s, speedup in _ROWS:
        lines.append(f"{kind:12s} {ref_s:9.4f} {vec_s:9.4f} {speedup:7.1f}x "
                     f"{events / vec_s:13.0f}")
    archive("vectorized_replay", "\n".join(lines))

    speedups = {kind: round(s, 2) for kind, _, _, _, s in _ROWS}
    fast = [kind for kind, speedup in speedups.items() if speedup >= 2.0]
    bench_extras.update({
        "kinds_at_2x": sorted(fast),
        "speedups": speedups,
    })
    assert len(fast) >= 3, (
        f"acceptance floor: >= 3 kinds at >= 2x, got {fast}"
    )
    slow = {kind: speedups[kind] for kind, floor in KIND_FLOORS.items()
            if speedups[kind] < floor}
    assert not slow, f"per-kind floors {KIND_FLOORS} missed: {slow}"
