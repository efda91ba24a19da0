"""Exact vectorized trace replay for the predictor zoo.

The Python-loop replay in :func:`repro.predictors.simulate.simulate_reference`
is the innermost hot loop of the whole experiment suite.  Every predictor
whose *state evolution* depends only on the trace — never on its own
predictions — can be replayed exactly with array operations, because the
entire sequence of table indices is computable up front and each storage
cell then evolves independently, driven only by the branches that map to
it.  That covers most of the zoo:

* **bimodal / gshare / gag** — the table index of every dynamic branch is
  a pure function of the site id and the preceding trace outcomes
  (:func:`gshare_history` packs the global-history register with one
  shifted OR per history bit).  Each 2-bit saturating counter is a
  4-state DFA over {taken, not-taken}; DFA transition functions compose
  associatively, so the per-entry state sequences fall out of one
  *segmented* Hillis-Steele scan over transition-function composition
  (:func:`counter_scan`): sort branches by table entry (stably), represent
  each branch as its packed 4-entry transition table, and compose prefixes
  within index segments in O(log max-segment) gather passes.
* **local** — the same machinery, but every history register evolves from
  only the branches hashed to it: :func:`segmented_history` computes the
  per-register packed histories with per-segment shifted ORs, then the
  shared pattern table is replayed with :func:`counter_scan`.
* **tournament** — its gshare and bimodal components always train on the
  trace, so both component prediction streams come from their own exact
  kernels; the chooser is a counter table whose per-branch step is
  increment / decrement / *identity* (when both or neither component was
  right), which is just a third packed transition function in the same
  segmented scan (:func:`packed_scan`).
* **loopp** — per predictor entry, the outcome stream is a run-length
  code: runs of taken outcomes terminated by a not-taken exit.  The
  trained trip count after any completed run is always that run's length,
  and confidence is the (saturating) streak of equal consecutive run
  lengths — both computable with one vectorized run-length decode over
  all entries at once.
* **perceptron** — predictions do feed back into *when* weights train,
  but only within one table entry, and the ±1 history matrix is pure
  trace data (a sliding window over the outcome signs).  Per entry the
  replay runs a blocked integer matmul: compute ``y`` for a whole block
  of that entry's branches with the current weight vector, find the first
  branch that trains (misprediction or ``|y| <= theta``), apply that one
  integer-exact update, and resume after it.  All arithmetic is int64 —
  no rounding anywhere — so the weight stream is bit-identical.
* **tage** — the tagged-table *contents* evolve with allocation decisions
  that depend on predictions, so the table walk stays a sequential loop;
  but the expensive per-branch folded-history maintenance is pure trace
  data.  The folded registers are GF(2)-linear functions of the current
  history window, so the kernel precomputes per-age impulse masks once
  and XOR-accumulates whole index/tag streams vectorized, then runs a
  tight loop over precomputed integers.  If a predictor's stored folded
  registers ever disagree with the linear reconstruction (they cannot,
  unless the state was hand-edited), the kernel refuses and the caller
  falls back to the reference loop.

Every kernel is bit-identical to the reference loop — the differential
test harness asserts predictions, per-site counts *and* the final
predictor ``state_dict()`` on hundreds of seeded traces — including the
end-of-run state write-back, so ``reset=False`` chains behave the same on
either path.  :func:`try_simulate_vectorized` returns ``None`` for exact
types it has no kernel for (and for subclasses, which may change the
update rule) and for a kernel that refuses its input state;
:func:`repro.predictors.simulate.simulate` then runs the reference loop.
Only a refusal is a fallback: it is counted in ``replay_fallbacks_total``
and logged as a ``replay_fallback`` event.
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache

import numpy as np

from repro.obs import get_registry, get_tracer
from repro.obs.logs import log_event
from repro.predictors.bimodal import Bimodal
from repro.predictors.gag import GAg
from repro.predictors.gshare import Gshare
from repro.predictors.local import LocalTwoLevel
from repro.predictors.loopp import LoopPredictor
from repro.predictors.perceptron import Perceptron
from repro.predictors.tage import Tage, _FoldedHistory
from repro.predictors.tournament import Tournament
from repro.trace.trace import BranchTrace

log = logging.getLogger(__name__)

#: A transition function f: {0..3} -> {0..3} packs into one byte with
#: f[s] stored at bits 2s..2s+1.  The saturating-counter steps:
#:   not-taken [0, 0, 1, 2] -> 0b10_01_00_00,  taken [1, 2, 3, 3] -> 0b11_11_10_01,
#: and the identity [0, 1, 2, 3] -> 0b11_10_01_00 (a chooser branch where
#: both components agreed on correctness leaves the counter alone).
_STEP_NOT_TAKEN = 0b10010000
_STEP_TAKEN = 0b11111001
_STEP_IDENTITY = 0b11100100


def _build_compose_table() -> np.ndarray:
    """COMPOSE[late, early] = packed(late o early), i.e. early applied first."""
    early = np.arange(256, dtype=np.uint16)[None, :]
    late = np.arange(256, dtype=np.uint16)[:, None]
    packed = np.zeros((256, 256), dtype=np.uint16)
    for state in range(4):
        mid = (early >> (2 * state)) & 3
        packed |= (((late >> (2 * mid)) & 3)) << (2 * state)
    return packed.astype(np.uint8)


_COMPOSE = _build_compose_table()

#: Constant functions ignore what ran before them: f o g == f.  Saturation
#: makes compositions collapse to constants fast (any three equal outcomes
#: pin the counter), which lets the scan retire rows early.
_IS_CONSTANT = np.array(
    [all((f >> (2 * s)) & 3 == (f & 3) for s in range(4)) for f in range(256)],
    dtype=bool,
)


def packed_scan(
    indices: np.ndarray, steps: np.ndarray, initial: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay a table of 4-state cells over arbitrary packed transitions.

    ``indices[i]`` is the table entry branch *i* reads/updates and
    ``steps[i]`` its packed transition function (one of the ``_STEP_*``
    bytes, or any packed f: {0..3} -> {0..3}); ``initial`` is the table's
    starting state indexed by entry.  Returns ``(state_before,
    touched_entries, final_states)`` where ``state_before[i]`` is entry
    ``indices[i]``'s state just before branch *i* applies its transition,
    and ``final_states[k]`` is the last state of ``touched_entries[k]``.
    """
    n = int(indices.size)
    if n == 0:
        empty = np.zeros(0, dtype=np.uint8)
        return empty, np.zeros(0, dtype=np.int64), empty

    # Narrow keys take numpy's radix path, ~10x faster than mergesort.
    if indices.dtype.itemsize > 2 and int(indices.max()) < (1 << 16):
        indices = indices.astype(np.uint16)
    order = np.argsort(indices, kind="stable")
    idx = indices[order]

    positions = np.arange(n, dtype=np.int64)
    new_segment = np.empty(n, dtype=bool)
    new_segment[0] = True
    new_segment[1:] = idx[1:] != idx[:-1]
    segment_start = np.where(new_segment, positions, 0)
    np.maximum.accumulate(segment_start, out=segment_start)
    pos = positions - segment_start

    # window[i] starts as branch i's own packed transition function and,
    # after the scan, holds the composition of every transition from its
    # segment's start through i (earliest applied first).  The in-place
    # update is sound: numpy materializes the gathered right-hand side
    # before the scatter, so each pass reads only pre-pass values.
    window = steps[order].astype(np.uint8, copy=True)
    offset = 1
    rows = np.nonzero(pos >= 1)[0]
    while rows.size:
        composed = _COMPOSE[window[rows], window[rows - offset]]
        window[rows] = composed
        offset <<= 1
        # A row is done once its window spans its whole segment prefix
        # (pos < offset) or collapsed to a constant function, which no
        # earlier-applied transition can alter.  Rows retired as constant
        # stay correct for *readers* too: late o constant == constant.
        keep = np.nonzero(~_IS_CONSTANT[composed] & (pos[rows] >= offset))[0]
        rows = rows[keep]

    state_after = (window >> (2 * initial[idx].astype(np.uint8))) & 3
    state_before = np.empty(n, dtype=np.uint8)
    first = np.nonzero(new_segment)[0]
    state_before[first] = initial[idx[first]]
    later = np.nonzero(~new_segment)[0]
    state_before[later] = state_after[later - 1]

    segment_last = np.empty(n, dtype=bool)
    segment_last[-1] = True
    segment_last[:-1] = new_segment[1:]
    touched = idx[segment_last].astype(np.int64)
    finals = state_after[segment_last]

    unsorted_before = np.empty(n, dtype=np.uint8)
    unsorted_before[order] = state_before
    return unsorted_before, touched, finals


def counter_scan(
    indices: np.ndarray, outcomes: np.ndarray, initial: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay a table of 2-bit saturating counters over a branch stream.

    The taken/not-taken special case of :func:`packed_scan`:
    ``outcomes[i]`` is branch *i*'s taken bit and every branch applies the
    saturating-counter step toward its outcome.
    """
    taken = np.asarray(outcomes).astype(bool)
    steps = np.where(taken, np.uint8(_STEP_TAKEN), np.uint8(_STEP_NOT_TAKEN))
    return packed_scan(indices, steps, initial)


def gshare_history(outcomes: np.ndarray, bits: int, mask: int, initial: int = 0) -> np.ndarray:
    """The gshare global-history register before each dynamic branch.

    ``history[i]`` packs outcomes ``i-1 .. i-bits`` (most recent in the
    low bit), exactly the register produced by the sequential update
    ``h = ((h << 1) | taken) & mask`` starting from ``initial``.
    """
    n = int(outcomes.size)
    dtype = np.int32 if bits < 31 else np.int64
    history = np.zeros(n, dtype=dtype)
    bits_in = outcomes.astype(dtype)
    for k in range(1, min(bits, n - 1) + 1):
        history[k:] |= bits_in[: n - k] << dtype(k - 1)
    if initial:
        for i in range(min(bits, n)):
            history[i] |= (initial << i) & mask
    history &= mask
    return history


def _final_history(outcomes: np.ndarray, bits: int, mask: int, initial: int) -> int:
    n = int(outcomes.size)
    history = 0
    for k in range(1, min(bits, n) + 1):
        history |= int(outcomes[n - k]) << (k - 1)
    if n < bits:
        history |= (initial << n) & mask
    return history & mask


def segmented_history(
    keys: np.ndarray, outcomes: np.ndarray, bits: int, mask: int, initials: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-key packed outcome history before each dynamic branch.

    Register ``keys[i]`` evolves by ``h = ((h << 1) | outcomes[i]) & mask``
    starting from ``initials[key]``; ``mask`` must be ``(1 << bits) - 1``.
    Returns ``(history_before, touched_keys, final_histories)`` with
    ``history_before`` in original trace order and one
    ``final_histories[k]`` per ``touched_keys[k]``.  This is
    :func:`gshare_history` generalized from one global register to any
    number of site-hashed registers (the local predictor's layout).
    """
    n = int(keys.size)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    order = np.argsort(keys, kind="stable")
    key = keys[order]
    bits_in = outcomes[order].astype(np.int64)

    positions = np.arange(n, dtype=np.int64)
    new_segment = np.empty(n, dtype=bool)
    new_segment[0] = True
    new_segment[1:] = key[1:] != key[:-1]
    segment_start = np.where(new_segment, positions, 0)
    np.maximum.accumulate(segment_start, out=segment_start)
    pos = positions - segment_start

    history = np.zeros(n, dtype=np.int64)
    for j in range(1, bits + 1):
        valid = np.nonzero(pos >= j)[0]
        if valid.size == 0:
            break
        history[valid] |= bits_in[valid - j] << (j - 1)
    # Positions the register's own stream has not yet filled still carry
    # (shifted) initial-history bits; fully warmed positions shift them
    # past the mask entirely.
    history |= (initials[key] << np.minimum(pos, bits)) & mask
    history &= mask

    segment_last = np.empty(n, dtype=bool)
    segment_last[-1] = True
    segment_last[:-1] = new_segment[1:]
    touched = key[segment_last].astype(np.int64)
    finals = ((history[segment_last] << 1) | bits_in[segment_last]) & mask

    unsorted = np.empty(n, dtype=np.int64)
    unsorted[order] = history
    return unsorted, touched, finals


def _segments(keys_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the equal-key runs of a sorted key array."""
    n = int(keys_sorted.size)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    starts = np.nonzero(np.r_[True, keys_sorted[1:] != keys_sorted[:-1]])[0]
    stops = np.r_[starts[1:], n]
    return starts, stops


# ----------------------------------------------------------------------
# Per-kind kernels.  Each takes (predictor, sites, outcomes), returns the
# uint8 prediction stream, and mutates the predictor to its exact
# end-of-run state.  ``reset`` is the caller's business.
# ----------------------------------------------------------------------


def _write_back_counters(table: list, touched: np.ndarray, finals: np.ndarray) -> None:
    for entry, state in zip(touched.tolist(), finals.tolist()):
        table[entry] = state


def _replay_bimodal(predictor: Bimodal, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    dtype = np.int32 if predictor.table_bits < 31 else np.int64
    indices = sites.astype(dtype) & dtype(predictor.mask)
    initial = np.asarray(predictor.table, dtype=np.uint8)
    state_before, touched, finals = counter_scan(indices, outcomes, initial)
    _write_back_counters(predictor.table, touched, finals)
    return (state_before >= 2).astype(np.uint8)


def _replay_gshare(predictor: Gshare, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    dtype = np.int32 if predictor.table_bits < 31 else np.int64
    start_history = predictor.history
    history = gshare_history(outcomes, predictor.table_bits, predictor.mask, start_history)
    indices = (history.astype(dtype) ^ sites.astype(dtype)) & dtype(predictor.mask)
    initial = np.asarray(predictor.table, dtype=np.uint8)
    state_before, touched, finals = counter_scan(indices, outcomes, initial)
    _write_back_counters(predictor.table, touched, finals)
    predictor.history = _final_history(
        outcomes, predictor.table_bits, predictor.mask, start_history
    )
    return (state_before >= 2).astype(np.uint8)


def _replay_gag(predictor: GAg, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    start_history = predictor.history
    # GAg is gshare without the address XOR: the (already masked) global
    # history register *is* the table index.
    indices = gshare_history(outcomes, predictor.history_bits, predictor.mask, start_history)
    initial = np.asarray(predictor.table, dtype=np.uint8)
    state_before, touched, finals = counter_scan(indices, outcomes, initial)
    _write_back_counters(predictor.table, touched, finals)
    predictor.history = _final_history(
        outcomes, predictor.history_bits, predictor.mask, start_history
    )
    return (state_before >= 2).astype(np.uint8)


def _replay_local(predictor: LocalTwoLevel, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    keys = sites.astype(np.int64) % predictor.num_histories
    initials = np.asarray(predictor.histories, dtype=np.int64)
    history, touched_keys, final_histories = segmented_history(
        keys, outcomes, predictor.history_bits, predictor.pattern_mask, initials
    )
    initial = np.asarray(predictor.table, dtype=np.uint8)
    state_before, touched, finals = counter_scan(history, outcomes, initial)
    _write_back_counters(predictor.table, touched, finals)
    histories = predictor.histories
    for key, final in zip(touched_keys.tolist(), final_histories.tolist()):
        histories[key] = final
    return (state_before >= 2).astype(np.uint8)


def _replay_tournament(predictor: Tournament, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    global_pred = _replay_gshare(predictor.global_component, sites, outcomes)
    simple_pred = _replay_bimodal(predictor.simple_component, sites, outcomes)
    global_ok = global_pred == outcomes
    simple_ok = simple_pred == outcomes
    # The chooser trains only when exactly one component was right; the
    # other branches apply the identity transition.
    steps = np.full(sites.size, _STEP_IDENTITY, dtype=np.uint8)
    steps[global_ok & ~simple_ok] = _STEP_TAKEN
    steps[simple_ok & ~global_ok] = _STEP_NOT_TAKEN
    indices = sites.astype(np.int64) & np.int64(predictor.chooser_mask)
    initial = np.asarray(predictor.chooser, dtype=np.uint8)
    choice_before, touched, finals = packed_scan(indices, steps, initial)
    _write_back_counters(predictor.chooser, touched, finals)
    return np.where(choice_before >= 2, global_pred, simple_pred).astype(np.uint8)


def _replay_loop(predictor: LoopPredictor, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """One run-length decode over every predictor entry at once.

    Branches are stably sorted by entry, so each entry's outcome stream is
    one contiguous segment, and it decodes into runs: maximal spans of
    taken outcomes each closed by one not-taken exit.  Cut every segment
    at its exits into *slots*: a segment's first slot holds the branches
    before its first exit (and carries the entry's saved count, trip and
    confidence), and each exit opens the next slot.  Slots are numbered
    globally in sorted order, so exit ``j`` of segment ``s`` opens slot
    ``j + s + 1``.  Within a slot the entry's trip and confidence are
    constant and its count climbs by one per branch, so the whole slot's
    predictions follow from one per-slot threshold position.
    """
    n = int(sites.size)
    # The narrowest key type lets the stable sort use radix sort (<= 16 bits).
    keys = (sites.astype(np.int64) % predictor.num_entries).astype(
        np.min_scalar_type(predictor.num_entries - 1))
    order = np.argsort(keys, kind="stable")
    key_sorted = keys[order]
    starts, stops = _segments(key_sorted)
    num_segs = int(starts.size)

    entries = predictor.entries
    touched = key_sorted[starts].tolist()
    seed_trip = np.array([entries[k].trip for k in touched], dtype=np.int64)
    seed_conf = np.array([entries[k].confidence for k in touched], dtype=np.int64)
    seed_count = np.array([entries[k].count for k in touched], dtype=np.int64)

    zero_pos = np.flatnonzero(outcomes[order] == 0)  # exits, in sorted order
    num_runs = int(zero_pos.size)
    run_base = np.searchsorted(zero_pos, starts)  # global index of a segment's first run
    runs_in_seg = np.diff(run_base, append=num_runs)
    zseg = np.repeat(np.arange(num_segs, dtype=np.int64), runs_in_seg)
    grun = np.arange(num_runs, dtype=np.int64)
    first_slot = run_base + np.arange(num_segs, dtype=np.int64)
    next_slot = grun + zseg + 1  # the slot exit j opens
    num_slots = num_runs + num_segs

    # The entry's count before the branch at sorted position i of slot k
    # is i - base[k].
    slot_start = np.empty(num_slots, dtype=np.int64)
    slot_start[first_slot] = starts
    slot_start[next_slot] = zero_pos + 1
    base = slot_start.copy()
    base[first_slot] -= seed_count

    # The trained trip after any completed run is always that run's length
    # (on a match it already equals the trip), and confidence is the
    # saturating streak of equal consecutive run lengths — with the
    # entry's carried trip/confidence seeding its segment's first
    # comparison.  A global maximum-accumulate of mismatch positions leaks
    # across segment boundaries, but a leaked value is always below the
    # segment's own run base, so no per-segment reset is needed.
    run_lengths = zero_pos - base[next_slot - 1]
    trip = np.empty(num_slots, dtype=np.int64)
    trip[first_slot] = seed_trip
    trip[next_slot] = run_lengths
    equal = run_lengths == trip[next_slot - 1]
    zbase = run_base[zseg]
    mismatch = np.where(~equal, grun, np.int64(-1))
    last_mismatch = np.maximum.accumulate(mismatch)
    streak = np.where(
        last_mismatch >= zbase,
        grun - last_mismatch,
        grun - zbase + 1 + seed_conf[zseg],
    )
    confidence_after = np.where(equal, np.minimum(15, streak), 0)
    confidence = np.empty(num_slots, dtype=np.int64)
    confidence[first_slot] = seed_conf
    confidence[next_slot] = confidence_after

    # A confident entry predicts taken while count < trip, i.e. for sorted
    # positions below base + trip; an unconfident one always predicts taken.
    confident = (confidence >= predictor.confidence_threshold) & (trip > 0)
    limit = np.where(confident, base + trip, n)
    slot_len = np.diff(slot_start, append=n)
    predictions = np.empty(n, dtype=np.uint8)
    predictions[order] = np.arange(n) < np.repeat(limit, slot_len)

    last_run = run_base + runs_in_seg - 1
    for seg in range(num_segs):
        entry = entries[touched[seg]]
        if runs_in_seg[seg]:
            run = int(last_run[seg])
            entry.trip = int(run_lengths[run])
            entry.confidence = int(confidence_after[run])
            entry.count = int(stops[seg] - 1 - zero_pos[run])
        else:
            entry.count += int(stops[seg] - starts[seg])
    return predictions


def _replay_perceptron(predictor: Perceptron, sites: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    n = int(sites.size)
    h = predictor.history_bits
    signs = outcomes.astype(np.int32) * 2 - 1
    # extended[i : i+h] is the (age-ordered) history before branch i.
    extended = np.concatenate([predictor.history.astype(np.int32), signs])
    matrix = np.lib.stride_tricks.sliding_window_view(extended, h)[:n]

    keys = sites.astype(np.int64) % predictor.num_entries
    order = np.argsort(keys, kind="stable")
    key_sorted = keys[order]
    taken = outcomes.astype(bool)
    theta = predictor.theta
    weight_min, weight_max = predictor.weight_min, predictor.weight_max
    predictions = np.zeros(n, dtype=np.uint8)
    starts, stops = _segments(key_sorted)
    for begin, end in zip(starts.tolist(), stops.tolist()):
        entry = int(key_sorted[begin])
        rows = order[begin:end]
        m = end - begin
        weights = predictor.weights[entry].astype(np.int64)
        bias, taps = weights[0], weights[1:]
        entry_taken = taken[rows]
        # One gather + widening per entry; the loops below slice
        # contiguous views out of it instead of re-converting.
        entry_matrix = matrix[rows].astype(np.int64)
        taken_list = entry_taken.tolist()
        out = np.empty(m, dtype=np.uint8)
        bias = int(bias)
        pos = 0
        block = 16
        streak = 8  # Clean events since the last training event.
        while pos < m:
            if streak < 8:
                # Training-dense regime: a blocked matmul would advance
                # one event per ~8 numpy calls here, slower than the
                # plain loop.  Step scalar until the entry quiets down.
                row = entry_matrix[pos]
                y = bias + int(row @ taps)
                predicted = y >= 0
                out[pos] = predicted
                if predicted != taken_list[pos] or abs(y) <= theta:
                    sign = 1 if taken_list[pos] else -1
                    bias = min(weight_max, max(weight_min, bias + sign))
                    np.clip(taps + sign * row, weight_min, weight_max, out=taps)
                    streak = 0
                else:
                    streak += 1
                pos += 1
                continue
            take = min(block, m - pos)
            y = bias + entry_matrix[pos:pos + take] @ taps
            predicted = y >= 0
            trains = (predicted != entry_taken[pos:pos + take]) | (np.abs(y) <= theta)
            hit = int(np.argmax(trains)) if trains.any() else -1
            if hit < 0:
                # A clean block means the weights are stable; grow the
                # window so long quiet stretches cost one matmul each.
                out[pos:pos + take] = predicted
                pos += take
                block = min(block * 2, 1024)
                continue
            out[pos:pos + hit + 1] = predicted[:hit + 1]
            sign = 1 if taken_list[pos + hit] else -1
            bias = min(weight_max, max(weight_min, bias + sign))
            np.clip(taps + sign * entry_matrix[pos + hit],
                    weight_min, weight_max, out=taps)
            pos += hit + 1
            block = 16
            streak = hit
        predictions[rows] = out
        weights[0] = bias
        predictor.weights[entry] = weights
    predictor.history = extended[n:n + h].astype(np.int32).copy()
    return predictions


@lru_cache(maxsize=None)
def _fold_impulse_masks(length: int, width: int) -> tuple[int, ...]:
    """``masks[age]`` = folded register holding a lone history bit of ``age``.

    The folded-history update is GF(2)-linear in (register, new bit,
    outgoing bit), and the outgoing bit is itself determined by the
    history window — so the folded register is a fixed linear function of
    the current ``length``-bit window, characterized by one impulse
    response per bit age.  Computed by running the *sequential* update on
    unit impulses, which makes the masks correct by construction.
    """
    masks = []
    window_mask = (1 << length) - 1
    for age in range(length):
        folded = _FoldedHistory(length, width)
        history = 0
        for step in range(length):
            bit = 1 if step == length - 1 - age else 0
            shifted = (history << 1) | bit
            folded.update(bit, (shifted >> length) & 1)
            history = shifted & window_mask
        masks.append(folded.folded)
    return tuple(masks)


def _fold_of_window(window: int, masks: tuple[int, ...]) -> int:
    value = 0
    for age, mask in enumerate(masks):
        if (window >> age) & 1:
            value ^= mask
    return value


def _replay_tage(predictor: Tage, sites: np.ndarray, outcomes: np.ndarray):
    n = int(sites.size)
    max_history = predictor.max_history
    start_history = predictor.history
    # extended[j] holds history bits oldest-first, then the trace: the bit
    # of age a before branch i is extended[max_history + i - 1 - a].
    extended = np.empty(max_history + n, dtype=np.uint8)
    for j in range(max_history):
        extended[j] = (start_history >> (max_history - 1 - j)) & 1
    extended[max_history:] = outcomes
    site64 = sites.astype(np.int64)

    index_streams: list[list[int]] = []
    tag_streams: list[list[int]] = []
    for table, length in enumerate(predictor.history_lengths):
        index_masks = _fold_impulse_masks(length, predictor.table_bits)
        tag_masks = _fold_impulse_masks(length, predictor.tag_bits)
        # Sanity: the stored folded registers must equal the linear
        # reconstruction of the starting window, or exactness is off the
        # table (possible only for hand-edited state).
        start_window = 0
        for age in range(length):
            start_window |= ((start_history >> age) & 1) << age
        if (_fold_of_window(start_window, index_masks)
                != predictor.folded_index[table].folded
                or _fold_of_window(start_window, tag_masks)
                != predictor.folded_tag[table].folded):
            return None
        windows = np.lib.stride_tricks.sliding_window_view(extended, length)[
            max_history - length: max_history - length + n
        ]
        folded_index = np.zeros(n, dtype=np.int64)
        folded_tag = np.zeros(n, dtype=np.int64)
        for column in range(length):
            age = length - 1 - column
            bits = windows[:, column].astype(np.int64)
            folded_index ^= bits * index_masks[age]
            folded_tag ^= bits * tag_masks[age]
        index_stream = (
            site64 ^ (site64 >> predictor.table_bits) ^ folded_index
        ) & predictor.index_mask
        tag_stream = (site64 ^ (folded_tag << 1)) & predictor.tag_mask
        index_streams.append(index_stream.tolist())
        tag_streams.append(tag_stream.tolist())

    # Sequential table walk over precomputed indices/tags — allocation
    # decisions depend on the predictions themselves, so this part cannot
    # be vectorized exactly; all the per-branch history folding above can.
    num_tables = predictor.num_tables
    counters = predictor.counters
    tags = predictor.tags
    useful = predictor.useful
    base = predictor.base
    base_mask = predictor.base_mask
    sites_list = sites.tolist()
    outcomes_list = outcomes.tolist()
    predictions = np.empty(n, dtype=np.uint8)
    for i in range(n):
        site_id = sites_list[i]
        taken = outcomes_list[i]
        provider = -1
        provider_index = 0
        alt = -1
        alt_index = 0
        for table in range(num_tables - 1, -1, -1):
            index = index_streams[table][i]
            if tags[table][index] == tag_streams[table][i]:
                if provider < 0:
                    provider = table
                    provider_index = index
                else:
                    alt = table
                    alt_index = index
                    break
        base_index = site_id & base_mask
        base_prediction = 1 if base[base_index] >= 2 else 0
        if alt >= 0:
            alt_prediction = 1 if counters[alt][alt_index] >= 4 else 0
        else:
            alt_prediction = base_prediction
        if provider >= 0:
            prediction = 1 if counters[provider][provider_index] >= 4 else 0
        else:
            prediction = base_prediction

        correct = prediction == taken
        if provider >= 0:
            counter = counters[provider][provider_index]
            if taken:
                if counter < 7:
                    counters[provider][provider_index] = counter + 1
            elif counter > 0:
                counters[provider][provider_index] = counter - 1
            if prediction != alt_prediction:
                use = useful[provider][provider_index]
                if correct and use < 3:
                    useful[provider][provider_index] = use + 1
                elif not correct and use > 0:
                    useful[provider][provider_index] = use - 1
        else:
            counter = base[base_index]
            if taken:
                if counter < 3:
                    base[base_index] = counter + 1
            elif counter > 0:
                base[base_index] = counter - 1

        if not correct and provider < num_tables - 1:
            allocated = False
            for table in range(provider + 1, num_tables):
                index = index_streams[table][i]
                if useful[table][index] == 0:
                    tags[table][index] = tag_streams[table][i]
                    counters[table][index] = 4 if taken else 3
                    allocated = True
                    break
            if not allocated:
                for table in range(provider + 1, num_tables):
                    index = index_streams[table][i]
                    if useful[table][index] > 0:
                        useful[table][index] -= 1
        predictions[i] = prediction

    # End-of-run history: the final window, re-packed and re-folded.
    final_history = 0
    for age in range(max_history):
        final_history |= int(extended[max_history + n - 1 - age]) << age
    predictor.history = final_history
    for table, length in enumerate(predictor.history_lengths):
        window = final_history & ((1 << length) - 1)
        predictor.folded_index[table].folded = _fold_of_window(
            window, _fold_impulse_masks(length, predictor.table_bits)
        )
        predictor.folded_tag[table].folded = _fold_of_window(
            window, _fold_impulse_masks(length, predictor.tag_bits)
        )
    return predictions


#: Exact-type dispatch: subclasses may change the update rule and always
#: fall back to the reference loop.
_KERNELS = {
    Bimodal: _replay_bimodal,
    Gshare: _replay_gshare,
    GAg: _replay_gag,
    LocalTwoLevel: _replay_local,
    Tournament: _replay_tournament,
    LoopPredictor: _replay_loop,
    Perceptron: _replay_perceptron,
    Tage: _replay_tage,
}

#: Registry names of the kinds with an exact vectorized kernel.
VECTORIZED_KIND_NAMES = frozenset(
    {"bimodal", "gshare", "gag", "local", "tournament", "loop", "perceptron", "tage"}
)


def try_simulate_vectorized(predictor, trace: BranchTrace, reset: bool = True):
    """Vectorized replay if ``predictor`` has an exact kernel, else ``None``.

    Dispatch is on the predictor's *exact* type (subclasses may change the
    update rule).  Matches the reference loop bit for bit, including
    mutating the predictor to its end-of-run state.
    """
    from repro.predictors.simulate import SimulationResult

    kernel = _KERNELS.get(type(predictor))
    if kernel is None:
        return None
    kind = type(predictor).__name__
    start = time.perf_counter()
    with get_tracer().span("replay.vectorized", cat="replay",
                           predictor=predictor.name, kind=kind,
                           events=len(trace)) as sp:
        if reset:
            predictor.reset()
        predictions = kernel(predictor, trace.sites, trace.outcomes)
        if predictions is None:
            sp.set("fallback", True)
            get_registry().counter(
                "replay_fallbacks_total", "kernels that refused their input state",
            ).labels(kind=kind).inc()
            log_event(log, "replay_fallback", kind=kind, predictor=predictor.name,
                      events=len(trace))
            return None
        correct = (predictions == trace.outcomes).astype(np.uint8)
        elapsed = time.perf_counter() - start
        events_per_sec = len(trace) / elapsed if elapsed > 0 else 0.0
        sp.set("events_per_sec", round(events_per_sec, 1))
    registry = get_registry()
    registry.counter("replay_events_total",
                     "dynamic branches replayed (vectorized path)").labels(
                         kind=kind).inc(len(trace))
    registry.histogram("replay_seconds",
                       "wall time of one vectorized replay").labels(
                           kind=kind).observe(elapsed)
    registry.gauge("replay_events_per_second",
                   "throughput of the most recent vectorized replay").set(
                       round(events_per_sec, 1))

    exec_counts = np.bincount(trace.sites, minlength=trace.num_sites).astype(np.int64)
    correct_counts = np.bincount(
        trace.sites, weights=correct.astype(np.float64), minlength=trace.num_sites
    ).astype(np.int64)
    return SimulationResult(
        predictor_name=predictor.name,
        num_sites=trace.num_sites,
        correct=correct,
        exec_counts=exec_counts,
        correct_counts=correct_counts,
    )
