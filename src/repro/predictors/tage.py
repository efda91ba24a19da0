"""TAGE branch predictor [Seznec & Michaud 2006] (simplified).

A modern extension beyond the paper's 2006-era predictor pair: a bimodal
base predictor plus ``num_tables`` tagged tables indexed with geometrically
increasing global-history lengths.  Prediction comes from the longest
matching tagged entry; allocation on mispredictions steals not-useful
entries in longer-history tables.

Included so the experiment suite can ask how 2D-profiling behaves when the
*target machine* has a predictor far stronger than the profiler's gshare —
a harsher version of the paper's Section 5.3 mismatch study.
"""

from __future__ import annotations

from repro.predictors.base import Predictor


class _FoldedHistory:
    """Circular-shift folded global history (Seznec's trick).

    Maintains ``folded`` = the ``length``-bit history compressed to
    ``width`` bits, updated incrementally in O(1) per branch.
    """

    __slots__ = ("length", "width", "folded", "_out_offset")

    def __init__(self, length: int, width: int):
        self.length = length
        self.width = width
        self.folded = 0
        self._out_offset = length % width

    def update(self, new_bit: int, outgoing_bit: int) -> None:
        folded = ((self.folded << 1) | new_bit) & ((1 << self.width) - 1)
        folded ^= (self.folded >> (self.width - 1)) & 1
        folded ^= outgoing_bit << self._out_offset % self.width
        self.folded = folded & ((1 << self.width) - 1)


class Tage(Predictor):
    """Simplified TAGE: bimodal base + tagged geometric-history tables."""

    def __init__(
        self,
        num_tables: int = 4,
        table_bits: int = 10,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 64,
        base_bits: int = 12,
    ):
        if num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        self.num_tables = num_tables
        self.table_bits = table_bits
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.index_mask = (1 << table_bits) - 1
        self.base_mask = (1 << base_bits) - 1

        # Geometric history lengths between min_history and max_history.
        if num_tables == 1:
            self.history_lengths = [min_history]
        else:
            ratio = (max_history / min_history) ** (1.0 / (num_tables - 1))
            self.history_lengths = [
                max(1, int(round(min_history * ratio ** i))) for i in range(num_tables)
            ]
        self.max_history = max(self.history_lengths)

        self.name = f"tage-{num_tables}x{1 << table_bits}"
        self.reset()

    def reset(self) -> None:
        size = 1 << self.table_bits
        # Per tagged table: parallel lists of counters (3-bit, 0..7,
        # >=4 = taken), tags, and useful bits.
        self.counters = [[4] * size for _ in range(self.num_tables)]
        self.tags = [[-1] * size for _ in range(self.num_tables)]
        self.useful = [[0] * size for _ in range(self.num_tables)]
        self.base = [2] * (self.base_mask + 1)  # 2-bit counters.
        self.history = 0  # Full history as an int bit queue (LSB = newest).
        self.folded_index = [
            _FoldedHistory(length, self.table_bits) for length in self.history_lengths
        ]
        self.folded_tag = [
            _FoldedHistory(length, self.tag_bits) for length in self.history_lengths
        ]

    def state_dict(self) -> dict:
        return {
            "counters": [list(t) for t in self.counters],
            "tags": [list(t) for t in self.tags],
            "useful": [list(t) for t in self.useful],
            "base": list(self.base),
            "history": self.history,
            "folded_index": [f.folded for f in self.folded_index],
            "folded_tag": [f.folded for f in self.folded_tag],
        }

    # ------------------------------------------------------------------

    def _index(self, table: int, site_id: int) -> int:
        return (site_id ^ (site_id >> self.table_bits)
                ^ self.folded_index[table].folded) & self.index_mask

    def _tag(self, table: int, site_id: int) -> int:
        return (site_id ^ (self.folded_tag[table].folded << 1)) & self.tag_mask

    def predict_and_update(self, site_id: int, taken: int) -> int:
        # --- Prediction: find the two longest matching tables. ---
        provider = -1
        provider_index = 0
        alt = -1
        alt_index = 0
        for table in range(self.num_tables - 1, -1, -1):
            index = self._index(table, site_id)
            if self.tags[table][index] == self._tag(table, site_id):
                if provider < 0:
                    provider = table
                    provider_index = index
                else:
                    alt = table
                    alt_index = index
                    break

        base_index = site_id & self.base_mask
        base_prediction = 1 if self.base[base_index] >= 2 else 0
        if alt >= 0:
            alt_prediction = 1 if self.counters[alt][alt_index] >= 4 else 0
        else:
            alt_prediction = base_prediction
        if provider >= 0:
            prediction = 1 if self.counters[provider][provider_index] >= 4 else 0
        else:
            prediction = base_prediction

        # --- Update. ---
        correct = prediction == taken
        if provider >= 0:
            counter = self.counters[provider][provider_index]
            if taken:
                if counter < 7:
                    self.counters[provider][provider_index] = counter + 1
            elif counter > 0:
                self.counters[provider][provider_index] = counter - 1
            # Useful bit: provider differed from altpred and was right/wrong.
            if prediction != alt_prediction:
                use = self.useful[provider][provider_index]
                if correct and use < 3:
                    self.useful[provider][provider_index] = use + 1
                elif not correct and use > 0:
                    self.useful[provider][provider_index] = use - 1
        else:
            counter = self.base[base_index]
            if taken:
                if counter < 3:
                    self.base[base_index] = counter + 1
            elif counter > 0:
                self.base[base_index] = counter - 1

        # Allocation on misprediction in a longer-history table.
        if not correct and provider < self.num_tables - 1:
            allocated = False
            for table in range(provider + 1, self.num_tables):
                index = self._index(table, site_id)
                if self.useful[table][index] == 0:
                    self.tags[table][index] = self._tag(table, site_id)
                    self.counters[table][index] = 4 if taken else 3
                    allocated = True
                    break
            if not allocated:
                # Decay usefulness so future allocations can succeed.
                for table in range(provider + 1, self.num_tables):
                    index = self._index(table, site_id)
                    if self.useful[table][index] > 0:
                        self.useful[table][index] -= 1

        # --- History update (full queue + folded registers). ---
        outgoing_bits = self.history >> (self.max_history - 1) if self.max_history else 0
        self.history = ((self.history << 1) | taken) & ((1 << self.max_history) - 1)
        for table, length in enumerate(self.history_lengths):
            outgoing = (self.history >> length) & 1 if length < self.max_history else outgoing_bits & 1
            self.folded_index[table].update(taken, outgoing)
            self.folded_tag[table].update(taken, outgoing)
        return prediction

    def describe(self) -> str:
        lengths = ",".join(str(length) for length in self.history_lengths)
        return (
            f"TAGE, {self.num_tables} tagged tables x {1 << self.table_bits} entries, "
            f"history lengths [{lengths}], {self.tag_bits}-bit tags"
        )
