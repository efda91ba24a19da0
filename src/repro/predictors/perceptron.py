"""Perceptron branch predictor [Jiménez & Lin, HPCA 2001].

The paper's alternative target predictor: 16 KB = 457 entries x (36 history
weights + bias) of 8-bit weights, 36-bit global history.  Prediction is the
sign of ``bias + sum(w_i * h_i)`` with ``h_i`` in {-1, +1}; training runs
on a misprediction or when ``|y| <= theta`` with the standard threshold
``theta = floor(1.93 * h + 14)``.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import Predictor


class Perceptron(Predictor):
    """Global-history perceptron predictor."""

    def __init__(self, num_entries: int = 457, history_bits: int = 36, weight_bits: int = 8):
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        if history_bits < 1:
            raise ValueError("history_bits must be >= 1")
        if weight_bits < 2:
            raise ValueError("weight_bits must be >= 2")
        self.num_entries = num_entries
        self.history_bits = history_bits
        self.weight_bits = weight_bits
        self.theta = int(1.93 * history_bits + 14)
        self.weight_max = (1 << (weight_bits - 1)) - 1
        self.weight_min = -(1 << (weight_bits - 1))
        # Column 0 is the bias weight; columns 1..h pair with history bits.
        self.weights = np.zeros((num_entries, history_bits + 1), dtype=np.int32)
        self.history = np.ones(history_bits, dtype=np.int32)  # +1 = taken
        self.name = f"perceptron-{num_entries}x{history_bits}"

    def predict_and_update(self, site_id: int, taken: int) -> int:
        row = self.weights[site_id % self.num_entries]
        history = self.history
        y = int(row[0]) + int(np.dot(row[1:], history))
        prediction = 1 if y >= 0 else 0

        outcome_sign = 1 if taken else -1
        if prediction != taken or abs(y) <= self.theta:
            row[0] = min(self.weight_max, max(self.weight_min, int(row[0]) + outcome_sign))
            np.clip(row[1:] + outcome_sign * history, self.weight_min, self.weight_max, out=row[1:])

        # Shift the new outcome into the (age-ordered) history.
        history[:-1] = history[1:]
        history[-1] = outcome_sign
        return prediction

    def reset(self) -> None:
        self.weights.fill(0)
        self.history.fill(1)

    def state_dict(self) -> dict:
        return {"weights": self.weights.copy(), "history": self.history.copy()}

    def describe(self) -> str:
        bytes_ = self.num_entries * (self.history_bits + 1) * self.weight_bits // 8
        return (
            f"perceptron, {self.num_entries} entries x {self.history_bits}-bit history "
            f"({bytes_ // 1024} KB of {self.weight_bits}-bit weights), theta={self.theta}"
        )
