"""Trace-driven predictor simulation.

Replays a :class:`repro.trace.trace.BranchTrace` through a predictor and
records, for every dynamic branch, whether the prediction was correct.
The per-branch correctness stream is what the 2D-profiler consumes; the
per-site aggregates are what a conventional accuracy profiler reports.

:func:`simulate` is the one production entry point: it runs the exact
vectorized kernel when the predictor's type has one and otherwise
:func:`simulate_reference`, the branch-at-a-time loop every kernel is
tested against.  A kernel that refuses its input state is the one
fallback: it is counted and logged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.base import Predictor
from repro.trace.trace import BranchTrace


@dataclass
class SimulationResult:
    """Outcome of replaying one trace through one predictor."""

    predictor_name: str
    num_sites: int
    correct: np.ndarray        # uint8, aligned with the trace's dynamic branches
    exec_counts: np.ndarray    # int64, per site
    correct_counts: np.ndarray  # int64, per site

    @property
    def num_branches(self) -> int:
        return int(self.correct.size)

    @property
    def overall_accuracy(self) -> float:
        if self.correct.size == 0:
            return 0.0
        return float(self.correct_counts.sum()) / float(self.exec_counts.sum())

    @property
    def overall_misprediction_rate(self) -> float:
        return 1.0 - self.overall_accuracy if self.correct.size else 0.0

    def site_accuracies(self, min_executions: int = 1) -> dict[int, float]:
        """Per-site prediction accuracy for sites executed >= ``min_executions``."""
        sites = np.nonzero(self.exec_counts >= min_executions)[0]
        return {
            int(site): float(self.correct_counts[site]) / float(self.exec_counts[site])
            for site in sites
        }

    def site_accuracy(self, site_id: int) -> float:
        if site_id < 0 or site_id >= self.exec_counts.size:
            raise KeyError(f"site {site_id} out of range")
        executed = int(self.exec_counts[site_id])
        if executed == 0:
            raise KeyError(f"site {site_id} never executed")
        return float(self.correct_counts[site_id]) / executed


def simulate(
    predictor: Predictor, trace: BranchTrace, reset: bool = True
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` from (by default) a cold start.

    Every stock predictor kind takes an exact vectorized fast path
    (:mod:`repro.predictors.vectorized`); subclasses, predictors without a
    kernel, and a kernel that refuses its input state use the Python-loop
    reference implementation.  The two are bit-identical — predictions,
    per-site counts, and the end-of-run predictor state — and the
    differential test harness enforces it.  A refusing kernel increments
    ``replay_fallbacks_total{kind}`` and logs a ``replay_fallback`` event.
    """
    from repro.predictors.vectorized import try_simulate_vectorized

    result = try_simulate_vectorized(predictor, trace, reset=reset)
    if result is None:
        result = simulate_reference(predictor, trace, reset=reset)
    return result


def simulate_reference(
    predictor: Predictor, trace: BranchTrace, reset: bool = True
) -> SimulationResult:
    """The branch-at-a-time reference replay (ground truth for fast paths)."""
    if reset:
        predictor.reset()
    sites = trace.sites.tolist()
    outcomes = trace.outcomes.tolist()
    correct = bytearray(len(sites))
    predict_and_update = predictor.predict_and_update
    for i, (site, taken) in enumerate(zip(sites, outcomes)):
        if predict_and_update(site, taken) == taken:
            correct[i] = 1
    correct_arr = np.frombuffer(bytes(correct), dtype=np.uint8)
    exec_counts = np.bincount(trace.sites, minlength=trace.num_sites).astype(np.int64)
    correct_counts = np.bincount(
        trace.sites, weights=correct_arr, minlength=trace.num_sites
    ).astype(np.int64)
    return SimulationResult(
        predictor_name=predictor.name,
        num_sites=trace.num_sites,
        correct=correct_arr,
        exec_counts=exec_counts,
        correct_counts=correct_counts,
    )
