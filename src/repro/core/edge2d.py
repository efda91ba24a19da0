"""2D *edge* profiling: input-dependent branch **bias** detection.

Section 3.1 of the paper notes the 2D idea "can also be applied to other
profiling mechanisms such as edge profiling."  This module is that
instantiation: the per-slice statistic is the branch's taken rate instead
of its prediction accuracy, and a branch is flagged bias-input-dependent
when its per-slice bias varies over time (STD-test) with a stable phase
structure (PAM-test).

The MEAN-test has no analogue for bias — a low mean accuracy suggests
input-dependence, but no particular mean *bias* does — so the edge variant
classifies with ``STD-test AND PAM-test`` only.  This design decision is
recorded in DESIGN.md/EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.profiler2d import ProfilerConfig, TwoDReport, profile_trace
from repro.core.stats import TestThresholds
from repro.predictors.simulate import SimulationResult
from repro.trace.trace import BranchTrace


class Edge2DReport:
    """Bias-flavoured view over the shared slice machinery's report."""

    def __init__(self, report: TwoDReport):
        self._report = report

    @property
    def num_sites(self) -> int:
        return self._report.num_sites

    def profiled_sites(self) -> set[int]:
        return self._report.profiled_sites()

    def input_dependent_sites(self) -> set[int]:
        """Sites whose *bias* is predicted to be input-dependent."""
        return self._report.input_dependent_sites()

    def site_series(self, site_id: int):
        """(slice_indices, per-slice taken rates) for one branch."""
        return self._report.site_series(site_id)


class Edge2DProfiler:
    """Offline 2D edge profiler over captured traces."""

    def __init__(self, std_th: float = 0.04, pam_th: float = 0.05, config: ProfilerConfig | None = None):
        base = config or ProfilerConfig()
        # mean_th = -1 disables the MEAN-test (a mean in [0,1] is never < -1),
        # reducing the classifier to (STD-test AND PAM-test).
        thresholds = TestThresholds(mean_th=-1.0, std_th=std_th, pam_th=pam_th)
        self.config = dataclasses.replace(base, thresholds=thresholds)

    def profile(self, trace: BranchTrace) -> Edge2DReport:
        """Compute per-slice biases and classify every branch."""
        outcomes = trace.outcomes
        exec_counts = np.bincount(trace.sites, minlength=trace.num_sites).astype(np.int64)
        taken_counts = np.bincount(
            trace.sites, weights=outcomes, minlength=trace.num_sites
        ).astype(np.int64)
        # The shared accumulator treats "correct" as the per-branch event;
        # feeding the outcome bit makes the per-slice statistic the bias.
        pseudo = SimulationResult(
            predictor_name="edge",
            num_sites=trace.num_sites,
            correct=outcomes,
            exec_counts=exec_counts,
            correct_counts=taken_counts,
        )
        report = profile_trace(trace, simulation=pseudo, config=self.config)
        return Edge2DReport(report)
