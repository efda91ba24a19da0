"""Pin-style instrumentation tools.

Each tool exposes an ``on_branch(site_id, taken)`` bound method that is
handed to :meth:`repro.vm.machine.Machine.run` as the ``mode="callback"``
hook.  The tool set mirrors the paper's Figure 16 overhead conditions:

* :class:`NullTool` — callback with no work ("Pin-base");
* :class:`EdgeProfilerTool` — per-site execution / taken counters ("Edge");
* :class:`PredictorTool` — a software branch predictor in the loop,
  recording per-site correct-prediction counts ("Gshare");
* ``repro.core.profiler2d.OnlineProfilerTool`` — predictor + the full
  2D-profiling slice machinery ("2D+Gshare"; lives in :mod:`repro.core`).
"""

from __future__ import annotations


class NullTool:
    """A callback that does nothing; measures bare instrumentation cost."""

    def on_branch(self, site_id: int, taken: int) -> None:
        pass


class EdgeProfilerTool:
    """Classic edge profiling: per-site execution and taken counts.

    This is the aggregate profiler the paper contrasts 2D-profiling with —
    it yields each branch's *bias* but no time-varying information.
    """

    def __init__(self, num_sites: int):
        self.exec_counts = [0] * num_sites
        self.taken_counts = [0] * num_sites

    def on_branch(self, site_id: int, taken: int) -> None:
        self.exec_counts[site_id] += 1
        if taken:
            self.taken_counts[site_id] += 1


class PredictorTool:
    """Runs a software branch predictor over the branch stream.

    Collects per-site execution and correct-prediction counts — the data a
    conventional (non-2D) branch-accuracy profiler would gather.
    """

    def __init__(self, predictor, num_sites: int):
        self.predictor = predictor
        self.exec_counts = [0] * num_sites
        self.correct_counts = [0] * num_sites

    def on_branch(self, site_id: int, taken: int) -> None:
        predicted = self.predictor.predict_and_update(site_id, taken)
        self.exec_counts[site_id] += 1
        if predicted == taken:
            self.correct_counts[site_id] += 1

    @property
    def overall_accuracy(self) -> float:
        executed = sum(self.exec_counts)
        return sum(self.correct_counts) / executed if executed else 0.0
