"""Trace-driven execution-cost simulation for predication policies.

The paper motivates 2D-profiling with an analytic cost model (Figure 2,
equations (1)-(3)) and the observation that a *wrong* compile-time
if-conversion decision hurts on other inputs — citing [10] (wish branches)
as the remedy for input-dependent branches.  This module closes that loop
experimentally: it replays a branch trace under a per-site policy
(branch / predicated / wish-branch) and charges cycles per dynamic branch:

* **branch** — ``exec_T`` or ``exec_N`` per the outcome, plus the
  misprediction penalty whenever the modelled predictor was wrong;
* **predicated** — ``exec_pred`` always (no flushes, both paths fetched);
* **wish branch** — hardware chooses per execution: a small per-site
  confidence counter tracks recent mispredictions; in low-confidence
  windows the branch executes in predicated mode (plus a one-cycle wish
  overhead), otherwise in branch mode.  This is a deliberately simple
  stand-in for the wish-branch microarchitecture of [Kim et al. 2005].

The what-if experiment (:mod:`repro.analysis.whatif`) uses this to compare
compile-time policies informed by 2D-profiling against aggregate-only
profiling on an *unseen* input's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.predication import AdvisorDecision, PredicationCosts
from repro.predictors.simulate import SimulationResult
from repro.trace.trace import BranchTrace


@dataclass
class SiteCost:
    """Cycle accounting for one static branch under one policy."""

    site_id: int
    decision: AdvisorDecision
    executions: int = 0
    cycles: float = 0.0
    flushes: int = 0          # Mispredictions that actually cost a flush.
    predicated_runs: int = 0  # Executions spent in predicated mode.


@dataclass
class CostReport:
    """Total and per-site cycle accounting of one policy replay."""

    policy: str
    total_cycles: float
    total_branches: int
    per_site: dict[int, SiteCost] = field(default_factory=dict)


class WishBranchState:
    """Per-site confidence state for the wish-branch hardware model.

    ``confidence`` saturates in [0, max_confidence]; a misprediction in
    branch mode drops it sharply, a correct prediction raises it by one.
    Below ``threshold`` the hardware uses predicated execution.
    """

    __slots__ = ("confidence", "threshold", "max_confidence")

    def __init__(self, threshold: int = 4, max_confidence: int = 7):
        self.confidence = max_confidence
        self.threshold = threshold
        self.max_confidence = max_confidence

    def use_predicated(self) -> bool:
        return self.confidence < self.threshold

    def update(self, correct: int) -> None:
        if correct:
            if self.confidence < self.max_confidence:
                self.confidence += 1
        else:
            self.confidence = max(0, self.confidence - 3)


def evaluate_policy(
    trace: BranchTrace,
    simulation: SimulationResult,
    decisions: dict[int, AdvisorDecision],
    costs: PredicationCosts | None = None,
    policy_name: str = "policy",
    wish_overhead: float = 1.0,
) -> CostReport:
    """Replay ``trace`` charging cycles per dynamic branch under ``decisions``.

    Sites absent from ``decisions`` default to KEEP_BRANCH.  ``simulation``
    must be the target predictor's replay of the same trace (its ``correct``
    stream provides the misprediction events).
    """
    costs = costs or PredicationCosts()
    if simulation.num_branches != len(trace):
        raise ValueError("simulation does not match the trace")

    exec_taken = costs.exec_taken
    exec_not_taken = costs.exec_not_taken
    exec_pred = costs.exec_predicated
    penalty = costs.misp_penalty

    per_site: dict[int, SiteCost] = {}
    wish_state: dict[int, WishBranchState] = {}
    total = 0.0

    sites = trace.sites.tolist()
    outcomes = trace.outcomes.tolist()
    correct = simulation.correct.tolist()

    for site, taken, ok in zip(sites, outcomes, correct):
        record = per_site.get(site)
        if record is None:
            record = SiteCost(site_id=site,
                              decision=decisions.get(site, AdvisorDecision.KEEP_BRANCH))
            per_site[site] = record
        record.executions += 1
        decision = record.decision

        if decision is AdvisorDecision.PREDICATE:
            cycles = exec_pred
            record.predicated_runs += 1
        elif decision is AdvisorDecision.WISH_BRANCH:
            state = wish_state.get(site)
            if state is None:
                state = WishBranchState()
                wish_state[site] = state
            if state.use_predicated():
                cycles = exec_pred + wish_overhead
                record.predicated_runs += 1
            else:
                cycles = (exec_taken if taken else exec_not_taken) + wish_overhead
                if not ok:
                    cycles += penalty
                    record.flushes += 1
            state.update(ok)
        else:  # KEEP_BRANCH
            cycles = exec_taken if taken else exec_not_taken
            if not ok:
                cycles += penalty
                record.flushes += 1

        record.cycles += cycles
        total += cycles

    return CostReport(
        policy=policy_name,
        total_cycles=total,
        total_branches=len(sites),
        per_site=per_site,
    )
