"""Input-population sweeps: multi-input capture + cross-input verdict stability.

The paper profiles each workload on a single input set; this package
asks the next question — how stable are the 2D-profiling verdicts
across a *population* of inputs from the same distribution?  It grows a
seeded population from any named workload input
(:class:`PopulationSpec` / :func:`generate_population`), traces every
input on the compiled VM, compiled once for the whole population
(:func:`run_sweep`), and reduces
the per-lane reports to a stability verdict per branch site
(:func:`population_report`, :func:`population_report_from_store`).
"""

from repro.sweep.population import PopulationSpec, generate_population
from repro.sweep.report import (
    LaneStability,
    PopulationReport,
    SiteStability,
    population_report,
    population_report_from_store,
    population_runs,
)
from repro.sweep.runner import SweepLane, SweepResult, run_sweep

__all__ = [
    "PopulationSpec",
    "generate_population",
    "run_sweep",
    "SweepLane",
    "SweepResult",
    "PopulationReport",
    "SiteStability",
    "LaneStability",
    "population_report",
    "population_report_from_store",
    "population_runs",
]
