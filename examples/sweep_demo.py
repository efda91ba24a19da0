"""Input-population sweep: one program, N inputs, verdict stability.

2D-profiling's pitch is detecting input-dependent branches from a
*single* input set; the obvious follow-up question is how stable those
verdicts are when the input actually varies.  This demo answers it with
the sweep engine:

1. a seeded population — N input sets drawn from the same generator
   distribution as the workload's named ``ref`` input,
2. one sweep pass — every lane traced on the compiled VM
   (compiled once for the whole population, bit-identical to the
   interpreter), then profiled and ingested into a warehouse under the
   population's tag,
3. the stability report — per-site verdict agreement across lanes
   (stable-dependent / stable-independent / flaky), the cross-input
   companion to the paper's Table 3 train-vs-ref comparison,
4. population-seeded triage — the most- and least-conforming lanes
   become the good/bad pair for warehouse bisection, turning "the
   verdict flips somewhere in input space" into a ranked site list.

Run:  python examples/sweep_demo.py
"""

import tempfile
from pathlib import Path

from repro.store import ProfileWarehouse
from repro.sweep import (
    PopulationSpec,
    population_report,
    population_report_from_store,
    run_sweep,
)
from repro.triage import triage_runs

SPEC = PopulationSpec(workload="gapish", base_input="ref",
                      size=8, seed=42, scale=0.05)


def main():
    tmp = tempfile.TemporaryDirectory(prefix="sweep-demo-")
    warehouse = ProfileWarehouse(Path(tmp.name) / "warehouse")

    # 1 + 2. Generate the population and sweep it.  The program is
    # compiled to Python once; every lane then runs the compiled code.
    print(f"sweeping {SPEC.tag} ...")
    result = run_sweep(SPEC, warehouse=warehouse)
    print(f"  {len(result.lanes)} lanes, {result.total_events} branch events "
          f"in {result.elapsed_seconds:.2f}s\n")

    # 3. The stability report: which verdicts survive input variation?
    report = population_report(result)
    print(report.render(top=5))

    # The same report reconstructs from the warehouse alone — no replay,
    # just the stats ingested under the population tag.
    stored = population_report_from_store(warehouse, SPEC.tag)
    assert stored.site_ids("flaky") == report.site_ids("flaky")

    # 4. Seed triage from the population extremes: the lane closest to
    # the consensus is "good", the one that strays furthest is "bad".
    conforming, deviant = report.extremes()
    print(f"\nbisecting input space: good={conforming.input_name} "
          f"({conforming.flips} flips) vs bad={deviant.input_name} "
          f"({deviant.flips} flips)")
    triage = triage_runs(warehouse, conforming.run_id, deviant.run_id)
    ranked = [row["site"] for row in triage.suspicion]
    print(f"suspiciousness ranking (top 5): {ranked[:5]}")
    flagged = triage.bisect["minimal_set"]
    print(f"minimal flipping set: {flagged}")
    assert set(flagged) <= set(report.sites), "culprits must be real sites"

    tmp.cleanup()
    print("\nsweep demo OK")


if __name__ == "__main__":
    main()
