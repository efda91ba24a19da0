"""Extension experiment: end-to-end value of 2D-profiling for predication.

The paper argues (Section 2.1) that if-conversion decisions made from one
input's profile can hurt on other inputs, and that input-dependent
branches near the cost crossover should become wish branches.  This bench
*measures* that claim with the trace-driven cost simulator: profile on
train, decide, replay on ref.

Only branches whose CFG region is a hammock or diamond are candidates
(legality via repro.bytecode.cfg), which caps the attainable gains — most
heavily-mispredicted branches guard loops.  Shape asserted: the 2D-aware
policy stays close to aggregate-only PGO on the unseen input (averaged
over workloads), and both at least match never-predicating.
"""

from repro.analysis.tables import render_rows
from repro.analysis.whatif import whatif_rows

WORKLOADS = ("bzipish", "gzipish", "gapish", "twolfish", "vortexish", "parserish")


def bench_whatif_predication(runner, archive):
    rows = whatif_rows(runner, WORKLOADS)
    archive("whatif_predication", render_rows(
        rows, "What-if: normalized cycles on ref (profile on train; 1.00 = all-branch)"))

    aggregate = sum(r["aggregate"] for r in rows) / len(rows)
    aware = sum(r["2d-aware"] for r in rows) / len(rows)
    oracle = sum(r["oracle"] for r in rows) / len(rows)
    # Predication-aware policies beat never-predicating on average...
    assert aggregate < 1.0 and aware < 1.0
    # ...the 2D-aware policy stays close to aggregate-only PGO.  (Finding,
    # recorded in EXPERIMENTS.md: with Figure 2's small-block costs the
    # modelled 1-cycle wish overhead offsets most of the robustness win, so
    # 2d-aware trades a few average cycles for bounded worst-case regret on
    # the branches it hedges.)
    assert aware <= aggregate + 0.06, f"2d-aware {aware:.3f} vs aggregate {aggregate:.3f}"
    # ...and nobody beats the oracle by more than noise.
    assert oracle <= min(aggregate, aware) + 0.02
