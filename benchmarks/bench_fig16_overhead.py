"""Figure 16: run-time overhead of the instrumentation modes —
Binary, Pin-base (null tool), Edge, Gshare, 2D+Gshare.

Unlike the analysis benches, this one times actual instrumented execution,
through :func:`repro.analysis.overhead.measure_overheads` (the timer the
``overhead`` CLI uses): each (workload, mode) cell is the fastest of two
runs.  The paper's shape: overhead grows monotonically with tool weight,
and 2D+Gshare costs only slightly more than plain Gshare modelling (the 2D
machinery adds a counter update per branch plus per-slice work).
"""

from repro.analysis.overhead import measure_overheads

from conftest import scale_from_env

# Branch-intensive workloads, like the paper's Figure 16 selection.
WORKLOADS = ("gzipish", "gapish", "vortexish")


def bench_fig16_overhead(archive):
    lines = ["Figure 16: normalized execution time by instrumentation mode"]
    ordering_violations = 0
    for workload in WORKLOADS:
        rows = measure_overheads(workload, scale=min(0.2, scale_from_env()), repeats=2)
        normalized = {row.mode: row.normalized for row in rows}
        lines.append(
            f"  {workload:10s} " + "  ".join(f"{m}=x{v:.2f}" for m, v in normalized.items())
        )
        # The paper's ordering: heavier tools cost more.  Allow slack for
        # timing noise; count gross violations only.
        if normalized["2d+gshare"] + 0.3 < normalized["edge"]:
            ordering_violations += 1
    archive("fig16_overhead", "\n".join(lines))
    assert ordering_violations == 0
