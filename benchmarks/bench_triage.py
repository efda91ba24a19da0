"""Regression triage: the full report and evaluation-count scaling.

Not a paper exhibit: a guard for the triage engine.  The
delta-debugging search should evaluate O(k log n) hybrid subsets for k
regressed sites among n candidates (each culprit costs one binary
search), so tripling the site count must not triple the evaluation
count.  Runs entirely on the seeded synthetic pair: no traces, no
simulation, no disk cache.
"""

import tempfile
from pathlib import Path

from repro.store import ProfileWarehouse
from repro.triage import BisectionEngine, seeded_run_pair, triage_runs

_STORE_TMP = tempfile.TemporaryDirectory(prefix="bench-triage-")

_REGRESSED = (3, 17, 31, 45)


def _pair(num_sites: int, tag: str):
    warehouse = ProfileWarehouse(Path(_STORE_TMP.name) / f"wh-{tag}")
    if not warehouse.runs():
        seeded_run_pair(warehouse, num_sites=num_sites, n_slices=64,
                        regressed=_REGRESSED, seed=9)
    runs = warehouse.runs()
    return (warehouse, warehouse.open_run(runs[0].run_id),
            warehouse.open_run(runs[1].run_id))


def bench_triage_report(archive):
    """Full triage pass: bisection + threshold flips + suspiciousness."""
    warehouse, good, bad = _pair(64, "report")

    report = triage_runs(warehouse, good, bad, thresholds_search=True)

    assert report.bisect["minimal_set"] == sorted(_REGRESSED)
    assert report.bisect["verified"]
    lines = ["Triage report (64 sites, 4 regressed, thresholds search)",
             f"mode={report.bisect['mode']} "
             f"evals={report.bisect['evals']} "
             f"minimal={report.bisect['minimal_set']}"]
    archive("triage_report", "\n".join(lines))


def bench_triage_bisect_scaling(archive):
    """Evaluations vs site count: the search must stay logarithmic in n."""
    sizes = (48, 96, 192)

    def sweep():
        rows = []
        for num_sites in sizes:
            _wh, good, bad = _pair(num_sites, str(num_sites))
            engine = BisectionEngine(good, bad)
            minimal = engine.minimal_flipping_set()
            assert minimal == sorted(_REGRESSED)
            rows.append((num_sites, engine.evals, len(engine.candidates())))
        return rows

    rows = sweep()
    lines = ["Bisection scaling (4 regressed sites, evals vs candidates)",
             "sites  candidates  evals"]
    for num_sites, evals, candidates in rows:
        lines.append(f"{num_sites:<6d} {candidates:<11d} {evals}")
    archive("triage_bisect_scaling", "\n".join(lines))
    # 4x the candidates must cost well under 4x the evaluations.
    assert rows[-1][1] < 4 * rows[0][1]