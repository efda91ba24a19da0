"""Figure 10: coverage and accuracy of 2D-profiling for input-dependent
and input-independent branches, ground truth defined with two input sets
(train and ref).

Paper shape: COV/ACC-indep are high (>80% for most benchmarks); ACC-dep is
moderate with only two input sets (28-54% for the high-dependence
benchmarks) and unreliable where the dependent set is tiny (footnote 6).
"""

import math

from conftest import once

from repro.analysis.tables import FIGURES, render_rows
from repro.core.experiment import ExperimentRunner


def bench_fig10_cov_acc_two_inputs(benchmark, runner: ExperimentRunner, archive):
    figure = FIGURES["10"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("fig10_cov_acc", render_rows(rows, figure.title, figure.percent_keys))

    indep_accs = [r["ACC-indep"] for r in rows if not math.isnan(r["ACC-indep"])]
    indep_covs = [r["COV-indep"] for r in rows if not math.isnan(r["COV-indep"])]
    assert sum(indep_accs) / len(indep_accs) > 0.6, "ACC-indep collapsed"
    assert sum(indep_covs) / len(indep_covs) > 0.5, "COV-indep collapsed"

    dep_covs = [r["COV-dep"] for r in rows if not math.isnan(r["COV-dep"])]
    assert sum(dep_covs) / len(dep_covs) > 0.4, "COV-dep collapsed"
