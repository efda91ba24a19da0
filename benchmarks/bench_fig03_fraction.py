"""Figure 3: dynamic and static fraction of input-dependent branches per
workload (train-vs-ref, 5% threshold, gshare).

Paper shape: compressors (bzip2, gzip) lead; mcf/perlbmk/eon have almost
none; several benchmarks exceed 10% static fraction.
"""

from conftest import once

from repro.analysis.tables import FIGURES, render_rows


def bench_fig03_dependent_fraction(benchmark, runner, archive):
    figure = FIGURES["3"]
    rows = once(benchmark, lambda: figure.rows(runner))
    archive("fig03_fraction", render_rows(rows, figure.title, figure.percent_keys))

    by_name = {r["workload"]: r for r in rows}
    # Shape check: the compressor-style workloads dominate the stable ones.
    compressors = max(by_name["bzipish"]["static"], by_name["gzipish"]["static"])
    stable = max(by_name["eonish"]["static"], by_name["mcfish"]["static"],
                 by_name["perlish"]["static"])
    assert compressors > stable
    # Paper: many benchmarks with >10% static input-dependent branches.
    assert sum(1 for r in rows if r["static"] > 0.10) >= 5
