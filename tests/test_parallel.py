"""Tests for the parallel experiment engine (:mod:`repro.core.parallel`).

The load-bearing property is *determinism*: warming the cache with worker
processes and then computing figures from it must produce byte-identical
rows and identical verdict sets to a fully serial run, because workers
only populate the cache and never influence the analysis itself.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import tables
from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.core.parallel import ParallelRunner, WarmStats, resolve_jobs
from repro.errors import ExperimentError

SCALE = 0.05
WORKLOADS = ("gzipish", "mcfish")
GRID = [(wl, inp, "gshare") for wl in WORKLOADS for inp in ("train", "ref")]


def _runner(cache_dir, jobs: int = 1) -> ExperimentRunner:
    return ExperimentRunner(SuiteConfig(scale=SCALE, cache_dir=cache_dir, jobs=jobs))


def _figure_rows(runner: ExperimentRunner) -> str:
    """Rendered COV/ACC rows — the text a figure would print."""
    rows = [
        {"workload": wl, **runner.evaluate(wl, "gshare").as_row()}
        for wl in WORKLOADS
    ]
    return tables.render_rows(rows, "determinism check")


def _verdicts(runner: ExperimentRunner) -> dict[str, tuple[int, ...]]:
    return {
        wl: tuple(sorted(runner.profile_2d(wl, "gshare").input_dependent_sites()))
        for wl in WORKLOADS
    }


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    cores = os.cpu_count() or 1
    assert resolve_jobs(None) == cores
    assert resolve_jobs(0) == cores
    assert resolve_jobs(-2) == cores


def test_warm_stats_counts():
    stats = WarmStats(jobs=4, traces=3, sims=7)
    assert stats.artifacts == 10


def test_serial_warm_populates_cache(tmp_path):
    runner = _runner(tmp_path)
    stats = runner.prefetch([("mcfish", "train", "gshare")])
    assert stats == WarmStats(jobs=1, traces=1, sims=1)
    assert runner._trace_path("mcfish", "train").exists()
    assert runner._sim_path("mcfish", "train", "gshare").exists()


def test_warm_dedupes_specs(tmp_path):
    runner = _runner(tmp_path)
    stats = ParallelRunner(runner, jobs=1).warm(
        sims=[("mcfish", "train", "gshare")] * 3,
        traces=[("mcfish", "train"), ("mcfish", "train")],
    )
    # The sim's trace is implied; duplicates collapse.
    assert stats.traces == 1 and stats.sims == 1


def test_warm_propagates_worker_errors(tmp_path):
    runner = _runner(tmp_path, jobs=2)
    with pytest.raises(ExperimentError, match="no-such-workload"):
        runner.prefetch([("no-such-workload", "train", "gshare")])


@pytest.mark.slow
def test_parallel_warm_is_deterministic(tmp_path):
    """--jobs 4 then serial analysis == fully serial run, byte for byte."""
    serial = _runner(tmp_path / "serial")
    serial_rows = _figure_rows(serial)
    serial_verdicts = _verdicts(serial)

    parallel = _runner(tmp_path / "parallel", jobs=4)
    stats = parallel.prefetch(GRID)
    assert stats == WarmStats(jobs=4, traces=4, sims=4)
    for spec in GRID:
        assert parallel._sim_path(*spec).exists()

    # A fresh runner that only *reads* the parallel-warmed cache.
    reader = _runner(tmp_path / "parallel")
    assert _figure_rows(reader) == serial_rows
    assert _verdicts(reader) == serial_verdicts


@pytest.mark.slow
def test_parallel_warm_reuses_cached_traces(tmp_path):
    """A second warm pass finds everything cached and stays consistent."""
    runner = _runner(tmp_path, jobs=2)
    runner.prefetch(GRID)
    before = {spec: runner._sim_path(*spec).stat().st_mtime_ns for spec in GRID}

    again = _runner(tmp_path, jobs=2)
    again.prefetch(GRID)
    after = {spec: again._sim_path(*spec).stat().st_mtime_ns for spec in GRID}
    assert before == after, "warming an already-warm cache must not rewrite artifacts"
