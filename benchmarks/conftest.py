"""Shared infrastructure for the benchmark suite.

Each ``bench_*.py`` regenerates one of the paper's tables or figures: it
computes the same rows/series the paper reports, prints them, archives them
under ``benchmarks/_results/``, and times the computation with
pytest-benchmark.

Expensive artifacts (traces, predictor simulations) are produced once by
the session-scoped runner and cached on disk, so the *timed* portion of
most benches is the experiment analysis itself; the Figure 16 bench times
raw instrumented execution by design.

Besides the human-readable ``_results/*.txt`` archives, every session
writes ``_results/BENCH_summary.json`` — machine-readable per-bench wall
time plus disk-cache hit/miss/corrupt deltas (pulled from the unified
metrics registry, :mod:`repro.obs.metrics`) — so the perf trajectory has
comparable data points across commits.  The summary is also copied to a
repo-root ``BENCH_<pr>.json`` (PR number from ``REPRO_BENCH_PR``, else
the highest ``PR N:`` entry in ``CHANGES.md``), building a per-PR
trajectory of checked-in perf snapshots.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — workload input scale (default 0.4).
* ``REPRO_BENCH_JOBS`` — worker processes for the one-time cache warm-up
  (0 = all cores; default 1 = no warm-up pass, artifacts build lazily).
* ``REPRO_2DPROF_CACHE`` — cache directory (default ~/.cache/repro-2dprof).
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.obs.metrics import get_registry

RESULTS_DIR = Path(__file__).parent / "_results"

REPO_ROOT = Path(__file__).resolve().parents[1]

_BENCH_RECORDS: list[dict] = []

_BENCH_EXTRAS: dict[str, dict] = {}


@pytest.fixture()
def bench_extras(request):
    """Mutable dict merged into this bench's BENCH_summary.json record.

    Benches drop machine-readable payloads here (per-kind speedups,
    throughput numbers) so the per-PR snapshots carry more than wall
    time.
    """
    data: dict = {}
    _BENCH_EXTRAS[request.node.name] = data
    return data


def _cache_counts() -> dict[str, int]:
    registry = get_registry()
    return {
        outcome: registry.counter(f"cache_{outcome}_total").total()
        for outcome in ("hits", "misses", "corrupt")
    }


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Record wall time + cache-counter deltas around each bench body."""
    before = _cache_counts()
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    after = _cache_counts()
    record = {
        "bench": item.name,
        "file": item.location[0],
        "wall_seconds": round(elapsed, 6),
        "cache": {k: after[k] - before[k] for k in after},
    }
    extras = _BENCH_EXTRAS.pop(item.name, None)
    if extras:
        record["extras"] = extras
    _BENCH_RECORDS.append(record)


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RECORDS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    summary = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": scale_from_env(),
        "jobs": jobs_from_env(),
        "exit_status": int(exitstatus),
        "total_wall_seconds": round(
            sum(r["wall_seconds"] for r in _BENCH_RECORDS), 6),
        "benches": _BENCH_RECORDS,
    }
    text = json.dumps(summary, indent=2) + "\n"
    (RESULTS_DIR / "BENCH_summary.json").write_text(text)
    # Publish the trajectory data point: one snapshot per PR at repo root.
    (REPO_ROOT / f"BENCH_{pr_number()}.json").write_text(text)


def pr_number() -> int:
    """Current PR number: REPRO_BENCH_PR, else the latest entry in CHANGES.md."""
    env = os.environ.get("REPRO_BENCH_PR")
    if env:
        return int(env)
    try:
        changes = (REPO_ROOT / "CHANGES.md").read_text()
    except OSError:
        return 0
    entries = [int(m) for m in re.findall(r"^PR (\d+):", changes, re.MULTILINE)]
    return max(entries, default=0)


def scale_from_env() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def jobs_from_env() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session runner; with REPRO_BENCH_JOBS != 1, warms the whole artifact
    grid in one parallel pass so the timed benches measure analysis, not
    trace generation."""
    jobs = jobs_from_env()
    runner = ExperimentRunner(SuiteConfig(scale=scale_from_env(), jobs=jobs))
    if jobs != 1:
        from repro.analysis.tables import FIGURES

        stats = runner.prefetch([sim for figure in FIGURES.values() for sim in figure.needs()])
        print(
            f"\n[warm-up] {stats.artifacts} artifacts "
            f"({stats.traces} traces, {stats.sims} simulations, {stats.jobs} jobs)"
        )
    return runner


@pytest.fixture(scope="session")
def archive():
    """Callable that prints a rendered table and archives it to a file."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _archive(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _archive


def once(benchmark, fn):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
