"""Shared fixtures for the paper-figure and floor suite.

Each ``bench_*.py`` regenerates one of the paper's tables or figures, or
guards one throughput floor: it computes the rows, prints them, archives
them under ``benchmarks/_results/``, and asserts the paper's shape or the
floor.  Nothing here keeps a timing trajectory; cross-commit performance
is ``perfbench/run.py``'s job.

Expensive artifacts (traces, predictor simulations) are produced once by
the session-scoped runner and cached on disk.
``repro-2dprof --scale S warm --jobs N`` fills the same cache with worker
processes before a run.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — workload input scale (default 0.4).
* ``REPRO_2DPROF_CACHE`` — cache directory (default ~/.cache/repro-2dprof).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentRunner, SuiteConfig

RESULTS_DIR = Path(__file__).parent / "_results"


def scale_from_env() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner(SuiteConfig(scale=scale_from_env()))


@pytest.fixture(scope="session")
def archive():
    """Callable that prints a rendered table and archives it to a file."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _archive(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _archive
