"""Per-slice accuracy time series — the data behind the paper's Figure 8.

The paper plots, for the gap benchmark, one input-dependent branch whose
per-slice prediction accuracy swings wildly against one input-independent
branch whose accuracy is low (~58%) but dead flat, both against the overall
program accuracy.  :func:`figure8_series` picks analogous exemplar branches
from any workload automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.profiler2d import ProfilerConfig, TwoDReport
from repro.core.experiment import ExperimentRunner


@dataclass
class SeriesPoint:
    slice_index: int
    accuracy: float


@dataclass
class BranchSeries:
    """One branch's per-slice accuracy curve plus context."""

    site_id: int
    label: str
    mean: float
    std: float
    points: list[SeriesPoint]

    @property
    def accuracies(self) -> list[float]:
        return [p.accuracy for p in self.points]


def site_series(report: TwoDReport, site_id: int, label: str = "") -> BranchSeries:
    """Extract one branch's raw per-slice accuracy curve from a report."""
    indices, accuracies = report.site_series(site_id)
    stats = report.stats[site_id]
    return BranchSeries(
        site_id=site_id,
        label=label or f"site {site_id}",
        mean=stats.mean,
        std=stats.std,
        points=[SeriesPoint(int(i), float(a)) for i, a in zip(indices, accuracies)],
    )


def pick_exemplars(report: TwoDReport, min_slices: int = 10) -> tuple[int, int]:
    """(varying_site, flat_site): the Figure 8 pair for a profiling run.

    The varying exemplar maximises per-slice accuracy stddev; the flat one
    minimises stddev among branches with *below-overall* mean accuracy
    (the paper's right-hand branch is low-accuracy but stable).
    """
    varying, flat = -1, -1
    best_std, best_flatness = -1.0, None
    for site in range(report.num_sites):
        stats = report.stats[site]
        if stats.N < min_slices:
            continue
        if stats.std > best_std:
            best_std = stats.std
            varying = site
        if stats.mean < report.overall_accuracy:
            flatness = stats.std
            if best_flatness is None or flatness < best_flatness:
                best_flatness = flatness
                flat = site
    if varying < 0 or flat < 0:
        raise ValueError("no branch with enough qualifying slices")
    return varying, flat


def figure8_series(
    runner: ExperimentRunner,
    workload: str = "gapish",
    predictor: str = "gshare",
    slices: int = 50,
) -> tuple[BranchSeries, BranchSeries, list[float]]:
    """(input-dependent-looking, input-independent-looking, overall) curves."""
    trace = runner.trace(workload, "train")
    config = ProfilerConfig(slice_size=max(500, len(trace) // slices), keep_series=True)
    report = runner.profile_2d(workload, predictor, config=config)
    varying, flat = pick_exemplars(report)
    overall = report.slice_overall.tolist() if report.slice_overall is not None else []
    return (
        site_series(report, varying, label=f"{workload} varying"),
        site_series(report, flat, label=f"{workload} flat"),
        overall,
    )


def render_ascii_series(series: BranchSeries, width: int = 64, height: int = 12) -> str:
    """Tiny ASCII plot of a branch's accuracy curve (for CLI and examples)."""
    if not series.points:
        return f"{series.label}: (no qualifying slices)"
    accuracies = np.array(series.accuracies)
    n = len(accuracies)
    columns = np.linspace(0, n - 1, min(width, n)).astype(int)
    sampled = accuracies[columns]
    rows = []
    for level in range(height, -1, -1):
        threshold = level / height
        line = "".join("#" if a >= threshold else " " for a in sampled)
        rows.append(f"{threshold:4.2f} |{line}")
    rows.append("      " + "-" * len(sampled))
    header = (
        f"{series.label} (site {series.site_id}): mean={series.mean:.3f} "
        f"std={series.std:.3f}, {n} slices"
    )
    return header + "\n" + "\n".join(rows)
