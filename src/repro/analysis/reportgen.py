"""One-command experiment report.

``generate_report(runner)`` runs the whole evaluation (reusing cached
artifacts) and renders a single markdown document with every table and
figure of :data:`repro.analysis.tables.FIGURES`, plus Figure 8 and the
what-if extension — the programmatic equivalent of re-running the
benchmark suite, for users who want a document rather than pytest output.

CLI: ``repro-2dprof report [--out FILE]``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.experiment import ExperimentRunner
from repro.core.groundtruth import DEFAULT_THRESHOLD
from repro.analysis import tables
from repro.analysis.timeseries import figure8_series, render_ascii_series
from repro.analysis.whatif import whatif_rows


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    runner: ExperimentRunner,
    include_whatif: bool = True,
    whatif_workloads=("gzipish", "gapish", "vortexish"),
) -> str:
    """Build the full markdown report (may take minutes on a cold cache)."""
    parts: list[str] = [
        "# 2D-Profiling experiment report",
        "",
        f"Workload scale: {runner.config.scale}; ground-truth threshold: "
        f"{DEFAULT_THRESHOLD:.0%} accuracy delta; profiler: 4 KB gshare.",
        "",
    ]

    for key, figure in tables.FIGURES.items():
        parts.append(_section(figure.title, tables.render_figure(key, runner)))
        if key == "t2":  # Figure 8 is printed by `series`, not `fig`
            varying, flat, _overall = figure8_series(runner, "gapish")
            parts.append(_section(
                "Figure 8 — per-slice accuracy over time (gapish)",
                render_ascii_series(varying) + "\n\n" + render_ascii_series(flat)))

    if include_whatif:
        parts.append(_section(
            "Extension — what-if predication policies (cycles on ref, 1.00 = all-branch)",
            tables.render_rows(whatif_rows(runner, list(whatif_workloads)), "")))

    return "\n".join(parts)


def write_report(runner: ExperimentRunner, path: str | Path, **kwargs) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(runner, **kwargs))
    return path
