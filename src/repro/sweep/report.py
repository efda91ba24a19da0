"""Population stability reports: verdict agreement across an input population.

The paper's Table 3 compares 2D-profiling verdicts between a train and a
ref input; the sweep engine generalises that to N inputs from one
distribution.  :class:`PopulationReport` summarises, per branch site, how
often the (MEAN or STD) and PAM verdict of Figure 9c holds across the
population — splitting sites into *stable-dependent*, *stable-independent*
and *flaky* (the verdict flips between lanes) — and, per lane, how far the
lane strays from the population consensus.  The lane ranking is what
``db bisect --population`` uses to pick the extremes of a population for
input-space triage.

Reports can be built two ways, with identical results:

* :func:`population_report` — from a live :class:`~repro.sweep.runner.SweepResult`;
* :func:`population_report_from_store` — from warehouse runs ingested
  under the population's source tag (no replay: each run is refolded
  into a :class:`~repro.core.profiler2d.TwoDReport`).

Both read each lane's verdicts from its report through one helper.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExperimentError
from repro.obs import get_tracer
from repro.sweep.population import PopulationSpec


@dataclass(frozen=True)
class SiteStability:
    """One branch site's verdict behaviour across the population."""

    site_id: int
    lanes: int          # lanes in which the site was profiled (N > 0)
    dependent: int      # lanes whose verdict was input-dependent
    mean_acc: float     # population mean of the per-lane mean accuracies
    acc_spread: float   # population std of the per-lane mean accuracies
    mean_std: float     # population mean of the per-lane accuracy stds

    @property
    def dep_fraction(self) -> float:
        return self.dependent / self.lanes if self.lanes else 0.0

    @property
    def verdict(self) -> str:
        """``"dep"`` / ``"indep"`` when unanimous, else ``"flaky"``."""
        if self.dependent == self.lanes:
            return "dep"
        if self.dependent == 0:
            return "indep"
        return "flaky"


@dataclass(frozen=True)
class LaneStability:
    """One population member's distance from the population consensus."""

    lane: int
    input_name: str
    run_id: str | None
    profiled: int       # sites profiled in this lane
    dependent: int      # sites this lane called input-dependent
    flips: int          # sites where this lane disagrees with the majority

    @property
    def flip_fraction(self) -> float:
        return self.flips / self.profiled if self.profiled else 0.0


@dataclass
class PopulationReport:
    """Cross-input verdict stability for one population."""

    tag: str
    workload: str
    predictor: str
    sites: dict[int, SiteStability] = field(default_factory=dict)
    lanes: list[LaneStability] = field(default_factory=list)

    @property
    def spec(self) -> PopulationSpec:
        return PopulationSpec.from_tag(self.tag)

    def site_ids(self, verdict: str) -> list[int]:
        """Sites carrying the given verdict (``dep`` / ``indep`` / ``flaky``)."""
        return sorted(s for s, st in self.sites.items() if st.verdict == verdict)

    @property
    def stable_dependent(self) -> list[int]:
        return self.site_ids("dep")

    @property
    def stable_independent(self) -> list[int]:
        return self.site_ids("indep")

    @property
    def flaky(self) -> list[int]:
        return self.site_ids("flaky")

    def ranked_lanes(self) -> list[LaneStability]:
        """Lanes from most to least consensus-breaking (triage order)."""
        return sorted(
            self.lanes, key=lambda ln: (-ln.flip_fraction, -ln.flips, ln.lane)
        )

    def extremes(self) -> tuple[LaneStability, LaneStability]:
        """(most conforming, most deviant) lane — the bisection seed pair."""
        if len(self.lanes) < 2:
            raise ExperimentError(
                "need at least 2 lanes to pick population extremes"
            )
        ranked = self.ranked_lanes()
        return ranked[-1], ranked[0]

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "workload": self.workload,
            "predictor": self.predictor,
            "num_lanes": len(self.lanes),
            "num_sites": len(self.sites),
            "stable_dependent": self.stable_dependent,
            "stable_independent": self.stable_independent,
            "flaky": self.flaky,
            "sites": [
                {
                    "site": st.site_id,
                    "verdict": st.verdict,
                    "lanes": st.lanes,
                    "dependent": st.dependent,
                    "dep_fraction": round(st.dep_fraction, 6),
                    "mean_acc": round(st.mean_acc, 6),
                    "acc_spread": round(st.acc_spread, 6),
                    "mean_std": round(st.mean_std, 6),
                }
                for _, st in sorted(self.sites.items())
            ],
            "lanes": [
                {
                    "lane": ln.lane,
                    "input": ln.input_name,
                    "run": ln.run_id,
                    "profiled": ln.profiled,
                    "dependent": ln.dependent,
                    "flips": ln.flips,
                    "flip_fraction": round(ln.flip_fraction, 6),
                }
                for ln in self.lanes
            ],
        }

    def write(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def render(self, top: int = 10) -> str:
        lines = [
            f"population {self.tag}  predictor={self.predictor}",
            f"  lanes: {len(self.lanes)}  profiled sites: {len(self.sites)}",
            f"  stable dependent:   {len(self.stable_dependent):4d}",
            f"  stable independent: {len(self.stable_independent):4d}",
            f"  flaky:              {len(self.flaky):4d}",
        ]
        flaky = sorted(
            (self.sites[s] for s in self.flaky),
            key=lambda st: min(st.dep_fraction, 1.0 - st.dep_fraction),
            reverse=True,
        )
        if flaky:
            lines.append(f"  most contested sites (top {min(top, len(flaky))}):")
            lines.append(
                "    site   dep/lanes   mean-acc   spread"
            )
            for st in flaky[:top]:
                lines.append(
                    f"    {st.site_id:4d}   {st.dependent:4d}/{st.lanes:<4d}"
                    f"   {st.mean_acc:8.4f}   {st.acc_spread:.4f}"
                )
        ranked = self.ranked_lanes()
        lines.append(f"  lanes by consensus flips (top {min(top, len(ranked))}):")
        lines.append("    lane   input          flips  flip%    run")
        for ln in ranked[:top]:
            lines.append(
                f"    {ln.lane:4d}   {ln.input_name:<12s}  {ln.flips:5d}"
                f"  {100.0 * ln.flip_fraction:5.1f}%   {ln.run_id or '-'}"
            )
        return "\n".join(lines)


def _build_report(
    tag: str, workload: str, predictor: str, lane_rows: list[tuple]
) -> PopulationReport:
    """Assemble a report from per-lane verdict maps.

    ``lane_rows`` is a list of
    ``(lane, input_name, run_id, {site: (dep, mean, std)})``.
    """
    per_site: dict[int, list[tuple[bool, float, float]]] = {}
    for _, _, _, verdicts in lane_rows:
        for site, row in verdicts.items():
            per_site.setdefault(site, []).append(row)

    sites: dict[int, SiteStability] = {}
    consensus: dict[int, bool] = {}
    for site, rows in per_site.items():
        lanes = len(rows)
        dependent = sum(1 for dep, _, _ in rows if dep)
        means = [mean for _, mean, _ in rows]
        mu = sum(means) / lanes
        spread = math.sqrt(sum((m - mu) ** 2 for m in means) / lanes)
        sites[site] = SiteStability(
            site_id=site,
            lanes=lanes,
            dependent=dependent,
            mean_acc=mu,
            acc_spread=spread,
            mean_std=sum(std for _, _, std in rows) / lanes,
        )
        consensus[site] = dependent * 2 > lanes

    lanes = [
        LaneStability(
            lane=lane,
            input_name=input_name,
            run_id=run_id,
            profiled=len(verdicts),
            dependent=sum(1 for dep, _, _ in verdicts.values() if dep),
            flips=sum(
                1 for site, (dep, _, _) in verdicts.items()
                if dep != consensus[site]
            ),
        )
        for lane, input_name, run_id, verdicts in lane_rows
    ]
    return PopulationReport(
        tag=tag, workload=workload, predictor=predictor, sites=sites, lanes=lanes
    )


def _lane_verdicts(report) -> dict[int, tuple[bool, float, float]]:
    """One lane's ``{site: (dependent, mean, std)}`` from its 2D report."""
    return {
        site: (v.input_dependent, v.mean, v.std)
        for site, v in report.verdicts().items()
    }


def population_report(result) -> PopulationReport:
    """Build the stability report from a live :class:`SweepResult`."""
    with get_tracer().span("sweep.report", cat="sweep", population=result.tag):
        lane_rows = [
            (entry.lane, entry.input_name, entry.run_id, _lane_verdicts(entry.report))
            for entry in result.lanes
        ]
        return _build_report(
            result.tag, result.spec.workload, result.predictor, lane_rows
        )


def population_runs(warehouse, tag: str, predictor: str | None = None) -> list:
    """The population's stored runs, in lane order (lane index from name).

    ``predictor`` picks which predictor's runs to read; ``None`` means the
    only predictor stored under ``tag`` (several raise, naming them).
    """
    spec = PopulationSpec.from_tag(tag)
    records = [rec for rec in warehouse.runs(workload=spec.workload, predictor=predictor)
               if rec.source == tag]
    predictors = sorted({rec.predictor for rec in records})
    if len(predictors) > 1:
        raise ExperimentError(
            f"population {tag!r} holds runs of several predictors "
            f"({', '.join(predictors)}); choose one with --predictor"
        )
    by_name = {rec.input: rec for rec in records}  # latest run per lane wins
    missing = [name for name in spec.lane_names if name not in by_name]
    if missing:
        raise ExperimentError(
            f"population {tag!r} is incomplete in this store: "
            f"missing lanes {missing[:5]}{'...' if len(missing) > 5 else ''} "
            f"(run `sweep run` first)"
        )
    return [by_name[name] for name in spec.lane_names]


def population_report_from_store(
    warehouse,
    tag: str,
    std_th: float | None = None,
    pam_th: float | None = None,
    predictor: str | None = None,
) -> PopulationReport:
    """Build the stability report from warehouse runs under ``tag``.

    Default thresholds reproduce each run's stored classification;
    overrides re-run Figure 9c across the whole population with no
    replay (same contract as :func:`repro.store.queries.reclassify`).
    ``predictor`` is as in :func:`population_runs`.  Every lane is
    opened from one manifest image, one segment reader per segment.
    """
    spec = PopulationSpec.from_tag(tag)
    records = population_runs(warehouse, tag, predictor)
    with get_tracer().span(
        "sweep.report", cat="sweep", population=tag, lanes=len(records)
    ):
        lane_rows = []
        for lane, run in enumerate(warehouse.open_runs(records)):
            report = run.report(std_th=std_th, pam_th=pam_th)
            lane_rows.append(
                (lane, run.record.input, run.record.run_id, _lane_verdicts(report))
            )
        return _build_report(tag, spec.workload, records[0].predictor, lane_rows)
