"""Row builders, plain-text rendering and the catalogue of every table and figure.

Each ``figNN_rows`` / ``tableN_rows`` function returns a list of dicts (one
per printed row) so tests can assert on values.  :data:`FIGURES` declares
each figure once (title, builder, percent columns, simulations needed);
``fig``, ``warm``, the report, the golden tests and the benches all read
it.  Rendering is plain text (the harness is terminal-first);
EXPERIMENTS.md captures paper-vs-measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.experiment import ExperimentRunner
from repro.core.groundtruth import DEFAULT_MIN_EXECUTIONS
from repro.core.metrics import average_metrics
from repro.core.predication import PredicationCosts, cost_sweep
from repro.workloads import all_workloads, deep_workloads

#: Accuracy bins of Figures 4 and 5 (paper: 0-70, 70-80, 80-90, 90-95,
#: 95-99, 99-100, measured on the reference input set).
ACCURACY_BINS: list[tuple[float, float, str]] = [
    (0.00, 0.70, "0-70%"),
    (0.70, 0.80, "70-80%"),
    (0.80, 0.90, "80-90%"),
    (0.90, 0.95, "90-95%"),
    (0.95, 0.99, "95-99%"),
    (0.99, 1.01, "99-100%"),
]


def format_fraction(value: float) -> str:
    """Render a ratio, printing the paper's unreliable 0/0 cases as n/a."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return f"{value:.2f}"


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _bin_label(accuracy: float) -> str:
    for low, high, label in ACCURACY_BINS:
        if low <= accuracy < high:
            return label
    return ACCURACY_BINS[-1][2]


# ----------------------------------------------------------------------
# Figure 2 — predication cost crossover
# ----------------------------------------------------------------------


def fig2_rows(costs: PredicationCosts | None = None, points: int = 21) -> list[dict]:
    costs = costs or PredicationCosts()
    rates = [i * 0.20 / (points - 1) for i in range(points)]
    return [
        {"misp_rate": rate, "branch_cost": bc, "predicated_cost": pc}
        for rate, bc, pc in cost_sweep(costs, rates)
    ]


# ----------------------------------------------------------------------
# Figure 3 — fraction of input-dependent branches (train vs ref)
# ----------------------------------------------------------------------


def fig3_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    rows = []
    for wl in all_workloads():
        dynamic, static = runner.dependent_fractions(wl.name, predictor)
        rows.append({"workload": wl.name, "dynamic": dynamic, "static": static})
    rows.sort(key=lambda r: -r["dynamic"])
    return rows


# ----------------------------------------------------------------------
# Figures 4 and 5 — accuracy-bin structure of input-dependent branches
# ----------------------------------------------------------------------


def fig4_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    """Distribution of input-dependent branches over ref-accuracy bins."""
    rows = []
    for wl in all_workloads():
        truth = runner.ground_truth(wl.name, predictor)
        ref_acc = runner.simulation(wl.name, "ref", predictor).site_accuracies(
            DEFAULT_MIN_EXECUTIONS)
        counts = {label: 0 for _, _, label in ACCURACY_BINS}
        total = 0
        for site in truth.dependent:
            if site in ref_acc:
                counts[_bin_label(ref_acc[site])] += 1
                total += 1
        row = {"workload": wl.name, "total": total}
        for _, _, label in ACCURACY_BINS:
            row[label] = counts[label] / total if total else 0.0
        rows.append(row)
    return rows


def fig5_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    """Fraction of branches in each accuracy bin that are input-dependent."""
    rows = []
    for wl in all_workloads():
        truth = runner.ground_truth(wl.name, predictor)
        ref_acc = runner.simulation(wl.name, "ref", predictor).site_accuracies(
            DEFAULT_MIN_EXECUTIONS)
        per_bin: dict[str, list[int]] = {label: [0, 0] for _, _, label in ACCURACY_BINS}
        for site in truth.universe:
            if site not in ref_acc:
                continue
            label = _bin_label(ref_acc[site])
            per_bin[label][1] += 1
            if site in truth.dependent:
                per_bin[label][0] += 1
        row = {"workload": wl.name}
        for _, _, label in ACCURACY_BINS:
            dep, total = per_bin[label]
            row[label] = dep / total if total else float("nan")
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 1 — overall misprediction rates per input set
# ----------------------------------------------------------------------


def table1_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    rows = []
    for wl in all_workloads():
        row = {"workload": wl.name}
        for input_name in ("train", "ref"):
            sim = runner.simulation(wl.name, input_name, predictor)
            row[input_name] = sim.overall_misprediction_rate
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 2 — benchmark and input characteristics
# ----------------------------------------------------------------------


def table2_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    rows = []
    for wl in all_workloads():
        truth = runner.ground_truth(wl.name, predictor)
        row = {"workload": wl.name, "static_branches": wl.program().num_sites,
               "input_dependent": len(truth.dependent)}
        for input_name in ("train", "ref"):
            trace = runner.trace(wl.name, input_name)
            row[f"{input_name}_instructions"] = trace.instructions
            row[f"{input_name}_branches"] = len(trace)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 10 — COV/ACC with two input sets
# ----------------------------------------------------------------------


def fig10_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    rows = []
    for wl in all_workloads():
        metrics = runner.evaluate(wl.name, predictor)
        row = {"workload": wl.name}
        row.update(metrics.as_row())
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figures 11-14 — more than two input sets
# ----------------------------------------------------------------------


def fig11_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    """Static dependent fraction as input sets accumulate (deep workloads).

    The denominator is fixed per workload (branches profiled in the train
    run), matching the paper's fixed static-branch denominator — so the
    fraction is monotone in the number of input sets, as the union of
    dependent sets can only grow.
    """
    rows = []
    for wl in deep_workloads():
        train_sim = runner.simulation(wl.name, "train", predictor)
        denominator = len(train_sim.site_accuracies(DEFAULT_MIN_EXECUTIONS))
        row = {"workload": wl.name}
        for others in runner.incremental_input_sets(wl.name):
            truth = runner.ground_truth(wl.name, predictor, others)
            label = "base" if others == ["ref"] else f"base-ext1-{len(others) - 1}"
            row[label] = len(truth.dependent) / denominator if denominator else 0.0
        rows.append(row)
    return rows


def fig12_rows(runner: ExperimentRunner, predictor: str = "gshare") -> list[dict]:
    """COV/ACC averaged over the deep workloads, per input-set count."""
    max_steps = max(len(runner.incremental_input_sets(wl.name)) for wl in deep_workloads())
    rows = []
    for step in range(max_steps):
        metrics = []
        for wl in deep_workloads():
            lists = runner.incremental_input_sets(wl.name)
            others = lists[min(step, len(lists) - 1)]
            metrics.append(runner.evaluate(wl.name, predictor, others=others))
        label = "base" if step == 0 else f"base-ext1-{step}"
        row = {"inputs": label}
        row.update(average_metrics(metrics))
        rows.append(row)
    return rows


def fig13_rows(
    runner: ExperimentRunner,
    profiler_predictor: str = "gshare",
    target_predictor: str | None = None,
) -> list[dict]:
    """Per-workload COV/ACC with the maximum number of input sets.

    With ``target_predictor`` set (e.g. "perceptron") this is Figure 15's
    cross-predictor variant.
    """
    rows = []
    for wl in deep_workloads():
        others = runner.incremental_input_sets(wl.name)[-1]
        metrics = runner.evaluate(
            wl.name, profiler_predictor, target_predictor=target_predictor, others=others
        )
        row = {"workload": wl.name}
        row.update(metrics.as_row())
        rows.append(row)
    return rows


def fig14_rows(runner: ExperimentRunner) -> list[dict]:
    """Fig. 11's growth study with the perceptron as the target predictor."""
    return fig11_rows(runner, predictor="perceptron")


# ----------------------------------------------------------------------
# Table 4 — extended input-set characteristics
# ----------------------------------------------------------------------


def table4_rows(runner: ExperimentRunner) -> list[dict]:
    rows = []
    for wl in deep_workloads():
        for ext in wl.ext_names:
            trace = runner.trace(wl.name, ext)
            row = {
                "workload": wl.name,
                "input": ext,
                "instructions": trace.instructions,
                "branches": len(trace),
            }
            for predictor in ("gshare", "perceptron"):
                sim = runner.simulation(wl.name, ext, predictor)
                truth = runner.ground_truth(wl.name, predictor, [ext])
                row[f"{predictor}_mispred"] = sim.overall_misprediction_rate
                row[f"{predictor}_dep_vs_train"] = len(truth.dependent)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------


def render_rows(rows: list[dict], title: str = "", percent_keys: tuple = ()) -> str:
    """Render row dicts as a text table; fractions print with 2 decimals."""
    if not rows:
        return title
    headers = list(rows[0].keys())
    body = []
    for row in rows:
        cells = []
        for key in headers:
            value = row.get(key)
            if isinstance(value, float):
                if key in percent_keys:
                    cells.append("n/a" if math.isnan(value) else f"{100 * value:.1f}%")
                else:
                    cells.append(format_fraction(value))
            else:
                cells.append(str(value))
        body.append(cells)
    return format_table(headers, body, title)


# ----------------------------------------------------------------------
# The figure catalogue
# ----------------------------------------------------------------------


def _wide_sims() -> list[tuple[str, str, str]]:
    return [(wl.name, inp, "gshare") for wl in all_workloads() for inp in ("train", "ref")]


def _deep_sims(predictor: str) -> list[tuple[str, str, str]]:
    return [(wl.name, inp, predictor) for wl in deep_workloads() for inp in wl.input_names]


def _fig15_sims() -> list[tuple[str, str, str]]:
    train = [(wl.name, "train", "gshare") for wl in deep_workloads()]
    return train + _deep_sims("perceptron")


def _table4_sims() -> list[tuple[str, str, str]]:
    return [
        (wl.name, inp, predictor)
        for wl in deep_workloads()
        for inp in ["train"] + wl.ext_names
        for predictor in ("gshare", "perceptron")
    ]


@dataclass(frozen=True)
class Figure:
    """One paper figure or table, as the report, ``fig`` and the benches show it.

    ``needs`` returns the (workload, input, predictor) simulations ``rows``
    reads; each implies its trace.  It reads the workload registry when
    called, so a registry trimmed at run time trims the grid too.
    ``ParallelRunner`` warms this grid before ``rows`` runs, so the serial
    builders only ever hit a hot cache.
    """

    title: str
    rows: Callable[[ExperimentRunner], list[dict]]
    needs: Callable[[], list[tuple[str, str, str]]]
    percent_keys: tuple[str, ...] = ()


_BIN_KEYS = tuple(label for _, _, label in ACCURACY_BINS)
_STEP_KEYS = ("base",) + tuple(f"base-ext1-{k}" for k in range(1, 7))

#: Every figure and table ``fig`` accepts, keyed as on its command line and
#: in the report's order.
FIGURES: dict[str, Figure] = {
    "2": Figure("Figure 2 — predication cost model",
                lambda runner: fig2_rows(points=11), lambda: []),
    "3": Figure("Figure 3 — fraction of input-dependent branches",
                fig3_rows, _wide_sims, ("dynamic", "static")),
    "4": Figure("Figure 4 — dependent branches by ref-accuracy bin",
                fig4_rows, _wide_sims, _BIN_KEYS),
    "5": Figure("Figure 5 — dependent fraction within accuracy bins",
                fig5_rows, _wide_sims, _BIN_KEYS),
    "t1": Figure("Table 1 — overall misprediction rates",
                 table1_rows, _wide_sims, ("train", "ref")),
    "t2": Figure("Table 2 — workload characteristics", table2_rows, _wide_sims),
    "10": Figure("Figure 10 — COV/ACC, two input sets", fig10_rows, _wide_sims),
    "11": Figure("Figure 11 — dependent fraction vs #input sets",
                 fig11_rows, lambda: _deep_sims("gshare"), _STEP_KEYS),
    "12": Figure("Figure 12 — average COV/ACC vs #input sets",
                 fig12_rows, lambda: _deep_sims("gshare")),
    "13": Figure("Figure 13 — COV/ACC at max input sets",
                 fig13_rows, lambda: _deep_sims("gshare")),
    "14": Figure("Figure 14 — dependent fraction vs #inputs (perceptron target)",
                 fig14_rows, lambda: _deep_sims("perceptron"), _STEP_KEYS),
    "15": Figure("Figure 15 — gshare profiler vs perceptron target",
                 lambda runner: fig13_rows(runner, target_predictor="perceptron"),
                 _fig15_sims),
    "t4": Figure("Table 4 — extended input sets",
                 table4_rows, _table4_sims, ("gshare_mispred", "perceptron_mispred")),
}


def render_figure(key: str, runner: ExperimentRunner) -> str:
    """The report's body for one figure: its rows as an untitled text table."""
    figure = FIGURES[key]
    return render_rows(figure.rows(runner), percent_keys=figure.percent_keys)
