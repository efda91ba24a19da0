"""Figure 2: execution cost of branch vs. predicated code as the branch
misprediction rate sweeps, with the paper's parameters (penalty 30,
exec_T = exec_N = 3, exec_pred = 5).  The crossover must sit near 7%.
"""

from repro.analysis.tables import FIGURES, render_rows
from repro.core.predication import PredicationCosts, crossover_misprediction_rate


def bench_fig02_predication_cost(runner, archive):
    figure = FIGURES["2"]
    rows = figure.rows(runner)
    crossover = crossover_misprediction_rate(PredicationCosts())
    text = render_rows(rows, figure.title)
    text += f"\ncrossover misprediction rate: {crossover:.4f} (paper: ~0.07)"
    archive("fig02_predication", text)
    assert 0.06 < crossover < 0.08
    below = [r for r in rows if r["misp_rate"] < crossover - 0.01]
    above = [r for r in rows if r["misp_rate"] > crossover + 0.01]
    assert all(r["branch_cost"] < r["predicated_cost"] for r in below)
    assert all(r["branch_cost"] > r["predicated_cost"] for r in above)
