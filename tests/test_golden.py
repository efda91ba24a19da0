"""Golden regression tests for figure rows.

``tests/golden/*.json`` pins the Figure 3, 4, 5, and 10 rows at the
test scale (0.05).  Any change to the pipeline — tracing, simulation,
profiling, ground truth — that shifts these numbers fails here, which is
the point: refactors (vectorized replay, parallel warming) must not move
results at all.

Regenerate after an *intentional* change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.analysis import tables

GOLDEN_DIR = Path(__file__).parent / "golden"

FIGURES = {f"fig{key}": tables.FIGURES[key].rows for key in ("3", "4", "5", "10")}


def _canonical(rows: list[dict]) -> list[dict]:
    # JSON has no NaN; the paper's 0/0 cells round-trip as null.
    out = []
    for row in rows:
        canon = {}
        for key, value in row.items():
            if isinstance(value, float):
                canon[key] = None if math.isnan(value) else value
            else:
                canon[key] = value
        out.append(canon)
    return out


def _assert_rows_match(actual: list[dict], golden: list[dict], name: str) -> None:
    assert len(actual) == len(golden), f"{name}: row count changed"
    for i, (a_row, g_row) in enumerate(zip(actual, golden)):
        assert list(a_row) == list(g_row), f"{name} row {i}: columns changed"
        for key in g_row:
            a, g = a_row[key], g_row[key]
            where = f"{name} row {i} ({a_row.get('workload', '?')}) column {key!r}"
            if isinstance(g, float) and isinstance(a, (int, float)):
                assert a == pytest.approx(g, rel=1e-6, abs=1e-9), where
            else:
                assert a == g, where


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_rows_match_golden(name: str, tiny_runner):
    actual = _canonical(FIGURES[name](tiny_runner))
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), f"missing fixture {path}; run with REPRO_UPDATE_GOLDEN=1"
    golden = json.loads(path.read_text())
    _assert_rows_match(actual, golden, name)
