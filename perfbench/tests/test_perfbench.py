"""Smoke tests of the benchmark at a tiny configuration.

    python3 -m pytest perfbench/tests -q

The fixture shrinks every workload (fewer workloads, lanes and scales,
one catalogue entry), writes expected outputs for that configuration
into a temporary directory, and runs each workload once untraced and
once traced through ``run.main``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import regen_expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.workloads.suite import workload_names  # noqa: E402

WORKLOADS = ("paper-report", "population-sweep", "predictor-zoo", "service-stream")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    expected = tmp_path_factory.mktemp("expected")
    small = ("gzipish", "gapish", "vortexish")  # the report names these three
    suite = workload_names()
    patch.setattr(workloads, "EXPECTED", expected)
    patch.setattr(workloads, "CATALOGUE", 1)
    patch.setattr(workloads, "PAPER_EXCLUDED", tuple(n for n in suite if n not in small))
    patch.setattr(workloads, "PAPER_SCALES", (0.005, 0.01, 0.02))
    patch.setattr(workloads, "SWEEP_POPULATIONS", (("gapish", 4), ("parserish", 2)))
    patch.setattr(workloads, "ZOO_WORKLOADS", ("gzipish", "gapish"))
    patch.setattr(workloads, "SERVICE_WORKLOADS", ("gzipish", "gapish"))
    patch.setattr(run, "SETUP_REPEATS", 2)
    assert regen_expected.main(list(WORKLOADS)) == 0
    yield expected
    patch.undo()


def _run(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_units(tiny, capsys, workload):
    code, result = _run(capsys, workload, 0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_ledger(tiny, capsys, workload):
    code, result = _run(capsys, workload, 1)
    assert code == 0 and result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == ledger.PER_LAYER_UNITS
    assert metrics["unattributed_s"] >= 0
    assert metrics["trace_overhead"] > 0
    if workload in ("predictor-zoo", "service-stream"):
        assert metrics["vm.batch_s"] == 0 and metrics["vm.serial_s"] == 0
    if workload == "predictor-zoo":
        assert all(metrics[f"predictors.{kind}_s"] > 0 for kind in ledger.KINDS)
    if workload in ("paper-report", "population-sweep"):
        assert metrics["vm.batch_s"] > 0 and metrics["vm.batch_lanes"] > 0
    if workload == "paper-report":
        assert metrics["lang.compile_s"] > 0 and metrics["cachefs.publish_s"] > 0
        assert metrics["vm.batch.scale_exponent"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_output_is_caught(tiny, capsys, workload):
    path = tiny / f"{workload}.json"
    original = path.read_text()
    data = json.loads(original)
    key = next(iter(data))
    name = next(iter(data[key]))
    data[key][name] = "corrupted"
    path.write_text(json.dumps(data))
    try:
        code, result = _run(capsys, workload, 0)
    finally:
        path.write_text(original)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_unattributed_time_is_never_negative():
    book = ledger.Ledger(traced=True)
    with book.span(ledger.ROOT):
        with book.span("vm.batch"):
            with book.span("vm.serial"):
                pass
        with book.span("core.fold"):
            pass
    metrics = ledger.layer_metrics(book, [])
    assert metrics["unattributed_s"] >= 0
    total = sum(metrics[name] for name in ("vm.batch_s", "vm.serial_s", "core.fold_s"))
    root = next(s for s in book.spans if s[0] == ledger.ROOT)
    assert total + metrics["unattributed_s"] == pytest.approx(root[2] - root[1])


def test_missing_expected_outputs_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "EXPECTED", tmp_path / "absent")
    assert run.main(["--workload", "service-stream", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
