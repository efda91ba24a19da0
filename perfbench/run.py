"""Cold per-layer pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in a
process of its own, and exits non-zero if any of them did.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger (see perfbench/README.md).  Every line but the last is a readable
table; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched its expected value.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "frame_p50_ms": "ms",
    "frame_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the maximum when fewer than 1/(1-q) samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def workload_classes() -> dict:
    from workloads import PaperReport, PopulationSweep, PredictorZoo, ServiceStream

    return {cls.name: cls for cls in (PaperReport, PopulationSweep, PredictorZoo, ServiceStream)}


def run_phase(wl, ledger, seconds: float, alternate: bool = False,
              minimum: int = 2) -> list:
    """Repeat the workload's iteration until ``seconds`` have passed.

    At least ``minimum`` iterations run: one cold paper report takes
    longer than a run's ``--seconds``, and a median of two halves the
    host's run-to-run noise on it.  With ``alternate``, even iterations
    run untraced and odd ones traced (the benchmark's spans and the
    program's tracer both), so both halves see the same program state,
    such as a warehouse that grows during the run.
    """
    from ledger import ROOT
    from repro.obs.tracing import configure

    iterations = []
    deadline = time.perf_counter() + seconds
    while True:
        if alternate:
            ledger.traced = len(iterations) % 2 == 1
            configure(enabled=ledger.traced, cpu_time=False)
        with ledger.span(ROOT):
            it = wl.iterate(ledger)
        it.traced = ledger.traced
        iterations.append(it)
        if time.perf_counter() >= deadline and len(iterations) >= minimum:
            return iterations


def end_to_end(wl, setups: list[float], iterations: list) -> dict[str, float]:
    walls = [it.wall_s for it in iterations]
    frames = [ms for it in iterations for ms in it.frames_ms] or [w * 1e3 for w in walls]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(it.events / w for it, w in zip(iterations, walls)),
        "frame_p50_ms": statistics.median(frames),
        "frame_p99_ms": percentile(frames, 0.99),
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def traced(wl, seconds: float) -> tuple[dict[str, float], list]:
    """Alternating untraced/traced phase; returns the per-layer ledger and all iterations."""
    from ledger import (
        PER_LAYER_UNITS, SCALE_FIT_LAYERS, Instrumentation, Ledger, layer_metrics,
        scale_exponent,
    )
    from repro.obs.tracing import configure, get_tracer

    tracer = get_tracer()
    tracer.clear()
    ledger = Ledger(traced=False)
    try:
        with Instrumentation(ledger):
            iterations = run_phase(wl, ledger, seconds, alternate=True)
        spanned = [it for it in iterations if it.traced]
        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        metrics.update(layer_metrics(ledger, tracer.drain()))
        metrics.update(wl.layer_extras(spanned))
        metrics["trace_overhead"] = (
            statistics.median(it.wall_s for it in spanned)
            / statistics.median(it.wall_s for it in iterations if not it.traced))
        if wl.fit_scales:
            configure(enabled=True, cpu_time=False)
            seconds_at = {layer: [metrics[f"{layer}_s"]] for layer in SCALE_FIT_LAYERS}
            for scale in wl.fit_scales[1:]:
                probe = type(wl)(wl.seed, wl.workdir, scale=scale)
                probe.expected = wl.expected
                probe.setup()
                at_scale = Ledger(traced=True)
                with Instrumentation(at_scale):
                    iterations += run_phase(probe, at_scale, 0.0, minimum=1)
                fitted = layer_metrics(at_scale, tracer.drain())
                for layer in SCALE_FIT_LAYERS:
                    seconds_at[layer].append(fitted[f"{layer}_s"])
            for layer in SCALE_FIT_LAYERS:
                metrics[f"{layer}.scale_exponent"] = scale_exponent(
                    list(wl.fit_scales), seconds_at[layer])
    finally:
        configure(enabled=False)
        tracer.clear()
    return metrics, iterations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
        from ledger import PER_LAYER_UNITS, Instrumentation, Ledger
        from workloads import load_expected
        classes = workload_classes()
        expected = load_expected(args.workload) if args.workload in classes else None
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot load the program or its expected outputs: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in classes
        ]
        return max(codes)
    if args.workload not in classes:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(classes)}",
              file=sys.stderr)
        return 2

    workdir = HERE.parent / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    wl = classes[args.workload](args.seed, workdir)
    wl.expected = expected
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                wl.close()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        if args.trace:
            metrics, iterations = traced(wl, args.seconds)
            units = PER_LAYER_UNITS
        else:
            quiet = Ledger(traced=False)
            with Instrumentation(quiet):
                iterations = run_phase(wl, quiet, args.seconds)
            wl.close()
            metrics = end_to_end(wl, setups, iterations)
            units = END_TO_END_UNITS
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    width = max(len(name) for name in units)
    print(f"workload {args.workload}  seed {args.seed}  iterations {len(iterations)}")
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:>16.6g}  {unit}")
    print(f"  {'fail_rate':<{width}}  {failed / attempted:>16.6g}  ratio"
          f"  ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
