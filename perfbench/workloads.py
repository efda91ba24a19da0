"""The four benchmark workloads.

Each workload has a set-up, a unit of work that the timed phase repeats
(an *iteration*), and a check of every iteration's output against the
expected outputs stored in ``perfbench/expected/``.  Only the benchmark
decides the inputs.  For ``population-sweep``, ``--seed`` picks one of
:data:`CATALOGUE` population seeds, each with its expected outputs.  The
other workloads run the suite's fixed inputs and the seed sets the order
of the work, which the outputs do not depend on.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ledger import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

#: Population seeds population-sweep selects from (``seed % CATALOGUE``).
CATALOGUE = 8

#: paper-report runs the full report over the suite minus these two
#: workloads: their inputs do not shrink with scale (130k-230k branch
#: events per trace at any scale), and with them one cold report takes
#: ~50 s on a 2-CPU host, longer than the run budget allows.
PAPER_EXCLUDED = ("bzipish", "craftyish")
#: The report's input scale, then the two more of the traced cost-vs-scale fit.
PAPER_SCALES = (0.02, 0.035, 0.06)

#: (workload, lanes): a convergent and a divergent population.
SWEEP_POPULATIONS = (("gapish", 64), ("parserish", 16))
SWEEP_SCALE = 0.02

#: The six workloads with extended inputs (paper Section 5.2).
DEEP_WORKLOADS = ("bzipish", "gzipish", "twolfish", "gapish", "craftyish", "gccish")

ZOO_WORKLOADS = DEEP_WORKLOADS
ZOO_SCALE = 0.02
ZOO_INPUTS = ("train", "ref")

SERVICE_WORKLOADS = DEEP_WORKLOADS
SERVICE_SCALE = 0.05
SERVICE_CONNECTIONS = 2
SERVICE_BATCH = 8192
#: A checkpoint request after every this many event frames.
SERVICE_CHECKPOINT_EVERY = 8
SERVICE_OPS = ("open", "events", "checkpoint", "close")


def env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_import(module: str) -> None:
    """Import ``module`` in a fresh interpreter, as every CLI start does."""
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env_with_src(),
                   check=True, timeout=120)


def load_expected(workload: str) -> dict:
    with open(EXPECTED / f"{workload}.json") as fh:
        return json.load(fh)


def reset_compiled_programs() -> None:
    """Drop every workload's compiled program so the next use recompiles."""
    from repro.workloads.suite import WORKLOADS

    for wl in WORKLOADS.values():
        wl._program = None


@dataclass
class Iteration:
    wall_s: float
    events: int
    attempted: int
    failed: int
    frames_ms: list[float] = field(default_factory=list)
    #: Check results (for writing expected outputs).
    outputs: dict = field(default_factory=dict)
    #: Workload-specific raw numbers for :meth:`Workload.layer_extras`.
    extras: dict = field(default_factory=dict)
    #: Whether the iteration ran with tracing on.
    traced: bool = False


class Workload:
    """Base: subclasses fill :meth:`setup` and :meth:`iterate`."""

    name = ""
    #: Input scales of the traced cost-vs-scale fit; empty for no fit.
    fit_scales: tuple[float, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected: dict | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, ledger) -> Iteration:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def layer_extras(self, iterations: list[Iteration]) -> dict[str, float]:
        """Per-layer metrics the ledger cannot derive from spans."""
        return {}

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def mismatches(self, key: str, outputs: dict) -> int:
        """How many of ``outputs`` differ from the expected ones under ``key``.

        A missing expected value counts as a mismatch; with no expected
        outputs loaded (while regenerating them) nothing is checked.
        """
        if self.expected is None:
            return 0
        expected = self.expected.get(key, {})
        return sum(1 for name, got in outputs.items() if expected.get(name) != got)


# ----------------------------------------------------------------------
# paper-report
# ----------------------------------------------------------------------


class _SubSuite:
    """Temporarily remove :data:`PAPER_EXCLUDED` from the workload registry."""

    def __enter__(self):
        from repro.workloads.suite import WORKLOADS

        self._saved = dict(WORKLOADS)
        for name in PAPER_EXCLUDED:
            WORKLOADS.pop(name)
        return self

    def __exit__(self, *exc_info):
        from repro.workloads.suite import WORKLOADS

        WORKLOADS.clear()
        WORKLOADS.update(self._saved)
        return False


class PaperReport(Workload):
    """A cold ``repro-2dprof report``: empty cache, ``jobs=1``, fresh compile."""

    name = "paper-report"

    def __init__(self, seed: int, workdir: Path, scale: float | None = None):
        super().__init__(seed, workdir)
        self.fit_scales = PAPER_SCALES
        self.scale = PAPER_SCALES[0] if scale is None else scale

    def setup(self) -> None:
        cold_import("repro.analysis.reportgen")
        from repro.workloads.suite import workload_names

        self.order = [n for n in workload_names() if n not in PAPER_EXCLUDED]
        random.Random(self.seed).shuffle(self.order)

    def iterate(self, ledger) -> Iteration:
        from repro.analysis.reportgen import generate_report
        from repro.core.experiment import ExperimentRunner, SuiteConfig

        cache = self.fresh_dir("cache-")
        before = ledger.event_total("vm.")
        with _SubSuite():
            reset_compiled_programs()
            t0 = time.perf_counter()
            runner = ExperimentRunner(SuiteConfig(scale=self.scale, cache_dir=cache, jobs=1))
            # Fig. 3 first touches every workload; the seed fixes that order.
            for name in self.order:
                runner.dependent_fractions(name)
            text = generate_report(runner)
            wall = time.perf_counter() - t0
        shutil.rmtree(cache, ignore_errors=True)
        texts = {f"{self.scale:g}": text}
        return Iteration(wall, ledger.event_total("vm.") - before, 1,
                         self.mismatches("report", texts), outputs={"report": texts})


# ----------------------------------------------------------------------
# population-sweep
# ----------------------------------------------------------------------


class PopulationSweep(Workload):
    """Two seeded input populations swept into a fresh warehouse, then reported."""

    name = "population-sweep"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.variant = seed % CATALOGUE

    def setup(self) -> None:
        cold_import("repro.sweep")
        from repro.sweep import PopulationSpec
        from repro.workloads import get_workload

        reset_compiled_programs()
        self.specs = [
            PopulationSpec(workload=wl, base_input="ref", size=lanes,
                           seed=self.variant, scale=SWEEP_SCALE)
            for wl, lanes in SWEEP_POPULATIONS
        ]
        for spec in self.specs:
            get_workload(spec.workload).program()

    def iterate(self, ledger) -> Iteration:
        from repro.store import ProfileWarehouse
        from repro.sweep import population_report_from_store, run_sweep

        root = self.fresh_dir("warehouse-")
        t0 = time.perf_counter()
        warehouse = ProfileWarehouse(root)
        events = 0
        texts = {}
        for spec in self.specs:
            events += run_sweep(spec, warehouse=warehouse).total_events
        for spec in self.specs:
            texts[spec.workload] = population_report_from_store(warehouse, spec.tag).render()
        wall = time.perf_counter() - t0
        extras = {"store_bytes": sum(p.stat().st_size for p in root.rglob("*") if p.is_file()),
                  "store_runs": len(warehouse.manifest().runs)}
        shutil.rmtree(root, ignore_errors=True)
        failed = self.mismatches(str(self.variant), texts)
        return Iteration(wall, events, len(texts), failed,
                         outputs={str(self.variant): texts}, extras=extras)

    def layer_extras(self, iterations: list[Iteration]) -> dict[str, float]:
        n = max(len(iterations), 1)
        return {"store.ingest_runs": sum(it.extras["store_runs"] for it in iterations) / n,
                "store.ingest_bytes": sum(it.extras["store_bytes"] for it in iterations) / n}


# ----------------------------------------------------------------------
# predictor-zoo
# ----------------------------------------------------------------------


def _float_key(value: float) -> str:
    return repr(float(value))


class PredictorZoo(Workload):
    """Every deep-workload trace through all eight predictor kinds."""

    name = "predictor-zoo"
    key = f"{ZOO_SCALE:g}"

    def setup(self) -> None:
        from repro.trace.capture import capture_trace
        from repro.workloads import get_workload

        reset_compiled_programs()
        self.traces = {}
        for wl in map(get_workload, ZOO_WORKLOADS):
            program = wl.program()
            self.traces[wl.name] = [
                capture_trace(program, wl.make_input(name, ZOO_SCALE)) for name in ZOO_INPUTS
            ]
        self.order = [(kind, wl) for kind in KINDS for wl in ZOO_WORKLOADS]
        random.Random(self.seed).shuffle(self.order)

    def iterate(self, ledger) -> Iteration:
        from repro.core.groundtruth import ground_truth
        from repro.core.metrics import evaluate_detection
        from repro.core.profiler2d import ProfilerConfig, profile_trace
        from repro.predictors import make_predictor
        from repro.predictors.simulate import simulate

        outputs: dict = {}
        events = 0
        t0 = time.perf_counter()
        for kind, workload in self.order:
            train, ref = self.traces[workload]
            sims = [simulate(make_predictor(kind), trace) for trace in (train, ref)]
            events += len(train) + len(ref)
            report = profile_trace(train, simulation=sims[0], config=ProfilerConfig())
            truth = ground_truth(sims[0], [sims[1]])
            m = evaluate_detection(report.input_dependent_sites(), truth)
            outputs[f"{kind}/{workload}"] = {
                "cov_dep": _float_key(m.cov_dep), "acc_dep": _float_key(m.acc_dep),
                "cov_indep": _float_key(m.cov_indep), "acc_indep": _float_key(m.acc_indep),
                "site_counts": digest([
                    [s.exec_counts.tolist(), s.correct_counts.tolist()] for s in sims]),
            }
        wall = time.perf_counter() - t0
        return Iteration(wall, events, len(outputs), self.mismatches(self.key, outputs),
                         outputs={self.key: outputs})


# ----------------------------------------------------------------------
# service-stream
# ----------------------------------------------------------------------


class ServiceStream(Workload):
    """Closed-loop streaming sessions against ``repro-2dprof serve``.

    Each connection streams every stream once per iteration, in its own
    seeded order, so both carry the same load whatever the seed.
    """

    name = "service-stream"
    key = f"{SERVICE_SCALE:g}"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.server: subprocess.Popen | None = None
        #: Iterations so far; part of every session name, so none repeats.
        self.rounds = 0

    def setup(self) -> None:
        from repro.core.profiler2d import ProfilerConfig, profile_trace
        from repro.predictors import paper_gshare
        from repro.predictors.simulate import simulate
        from repro.service.protocol import serialize_report
        from repro.trace.capture import capture_trace
        from repro.workloads import get_workload

        reset_compiled_programs()
        self.streams = []
        for wl in map(get_workload, SERVICE_WORKLOADS):
            trace = capture_trace(wl.program(), wl.make_input("ref", SERVICE_SCALE))
            sim = simulate(paper_gshare(), trace)
            config = ProfilerConfig(keep_series=True).resolve(total_branches=len(trace))
            offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
            self.streams.append({
                "name": wl.name, "sites": trace.sites, "correct": sim.correct,
                "num_sites": trace.num_sites, "config": config, "offline": offline,
            })
        rng = random.Random(self.seed)
        self.orders = [rng.sample(self.streams, len(self.streams))
                       for _ in range(SERVICE_CONNECTIONS)]
        self._start_server()

    def _start_server(self) -> None:
        state = self.fresh_dir("service-")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--checkpoint-dir", str(state / "checkpoints"),
             "--warehouse-dir", str(state / "warehouse")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env_with_src(), text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=30)
        self.server.stdout.close()
        self.server = None

    def peak_rss_mb(self) -> float:
        """Own peak plus the largest stopped child's: the server (after :meth:`close`)."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return peak_rss_mb() + children

    def server_counters(self) -> dict:
        """Cumulative frame count, frame seconds and bytes in, from the server."""
        from repro.service.client import StreamingClient

        with StreamingClient(*self.address) as client:
            stats = client.stats()
        latency = stats["frame_latency"]
        return {"frames": latency["count"], "frame_s": latency["sum_seconds"],
                "bytes_in": stats["bytes_in"]}

    def _connection(self, ledger, conn: int, result: dict) -> None:
        """One closed-loop client: each request waits for the previous reply.

        Its operations are the connection itself and every request.
        """
        from repro.errors import ReproError
        from repro.service.client import StreamingClient

        ops: dict[str, list[float]] = {op: [] for op in SERVICE_OPS}
        attempted = failed = acked = 0
        closed = {}

        def timed(op, fn, *args):
            nonlocal attempted
            attempted += 1
            with ledger.span(f"service.{op}"):
                t0 = time.perf_counter()
                reply = fn(*args)
                ops[op].append((time.perf_counter() - t0) * 1e3)
            return reply

        try:
            attempted += 1
            with StreamingClient(*self.address) as client:
                for stream in self.orders[conn]:
                    session = f"{stream['name']}-i{self.rounds}-c{conn}"
                    meta = {"workload": stream["name"], "input": session,
                            "predictor": "gshare", "scale": SERVICE_SCALE}
                    sites, correct = stream["sites"], stream["correct"]
                    timed("open", client.open_session, session, stream["num_sites"],
                          stream["config"], False, meta)
                    for frame, start in enumerate(range(0, len(sites), SERVICE_BATCH), 1):
                        stop = min(start + SERVICE_BATCH, len(sites))
                        timed("events", client.send_events, session,
                              sites[start:stop], correct[start:stop])
                        acked += stop - start
                        if frame % SERVICE_CHECKPOINT_EVERY == 0:
                            timed("checkpoint", client.checkpoint, session)
                    reply = timed("close", client.close_session, session)
                    closed[stream["name"]] = digest(reply["report"])
                    if reply["report"] != stream["offline"] or not reply.get("warehouse_run"):
                        failed += 1
        except (ReproError, OSError) as exc:
            print(f"service-stream connection {conn}: {exc}", file=sys.stderr)
            failed += 1
        result[conn] = (ops, attempted, failed, acked, closed)

    def iterate(self, ledger) -> Iteration:
        results: dict = {}
        threads = [
            threading.Thread(target=self._connection, args=(ledger, conn, results), daemon=True)
            for conn in range(SERVICE_CONNECTIONS)
        ]
        before = self.server_counters()
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        wall = time.perf_counter() - t0
        self.rounds += 1
        after = self.server_counters()
        attempted = failed = events = 0
        closed: dict = {}
        ops: dict[str, list[float]] = {op: [] for op in SERVICE_OPS}
        for conn in range(SERVICE_CONNECTIONS):
            if conn not in results:
                attempted += 1
                failed += 1
                continue
            conn_ops, a, f, acked, got = results[conn]
            attempted += a
            failed += f
            events += acked
            closed.update(got)
            for op, samples in conn_ops.items():
                ops[op].extend(samples)
        failed += self.mismatches(self.key, closed)
        # The first stats request above is itself a server frame.
        extras = {"ops": ops, "events": events,
                  **{k: after[k] - before[k] for k in before}}
        extras["frames"] -= 1
        return Iteration(wall, events, attempted, failed, frames_ms=list(ops["events"]),
                         outputs={self.key: closed}, extras=extras)

    def layer_extras(self, iterations: list[Iteration]) -> dict[str, float]:
        ops: dict[str, list[float]] = {op: [] for op in SERVICE_OPS}
        frames = frame_s = bytes_in = events = 0
        runs = 0
        for it in iterations:
            for op, samples in it.extras["ops"].items():
                ops[op].extend(samples)
            frames += it.extras["frames"]
            frame_s += it.extras["frame_s"]
            bytes_in += it.extras["bytes_in"]
            events += it.extras["events"]
            runs += len(it.extras["ops"]["close"])
        out = {f"service.{op}_ms": statistics.fmean(v) if v else 0.0 for op, v in ops.items()}
        requests = sum(len(v) for v in ops.values())
        server_ms = frame_s / frames * 1e3 if frames else 0.0
        client_ms = sum(sum(v) for v in ops.values()) / requests if requests else 0.0
        out["service.server_frame_ms"] = server_ms
        out["service.wait_ms"] = client_ms - server_ms
        out["service.bytes_per_event"] = bytes_in / events if events else 0.0
        out["store.ingest_runs"] = runs / max(len(iterations), 1)
        return out
