"""Command-line driver: ``python -m repro.cli`` or the ``repro-2dprof`` script.

Subcommands map to the paper's experiments::

    repro-2dprof list                       # workloads and their inputs
    repro-2dprof profile gzipish            # 2D-profile one workload (train)
    repro-2dprof evaluate gzipish           # COV/ACC vs train-vs-ref truth
    repro-2dprof fig 3                      # print a figure/table's rows
    repro-2dprof series gapish              # Figure 8 ASCII time series
    repro-2dprof overhead gzipish           # Figure 16 instrumentation costs
    repro-2dprof serve                      # streaming profiling service
    repro-2dprof fleet serve --shards 4     # sharded fleet + telemetry plane
    repro-2dprof top --once                 # live fleet dashboard (from TSDB)
    repro-2dprof logs --event alert_fired   # query structured JSON logs
    repro-2dprof stream gzipish --verify    # replay a run into the service
    repro-2dprof stats                      # metrics snapshot of a live server
    repro-2dprof db ingest gzipish          # profile + store in the warehouse
    repro-2dprof db diff r000001 r000002    # ground truth from stored runs
    repro-2dprof db reclassify r000001 --std-th 0.06   # threshold what-if
    repro-2dprof sweep run gapish --size 16 # input-population sweep
    repro-2dprof sweep report sweep:gapish:ref~0x16@s1   # verdict stability
    repro-2dprof db bisect --population sweep:gapish:ref~0x16@s1  # input triage

Observability: most subcommands accept ``--trace FILE`` (write a Chrome/
Perfetto trace of the run) and ``--metrics-json FILE`` (dump the metrics
registry); see docs/observability.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.core.experiment import ExperimentRunner, SuiteConfig, default_cache_dir
from repro.core.profiler2d import ProfilerConfig
from repro.core.stats import TestThresholds
from repro.errors import ReproError
from repro.obs import get_registry, get_tracer
from repro.analysis import tables
from repro.analysis.overhead import measure_overheads
from repro.analysis.timeseries import figure8_series, render_ascii_series
from repro.workloads import all_workloads, get_workload


def _dist_version() -> str:
    """The installed package version (source-tree fallback: repro.__version__)."""
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        import repro

        return repro.__version__


def _scale(text: str) -> float:
    """``--scale``: a finite input-size multiplier above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _profiler_config(args: argparse.Namespace) -> ProfilerConfig:
    """The profiler config implied by --std-th/--pam-th (defaults otherwise)."""
    std_th = getattr(args, "std_th", None)
    pam_th = getattr(args, "pam_th", None)
    if std_th is None and pam_th is None:
        return ProfilerConfig()
    return ProfilerConfig(thresholds=TestThresholds(
        std_th=std_th if std_th is not None else TestThresholds.std_th,
        pam_th=pam_th if pam_th is not None else TestThresholds.pam_th,
    ))


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    jobs = getattr(args, "jobs", 1)
    return ExperimentRunner(SuiteConfig(
        scale=args.scale, jobs=jobs, profiler=_profiler_config(args)
    ))


#: Registries beyond the process-wide one to fold into --metrics-json
#: (the serve command adds its server's per-instance registry here).
_EXTRA_REGISTRIES: list = []


def _finalize_obs(args: argparse.Namespace) -> None:
    """Export the trace / metrics snapshot a subcommand asked for."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        path = get_tracer().export(trace_path)
        print(f"wrote trace to {path} (open in https://ui.perfetto.dev)", file=sys.stderr)
    metrics_path = getattr(args, "metrics_json", None)
    if metrics_path:
        snapshot = get_registry().snapshot()
        for registry in _EXTRA_REGISTRIES:
            snapshot.update(registry.snapshot())
        from pathlib import Path

        path = Path(metrics_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote metrics snapshot to {path}", file=sys.stderr)


def _prefetch(runner: ExperimentRunner, sims, traces=()) -> None:
    """Warm the artifact cache in parallel when --jobs asks for it."""
    if runner.config.jobs != 1 and (sims or traces):
        stats = runner.prefetch(sims, traces)
        print(
            f"warmed {stats.artifacts} artifacts "
            f"({stats.traces} traces, {stats.sims} simulations) with {stats.jobs} jobs",
            file=sys.stderr,
        )


def _cmd_list(args: argparse.Namespace) -> int:
    for wl in all_workloads():
        deep = " [deep]" if wl.deep else ""
        print(f"{wl.name}{deep}: {wl.description}")
        print(f"    inputs: {', '.join(wl.input_names)}")
    return 0


def _print_verdicts(workload: str, report: dict) -> None:
    """The verdict listing of one ``serialize_report`` dict.

    ``profile`` and ``stream`` both print through here, so CI's diff of
    their outputs can only trip on a real difference in the report.
    """
    program = get_workload(workload).program()
    verdicts = {v["site_id"]: v for v in report["verdicts"]}
    dependent = report["input_dependent"]
    print(f"{workload}: profiled {len(report['profiled'])} branches "
          f"({program.num_sites} static), overall accuracy {report['overall_accuracy']:.3f}")
    print(f"predicted input-dependent ({len(dependent)}):")
    for site in dependent:
        verdict = verdicts[site]
        site_info = program.sites[site]
        print(f"  {site_info.label():28s} kind={site_info.kind:7s} "
              f"mean={verdict['mean']:.3f} std={verdict['std']:.3f} "
              f"pam={verdict['pam_fraction']:.2f}")


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.service.protocol import serialize_report

    runner = _make_runner(args)
    _prefetch(runner, [(args.workload, "train", args.predictor)])
    report = runner.profile_2d(args.workload, args.predictor)
    _print_verdicts(args.workload, serialize_report(report))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    target = args.target_predictor or args.predictor
    _prefetch(
        runner,
        [
            (args.workload, "train", args.predictor),
            (args.workload, "train", target),
            (args.workload, "ref", target),
        ],
    )
    metrics = runner.evaluate(args.workload, args.predictor, target_predictor=args.target_predictor)
    for key, value in metrics.as_row().items():
        print(f"{key}: {tables.format_fraction(value)}")
    print(f"(ground truth: {metrics.true_dep} dependent / {metrics.true_indep} independent)")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    key = args.figure.lower().removeprefix("fig").removeprefix("ure")
    figure = tables.FIGURES.get(key)
    if figure is None:
        print(f"unknown figure {args.figure!r}; known: {', '.join(tables.FIGURES)}",
              file=sys.stderr)
        return 2
    runner = _make_runner(args)
    _prefetch(runner, figure.needs())
    print(figure.title)
    print(tables.render_figure(key, runner))
    return 0


def _cmd_warm(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    stats = runner.prefetch(
        [sim for figure in tables.FIGURES.values() for sim in figure.needs()]
    )
    print(
        f"cache warm: {stats.artifacts} artifacts "
        f"({stats.traces} traces, {stats.sims} simulations) with {stats.jobs} jobs"
    )
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    _prefetch(runner, [(args.workload, "train", args.predictor)])
    varying, flat, _overall = figure8_series(runner, args.workload, args.predictor)
    print(render_ascii_series(varying))
    print()
    print(render_ascii_series(flat))
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.analysis.whatif import whatif_rows

    runner = _make_runner(args)
    rows = whatif_rows(runner, args.workloads)
    print(tables.render_rows(
        rows, "What-if: normalized cycles on ref (1.00 = never predicate)"))
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.core.profiler2d import ProfilerConfig
    from repro.analysis.phases import classify_report

    runner = _make_runner(args)
    report = runner.profile_2d(args.workload, args.predictor,
                               config=ProfilerConfig(keep_series=True))
    program = get_workload(args.workload).program()
    dependent = sorted(report.input_dependent_sites())
    verdicts = classify_report(report, sites=dependent)
    print(f"{args.workload}: phase shapes of {len(dependent)} detected branches")
    for site in dependent:
        verdict = verdicts[site]
        extra = ""
        if verdict.change_point >= 0:
            extra = (f" levels {verdict.level_before:.2f}->{verdict.level_after:.2f}"
                     f" @slice {verdict.change_point}")
        print(f"  {program.sites[site].label():28s} {verdict.shape.value:12s}"
              f" std={verdict.std:.3f} crossings={verdict.crossings}{extra}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reportgen import write_report

    runner = _make_runner(args)
    path = write_report(runner, args.out, include_whatif=not args.no_whatif)
    print(f"wrote {path}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    _prefetch(runner, [], traces=[(wl, "train") for wl in args.workloads])
    for workload in args.workloads:
        rows = measure_overheads(workload, scale=args.scale)
        print(f"{workload} (train input):")
        for row in rows:
            print(f"  {row.mode:10s} {row.seconds:7.3f}s  x{row.normalized:.2f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.service.server import ProfilingServer, ServiceLimits, serve_until_signalled

    if args.log_json:
        from repro.obs.logs import configure_logging

        configure_logging(path=args.log_json)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None:
        checkpoint_dir = default_cache_dir() / "service"
    server = ProfilingServer(
        host=args.host,
        port=args.port,
        checkpoint_dir=None if checkpoint_dir == "" else checkpoint_dir,
        warehouse_dir=args.warehouse_dir,
        shard_name=args.shard_name,
        limits=ServiceLimits(
            max_sessions=args.max_sessions,
            max_batch_events=args.max_batch_events,
            idle_timeout=args.idle_timeout,
        ),
    )
    _EXTRA_REGISTRIES.append(server.metrics.registry)
    recorder = None
    if args.flight_record:
        from repro.obs.flightrec import FlightRecorder

        recorder = FlightRecorder(
            args.flight_record,
            name=args.shard_name or f"pid{os.getpid()}")
        recorder.arm()
    asyncio.run(serve_until_signalled(server, flight_recorder=recorder))
    return 0


def _format_stat(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_stats_table(stats: dict, indent: str = "") -> None:
    """Render one stats payload: scalars first, then dict-valued rows."""
    stats = dict(stats)
    sessions = stats.pop("sessions", {})
    nested = {k: v for k, v in stats.items() if isinstance(v, dict)}
    scalars = {k: v for k, v in stats.items() if not isinstance(v, dict)}
    width = max((len(k) for k in list(scalars) + list(nested)), default=0)
    for key in sorted(scalars):
        print(f"{indent}{key:<{width}}  {_format_stat(scalars[key])}")
    for key in sorted(nested):
        parts = ", ".join(
            f"{k}={_format_stat(v) if v is not None else '-'}"
            for k, v in nested[key].items()
        )
        print(f"{indent}{key:<{width}}  {parts}")
    if sessions:
        print(f"{indent}sessions:")
        for name in sorted(sessions):
            print(f"{indent}  {name}: {sessions[name]} events")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.service.client import StreamingClient

    with StreamingClient(args.host, args.port) as client:
        reply = client.control({"op": "stats"})
    stats = reply["stats"]
    shards = reply.get("shards")
    if args.json:
        payload = {"stats": stats, "shards": shards} if shards is not None else stats
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    _print_stats_table(stats)
    if shards:
        # Fleet view: the summed totals above, one block per shard below.
        for name in sorted(shards):
            print(f"shard {name}:")
            _print_stats_table(shards[name], indent="  ")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.core.profiler2d import profile_trace
    from repro.service.client import StreamingClient, stream_simulation
    from repro.service.protocol import serialize_report

    runner = _make_runner(args)
    _prefetch(runner, [(args.workload, args.input, args.predictor)])
    trace = runner.trace(args.workload, args.input)
    sim = runner.simulation(args.workload, args.input, args.predictor)
    config = _profiler_config(args).resolve(total_branches=len(trace))
    if args.keep_series:
        config = dataclasses.replace(config, keep_series=True)
    session = args.session or (
        f"{args.workload}-{args.input}-{args.predictor}-s{args.scale:g}"
    )
    meta = {
        "workload": args.workload,
        "input": args.input,
        "predictor": args.predictor,
        "scale": args.scale,
    }
    with StreamingClient(args.host, args.port) as client:
        outcome = stream_simulation(
            client,
            session,
            trace.sites,
            sim.correct,
            config,
            batch_size=args.batch,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            stop_after=args.stop_after_events,
            num_sites=trace.num_sites,
            meta=meta,
        )
        if not outcome.completed:
            print(f"{session}: paused at {outcome.events_total}/{len(trace)} events "
                  f"(checkpointed on the server); continue with --resume")
            return 0
        remote = client.query(session)["report"]
        _print_verdicts(args.workload, remote)
        code = 0
        if args.verify:
            offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
            if remote == offline:
                print("verify: streamed report is bit-identical to offline profile_trace")
            else:
                print("verify: streamed report DIFFERS from offline profile_trace",
                      file=sys.stderr)
                code = 1
        if code == 0:
            close = client.close_session(session)
            run_id = close.get("warehouse_run")
            if run_id:
                print(f"stored in warehouse as {run_id}")
    return code


# ----------------------------------------------------------------------
# Fleet subcommands
# ----------------------------------------------------------------------


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import signal
    from pathlib import Path

    from repro.fleet import FleetHarness

    fleet_dir = Path(args.fleet_dir) if args.fleet_dir else default_cache_dir() / "fleet"
    rules = None
    if args.rules:
        from repro.obs.slo import load_rules

        rules = load_rules(args.rules)
    fleet = FleetHarness(
        fleet_dir,
        num_shards=args.shards,
        host=args.host,
        port=args.port,
        warehouse=args.warehouse_dir,
        idle_timeout=args.idle_timeout,
        max_sessions=args.max_sessions,
        trace_dir=fleet_dir / "traces" if args.trace else None,
        telemetry=not args.no_telemetry and (args.telemetry_dir or True),
        scrape_interval=args.scrape_interval,
        rules=rules,
        watchdog=not args.no_watchdog,
        triage_min_interval=args.triage_min_interval,
    )
    with fleet:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: fleet.router_thread.shutdown())
        shards = ", ".join(s.address for s in fleet.supervisor.shard_map.shards)
        print(f"fleet listening on {fleet.host}:{fleet.port} "
              f"({len(fleet.supervisor.shard_map)} shard(s): {shards})", flush=True)
        if fleet.telemetry is not None:
            print(f"telemetry in {fleet.telemetry_dir} "
                  f"(scrape every {args.scrape_interval:g}s, "
                  f"watchdog {'off' if args.no_watchdog else 'on'})",
                  flush=True)
        fleet.router_thread.join()  # until a signal or `fleet drain`
    if args.trace:
        print(f"merged {fleet.merged_trace_events} shard trace event(s)",
              file=sys.stderr)
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.service.client import StreamingClient

    with StreamingClient(args.host, args.port) as client:
        reply = client.control({"op": "fleet_status"})
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    router = reply["router"]
    print(f"router {router['host']}:{router['port']}")
    for shard in reply["shards"]:
        pid = shard.get("pid")
        state = "up" if shard.get("alive", shard.get("live")) else "DOWN"
        parts = [f" pid={pid}" if pid is not None else ""]
        if shard.get("uptime") is not None:
            parts.append(f" up={shard['uptime']:.0f}s")
        if shard.get("restarts"):
            parts.append(f" restarts={shard['restarts']}")
        if shard.get("scrape_age") is not None:
            parts.append(f" scraped={shard['scrape_age']:.1f}s ago")
        if shard.get("scrape_misses"):
            parts.append(f" misses={shard['scrape_misses']}")
        print(f"  {shard['name']}: {shard['host']}:{shard['port']} "
              f"{state}{''.join(parts)}")
        for alert in shard.get("alerts") or []:
            print(f"    ALERT {alert['rule']} [{alert['severity']}] "
                  f"value={alert.get('value')}")
    fleet_alerts = [a for a in reply.get("alerts") or []
                    if a.get("source") not in {s["name"] for s in reply["shards"]}]
    if fleet_alerts:
        print("alerts:")
        for alert in fleet_alerts:
            print(f"  {alert['rule']} [{alert['severity']}] "
                  f"source={alert.get('source')} value={alert.get('value')}")
    sessions = reply.get("sessions", {})
    if sessions:
        print(f"sessions ({len(sessions)}):")
        for name in sorted(sessions):
            entry = sessions[name]
            print(f"  {name}: shard={entry['shard']} events={entry['events']}")
    return 0


def _cmd_fleet_drain(args: argparse.Namespace) -> int:
    from repro.service.client import StreamingClient

    with StreamingClient(args.host, args.port) as client:
        reply = client.control({"op": "fleet_drain", "rolling": args.rolling})
    if args.rolling:
        print(f"rolling drain complete: replaced {', '.join(reply['replaced'])}")
    else:
        print(f"fleet draining: {reply['stopping']} shard(s) stopping")
    return 0


def _cmd_fleet_loadgen(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.fleet import run_loadgen

    result = run_loadgen(
        args.host,
        args.port,
        streams=args.streams,
        connections=args.connections,
        events=args.events,
        batch=args.batch,
        num_sites=args.sites,
        seed=args.seed,
        verify_sample=args.verify_sample,
    )
    code = 1 if result.failed_streams or result.verify_failures else 0
    if args.json:
        print(json.dumps(asdict(result), indent=2, sort_keys=True))
        return code
    latency = result.frame_latency or {}
    print(f"loadgen: {result.streams} stream(s) over {result.connections} "
          f"connection(s), {result.events_total} events in {result.wall_seconds:.2f}s "
          f"({result.events_per_second:,.0f} events/s)")
    if latency:
        print(f"  frame latency: p50={latency['p50'] * 1e3:.2f}ms "
              f"p90={latency['p90'] * 1e3:.2f}ms p99={latency['p99'] * 1e3:.2f}ms "
              f"max={latency['max'] * 1e3:.2f}ms")
    print(f"  retries={result.retries} failed={result.failed_streams} "
          f"verified={result.verified} verify_failures={result.verify_failures}")
    return code


# ----------------------------------------------------------------------
# Telemetry subcommands (top, logs)
# ----------------------------------------------------------------------


def _telemetry_root(arg: str | None) -> "Path":
    from pathlib import Path

    return Path(arg) if arg else default_cache_dir() / "fleet" / "telemetry"


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import run_top

    tsdb_dir = _telemetry_root(args.telemetry_dir) / "tsdb"
    if not tsdb_dir.is_dir():
        print(f"no telemetry TSDB at {tsdb_dir} "
              f"(is a fleet running with telemetry on?)", file=sys.stderr)
        return 1
    return run_top(
        tsdb_dir,
        interval=args.interval,
        window=args.window,
        once=args.once,
        as_json=args.json,
    )


def _cmd_logs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.logs import format_record, parse_since, read_logs

    root = Path(args.path) if args.path else _telemetry_root(None) / "logs"
    if not root.exists():
        print(f"no logs at {root}", file=sys.stderr)
        return 1
    try:
        since = parse_since(args.since) if args.since is not None else None
    except ValueError:
        print(f"bad --since value {args.since!r} "
              f"(want epoch seconds or 30s/5m/2h/1d)", file=sys.stderr)
        return 2
    records = list(read_logs(
        root,
        event=args.event,
        level=args.level,
        trace_id=args.trace_id,
        since=since,
        grep=args.grep,
    ))
    if args.tail is not None:
        records = records[-args.tail:]
    for doc in records:
        print(json.dumps(doc, sort_keys=True) if args.json
              else format_record(doc))
    return 0


# ----------------------------------------------------------------------
# Warehouse (db) subcommands
# ----------------------------------------------------------------------


def _open_store(args: argparse.Namespace, create: bool = False):
    from repro.store import ProfileWarehouse

    store = args.store or default_cache_dir() / "warehouse"
    return ProfileWarehouse(store, create=create)


def _cmd_db_ingest(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.store import IngestRun

    warehouse = _open_store(args, create=True)
    runner = _make_runner(args)
    config = dataclasses.replace(runner.config.profiler, keep_series=True)
    _prefetch(runner, [(args.workload, name, args.predictor) for name in args.inputs])
    batch = [
        IngestRun(
            runner.profile_2d(args.workload, args.predictor,
                              input_name=input_name, config=config),
            args.workload, input_name, args.predictor, scale=args.scale,
            sim=runner.simulation(args.workload, input_name, args.predictor),
            source="cli",
        )
        for input_name in args.inputs
    ]
    run_ids = warehouse.ingest(batch)
    records = warehouse.manifest().runs
    for input_name, run_id in zip(args.inputs, run_ids):
        record = records[run_id]
        print(f"{run_id}: {args.workload}/{input_name} {args.predictor} "
              f"scale={args.scale:g} slices={record.n_slices} rows={record.entry_count}")
    return 0


def _cmd_db_query(args: argparse.Namespace) -> int:
    warehouse = _open_store(args)
    if args.run is None:
        records = warehouse.runs(args.workload, args.input, args.predictor)
        for rec in records:
            counts = "counts" if rec.has_counts else "no-counts"
            print(f"{rec.run_id}  {rec.workload}/{rec.input}  {rec.predictor}  "
                  f"scale={rec.scale:g}  slices={rec.n_slices}  rows={rec.entry_count}  "
                  f"acc={rec.overall_accuracy:.4f}  {counts}  [{rec.source}]")
        stats = warehouse.stats()
        corrupt = f", {stats['corrupt_runs']} CORRUPT" if stats["corrupt_runs"] else ""
        print(f"total: {stats['runs']} run(s), {stats['segments']} segment(s), "
              f"{stats['entries']} rows, {stats['bytes']} bytes{corrupt}")
        return 0
    run = warehouse.open_run(args.run)
    if args.site is not None:
        slices, acc = run.site_series(args.site)
        for slice_idx, value in zip(slices, acc):
            print(f"{int(slice_idx):6d} {float(value):.6f}")
        return 0
    rec = run.record
    print(f"{rec.run_id}: {rec.workload}/{rec.input} {rec.predictor} scale={rec.scale:g}")
    print(f"  config: {json.dumps(rec.config, sort_keys=True)}")
    print(f"  slices={rec.n_slices} sites={rec.num_sites} rows={rec.entry_count} "
          f"overall={rec.overall_accuracy:.6f} counts={'yes' if rec.has_counts else 'no'}")
    branch_counts = run.branch_counts()
    profiled = sorted(run.profiled_sites(), key=lambda s: -int(branch_counts[s]))
    shown = profiled[:args.top]
    print(f"  profiled branches ({len(shown)} shown of {len(profiled)}):")
    for site in shown:
        print(f"    site {site}: {int(branch_counts[site])} qualifying slices")
    return 0


def _cmd_db_diff(args: argparse.Namespace) -> int:
    from repro.store import diff_runs

    warehouse = _open_store(args)
    train = warehouse.open_run(args.train)
    others = [warehouse.open_run(run_id) for run_id in args.others]
    truth = diff_runs(train, others, threshold=args.threshold,
                      min_executions=args.min_executions)
    dependent = sorted(truth.dependent)
    print(f"train: {train.run_id} vs {' '.join(o.run_id for o in others)}")
    print(f"comparable sites: {len(truth.universe)}")
    print(f"input-dependent ({len(dependent)}): {' '.join(map(str, dependent))}")
    print(f"dependent fraction: {truth.dependent_fraction:.6f}")
    return 0


def _cmd_db_reclassify(args: argparse.Namespace) -> int:
    from repro.store import reclassify

    warehouse = _open_store(args)
    run = warehouse.open_run(args.run)
    result = reclassify(run, std_th=args.std_th, pam_th=args.pam_th)
    th = result["thresholds"]
    print(f"{run.run_id}: mean_th={th['mean_th']} std_th={th['std_th']} pam_th={th['pam_th']}")
    print(f"profiled branches: {len(result['profiled'])}")
    dependent = result["input_dependent"]
    print(f"input-dependent ({len(dependent)}): {' '.join(map(str, dependent))}")
    return 0


def _cmd_db_join(args: argparse.Namespace) -> int:
    from repro.store import join_runs

    warehouse = _open_store(args)
    rows = join_runs(warehouse.open_run(args.a), warehouse.open_run(args.b))
    agree = sum(1 for row in rows if row["agree"])
    print(f"{args.a} vs {args.b}: {len(rows)} shared branches, {agree} agree")
    for row in rows:
        if args.all or not row["agree"]:
            print(f"  site {row['site']:4d}: "
                  f"a mean={row['a_mean']:.3f} std={row['a_std']:.3f} dep={row['a_dependent']}  "
                  f"b mean={row['b_mean']:.3f} std={row['b_std']:.3f} dep={row['b_dependent']}")
    return 0


def _cmd_db_compact(args: argparse.Namespace) -> int:
    warehouse = _open_store(args)
    stats = warehouse.compact()
    print(f"compacted {stats.runs_rewritten} run(s): "
          f"{stats.segments_before} -> {stats.segments_after} segment(s), "
          f"{stats.bytes_written} bytes written")
    return 0


def _cmd_db_gc(args: argparse.Namespace) -> int:
    warehouse = _open_store(args)
    stats = warehouse.gc(purge_corrupt=args.purge_corrupt,
                         dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    purged = "would purge" if args.dry_run else "purged"
    print(f"gc: {verb} {stats.segments_removed} segment dir(s), "
          f"{stats.tmp_files_removed} tmp file(s), {purged} "
          f"{stats.runs_purged} run(s)")
    return 0


def _cmd_db_bisect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.triage import triage_runs

    warehouse = _open_store(args)
    good, bad = args.good, args.bad
    if args.population:
        if good is not None or bad is not None:
            print("error: give either GOOD BAD run ids or --population, not both",
                  file=sys.stderr)
            return 2
        from repro.sweep import population_report_from_store

        population = population_report_from_store(
            warehouse, args.population, std_th=args.std_th, pam_th=args.pam_th,
            predictor=args.predictor)
        conforming, deviant = population.extremes()
        good, bad = conforming.run_id, deviant.run_id
        print(f"population {args.population}: seeding bisection from its extremes\n"
              f"  good={good} ({conforming.input_name}, {conforming.flips} "
              f"consensus flips)\n"
              f"  bad={bad} ({deviant.input_name}, {deviant.flips} "
              f"consensus flips)",
              file=sys.stderr)
    elif good is None or bad is None:
        print("error: db bisect needs GOOD and BAD run ids (or --population TAG)",
              file=sys.stderr)
        return 2
    state_path = (Path(args.state) if args.state
                  else Path(warehouse.root) / "triage"
                  / f"bisect_{good}_{bad}.json")
    report = triage_runs(
        warehouse, good, bad,
        std_th=args.std_th, pam_th=args.pam_th,
        state_path=state_path,
        thresholds_search=args.thresholds,
    )
    if args.report:
        path = report.write(args.report)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.render(top_n=args.top))
    return 0


# ----------------------------------------------------------------------
# Input-population sweep subcommands
# ----------------------------------------------------------------------


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweep import PopulationSpec, population_report, run_sweep

    spec = PopulationSpec(
        workload=args.workload,
        base_input=args.input,
        size=args.size,
        seed=args.seed,
        scale=args.scale,
    )
    warehouse = None if args.no_store else _open_store(args, create=True)
    result = run_sweep(spec, predictor=args.predictor, warehouse=warehouse)
    for lane in result.lanes:
        print(f"{lane.run_id or '-':8s} {spec.workload}/{lane.input_name} "
              f"{args.predictor} events={lane.events} "
              f"instructions={lane.instructions}")
    print(f"population {spec.tag}: {spec.size} lane(s), "
          f"{result.total_events} events in {result.elapsed_seconds:.2f}s")
    if args.summary:
        print(population_report(result).render(top=args.top))
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.sweep import population_report_from_store

    warehouse = _open_store(args)
    report = population_report_from_store(
        warehouse, args.population, std_th=args.std_th, pam_th=args.pam_th,
        predictor=args.predictor)
    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.render(top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-2dprof",
        description="2D-profiling (CGO 2006) reproduction driver",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_dist_version()}")
    parser.add_argument("--scale", type=_scale, default=1.0,
                        help="input-size multiplier for all workloads (default 1.0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(func=_cmd_list)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for cache warming (0 = all cores; default 1)")

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="record spans and write a Chrome/Perfetto trace to FILE")
        p.add_argument("--metrics-json", default=None, metavar="FILE",
                       help="write the metrics-registry snapshot to FILE")

    def add_thresholds(p: argparse.ArgumentParser) -> None:
        p.add_argument("--std-th", type=float, default=None,
                       help=f"STD-test threshold (default {TestThresholds.std_th})")
        p.add_argument("--pam-th", type=float, default=None,
                       help=f"PAM-test threshold (default {TestThresholds.pam_th})")

    p = sub.add_parser("profile", help="run 2D-profiling on one workload's train input")
    p.add_argument("workload")
    p.add_argument("--predictor", default="gshare")
    add_thresholds(p)
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("evaluate", help="COV/ACC of 2D-profiling vs train-vs-ref ground truth")
    p.add_argument("workload")
    p.add_argument("--predictor", default="gshare")
    p.add_argument("--target-predictor", default=None,
                   help="ground-truth predictor (default: same as --predictor)")
    add_thresholds(p)
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("fig", help=f"print a paper figure/table ({','.join(tables.FIGURES)})")
    p.add_argument("figure")
    add_thresholds(p)
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_fig)

    p = sub.add_parser("warm", help="pre-build every artifact the figure suite needs")
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_warm)

    p = sub.add_parser("series", help="Figure 8 per-slice accuracy series (ASCII)")
    p.add_argument("workload", nargs="?", default="gapish")
    p.add_argument("--predictor", default="gshare")
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("overhead", help="Figure 16 instrumentation overhead")
    p.add_argument("workloads", nargs="*", default=["gzipish"])
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("serve", help="run the streaming profiling service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421,
                   help="TCP port (0 = pick a free one; default 7421)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="session checkpoint directory "
                        "(default <cache>/service; '' disables checkpointing)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="seconds before an idle session is checkpointed and evicted")
    p.add_argument("--warehouse-dir", default=None,
                   help="profile warehouse root; closed keep-series sessions are "
                        "ingested there (default: no warehouse)")
    p.add_argument("--max-sessions", type=int, default=256)
    p.add_argument("--max-batch-events", type=int, default=1 << 20)
    p.add_argument("--shard-name", default=None,
                   help="this server's identity within a fleet (stamped on "
                        "stats/metrics replies)")
    p.add_argument("--flight-record", default=None, metavar="DIR",
                   help="arm a flight recorder: keep a trace ring buffer in "
                        "memory and dump it to DIR on SIGUSR2")
    p.add_argument("--log-json", default=None, metavar="FILE",
                   help="append structured JSON-lines logs to FILE")
    add_obs(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("fleet", help="sharded deployment: router + shard fleet")
    fleet = p.add_subparsers(dest="fleet_command", required=True)

    p = fleet.add_parser("serve", help="spawn N shards and route to them")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7431,
                   help="router TCP port (0 = pick a free one; default 7431)")
    p.add_argument("--shards", type=int, default=4,
                   help="shard server processes to spawn (default 4)")
    p.add_argument("--fleet-dir", default=None,
                   help="fleet state root: checkpoints/, registry/, traces/ "
                        "(default <cache>/fleet)")
    p.add_argument("--warehouse-dir", default=None,
                   help="shared profile warehouse root for all shards")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="per-shard idle-session eviction timeout (seconds)")
    p.add_argument("--max-sessions", type=int, default=4096,
                   help="per-shard live session limit (default 4096)")
    p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="telemetry root: tsdb/, flight/, logs/ "
                        "(default <fleet-dir>/telemetry)")
    p.add_argument("--scrape-interval", type=float, default=1.0,
                   help="seconds between metric scrapes (default 1.0)")
    p.add_argument("--rules", default=None, metavar="FILE",
                   help="SLO/alert rules JSON (default: built-in fleet rules)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="run without the telemetry plane (no scraper, TSDB, "
                        "alerts, watchdog, or flight recorder)")
    p.add_argument("--no-watchdog", action="store_true",
                   help="scrape and alert but never auto-restart shards")
    p.add_argument("--triage-min-interval", type=float, default=60.0,
                   help="min seconds between alert-driven triage reports "
                        "(default 60; needs --warehouse-dir)")
    add_obs(p)
    p.set_defaults(func=_cmd_fleet_serve)

    p = fleet.add_parser("status", help="shard table and session placements")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7431)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fleet_status)

    p = fleet.add_parser("drain", help="stop the fleet (or rolling-restart it)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7431)
    p.add_argument("--rolling", action="store_true",
                   help="drain-and-replace shards one at a time instead of "
                        "stopping the fleet")
    p.set_defaults(func=_cmd_fleet_drain)

    p = fleet.add_parser("loadgen", help="drive concurrent streams and measure")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7431)
    p.add_argument("--streams", type=int, default=1000,
                   help="concurrent sessions to drive (default 1000)")
    p.add_argument("--connections", type=int, default=32,
                   help="TCP connections the sessions multiplex over (default 32)")
    p.add_argument("--events", type=int, default=2000,
                   help="events per stream (default 2000)")
    p.add_argument("--batch", type=int, default=500,
                   help="events per wire batch (default 500)")
    p.add_argument("--sites", type=int, default=64,
                   help="branch sites per synthetic stream (default 64)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--verify-sample", type=int, default=10,
                   help="verify this many streams bit-for-bit against an "
                        "offline profiler (0 = none; default 10)")
    p.add_argument("--json", action="store_true",
                   help="print the result as JSON instead of a summary")
    p.set_defaults(func=_cmd_fleet_loadgen)

    p = sub.add_parser("stats", help="query and pretty-print a live server's metrics")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--json", action="store_true",
                   help="print the raw stats-frame JSON instead of a table")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("top", help="live fleet dashboard from the telemetry TSDB")
    p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="telemetry root holding tsdb/ "
                        "(default <cache>/fleet/telemetry)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default 2.0)")
    p.add_argument("--window", type=float, default=10.0,
                   help="rate/quantile lookback window in seconds (default 10)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (exit code 2 if any alert "
                        "is firing)")
    p.add_argument("--json", action="store_true",
                   help="emit the overview as JSON instead of the text board")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("logs", help="query structured JSON-lines service logs")
    p.add_argument("path", nargs="?", default=None,
                   help="log file or directory of *.jsonl files "
                        "(default <cache>/fleet/telemetry/logs)")
    p.add_argument("--event", default=None,
                   help="keep only records with this structured event name")
    p.add_argument("--level", default=None,
                   help="minimum level (DEBUG/INFO/WARNING/ERROR)")
    p.add_argument("--trace-id", default=None,
                   help="keep only records from this trace")
    p.add_argument("--since", default=None, metavar="TS|DUR",
                   help="keep records at/after this UNIX timestamp, or "
                        "within a relative duration (30s/5m/2h/1d)")
    p.add_argument("--grep", default=None,
                   help="substring filter over the rendered message")
    p.add_argument("--tail", type=int, default=None, metavar="N",
                   help="only the last N matching records")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON records instead of formatted lines")
    p.set_defaults(func=_cmd_logs)

    p = sub.add_parser("stream", help="replay a workload run into the service, live")
    p.add_argument("workload")
    p.add_argument("--input", default="train")
    p.add_argument("--predictor", default="gshare")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--session", default=None,
                   help="session name (default <workload>-<input>-<predictor>-s<scale>)")
    p.add_argument("--batch", type=int, default=8192, help="events per wire batch")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="request a server checkpoint every N batches (0 = never)")
    p.add_argument("--stop-after-events", type=int, default=None,
                   help="stop (and checkpoint) after sending N events — for "
                        "interrupted-producer testing")
    p.add_argument("--resume", action="store_true",
                   help="resume the session from the server's checkpointed offset")
    p.add_argument("--keep-series", action="store_true",
                   help="profile with the raw slice matrix retained so the server "
                        "can finalize the session into its warehouse")
    p.add_argument("--verify", action="store_true",
                   help="compare the streamed report bit-for-bit against offline "
                        "profile_trace; non-zero exit on mismatch")
    add_thresholds(p)
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("db", help="query and maintain the profile warehouse")
    db = p.add_subparsers(dest="db_command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=None,
                       help="warehouse root (default <cache>/warehouse)")

    p = db.add_parser("ingest", help="profile a workload and store the run(s)")
    p.add_argument("workload")
    p.add_argument("--inputs", nargs="+", default=["train"],
                   help="input names to profile and store as one batch (default: train)")
    p.add_argument("--predictor", default="gshare")
    add_store(p)
    add_thresholds(p)
    add_jobs(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_ingest)

    p = db.add_parser("query", help="list stored runs, or read one run / one branch")
    p.add_argument("run", nargs="?", default=None,
                   help="run id to inspect (omit to list the catalog)")
    p.add_argument("--site", type=int, default=None,
                   help="print this branch's (slice, accuracy) time series")
    p.add_argument("--top", type=int, default=10,
                   help="branches shown in the per-run index summary")
    p.add_argument("--workload", default=None, help="catalog filter")
    p.add_argument("--input", default=None, help="catalog filter")
    p.add_argument("--predictor", default=None, help="catalog filter")
    add_store(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_query)

    p = db.add_parser("diff", help="ground-truth input-dependence from stored runs")
    p.add_argument("train", help="run id of the train-input run")
    p.add_argument("others", nargs="+", help="run id(s) to compare against")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="accuracy-delta threshold (default 0.05)")
    p.add_argument("--min-executions", type=int, default=30,
                   help="minimum executions in both runs (default 30)")
    add_store(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_diff)

    p = db.add_parser("reclassify", help="re-run MEAN/STD/PAM over a stored run")
    p.add_argument("run")
    add_store(p)
    add_thresholds(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_reclassify)

    p = db.add_parser("join", help="per-branch join of two stored runs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--all", action="store_true",
                   help="print agreeing branches too (default: disagreements only)")
    add_store(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_join)

    p = db.add_parser("compact", help="rewrite all live runs into one segment")
    add_store(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_compact)

    p = db.add_parser("gc", help="sweep unreferenced segments and tmp litter")
    p.add_argument("--purge-corrupt", action="store_true",
                   help="also drop committed runs whose segment data is damaged")
    p.add_argument("--dry-run", action="store_true",
                   help="print what would be deleted; delete nothing")
    add_store(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_gc)

    p = db.add_parser(
        "bisect",
        help="triage a regression between a good and a bad stored run")
    p.add_argument("good", nargs="?", default=None,
                   help="run id of the known-good baseline run")
    p.add_argument("bad", nargs="?", default=None,
                   help="run id of the regressed run")
    p.add_argument("--population", default=None, metavar="TAG",
                   help="seed GOOD/BAD from a stored sweep population's "
                        "most/least consensus-conforming lanes")
    p.add_argument("--predictor", default=None,
                   help="with --population: the predictor whose lanes to read "
                        "(default: the population's only one)")
    p.add_argument("--state", default=None, metavar="FILE",
                   help="resumable bisection state "
                        "(default <store>/triage/bisect_<good>_<bad>.json)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the machine-readable triage_report.json")
    p.add_argument("--thresholds", action="store_true",
                   help="also search --std-th/--pam-th space for per-site "
                        "verdict flip points")
    p.add_argument("--top", type=int, default=10,
                   help="suspiciousness rows to print (default 10)")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report instead of the table")
    add_store(p)
    add_thresholds(p)
    add_obs(p)
    p.set_defaults(func=_cmd_db_bisect)

    p = sub.add_parser("sweep", help="input-population sweeps: verdict stability across inputs")
    sweep = p.add_subparsers(dest="sweep_command", required=True)

    p = sweep.add_parser(
        "run",
        help="profile a seeded input population and store every lane")
    p.add_argument("workload")
    p.add_argument("--input", default="ref",
                   help="base input the population is grown from (default ref)")
    p.add_argument("--size", type=int, default=16,
                   help="population size, i.e. number of input sets (default 16)")
    p.add_argument("--seed", type=int, default=0,
                   help="population seed (default 0)")
    p.add_argument("--predictor", default="gshare")
    p.add_argument("--no-store", action="store_true",
                   help="profile only; skip warehouse ingestion")
    p.add_argument("--summary", action="store_true",
                   help="also print the verdict-stability summary")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the --summary tables (default 10)")
    add_store(p)
    add_obs(p)
    p.set_defaults(func=_cmd_sweep_run)

    p = sweep.add_parser(
        "report",
        help="verdict stability of a stored population across its lanes")
    p.add_argument("population", metavar="TAG",
                   help="population tag printed by `sweep run`")
    p.add_argument("--predictor", default=None,
                   help="the predictor whose lanes to read "
                        "(default: the population's only one)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the machine-readable population report")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report instead of the table")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the contested-site/lane tables (default 10)")
    add_store(p)
    add_thresholds(p)
    add_obs(p)
    p.set_defaults(func=_cmd_sweep_report)

    p = sub.add_parser("whatif", help="predication policy comparison (profile train, run ref)")
    p.add_argument("workloads", nargs="*", default=["gzipish", "gapish", "vortexish"])
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser("phases", help="classify detected branches' phase shapes")
    p.add_argument("workload", nargs="?", default="gapish")
    p.add_argument("--predictor", default="gshare")
    p.set_defaults(func=_cmd_phases)

    p = sub.add_parser("report", help="write the full experiment report as markdown")
    p.add_argument("--out", default="REPORT.md")
    p.add_argument("--no-whatif", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", None):
        get_tracer().configure(enabled=True)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early; not an error.
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _finalize_obs(args)


if __name__ == "__main__":
    sys.exit(main())
