"""The one fleet bring-up: ``fleet serve``, tests, examples, benchmarks.

:class:`FleetHarness` owns a :class:`~repro.fleet.supervisor.FleetSupervisor`
(N shard subprocesses sharing one checkpoint dir) plus a
:class:`~repro.fleet.router.FleetRouter` hosted on a
:class:`~repro.service.server.ServerThread` (the front door, on a daemon
thread in *this* process), laid out under one root directory::

    <root>/checkpoints/   shared session checkpoints (any-shard resume)
    <root>/registry/      session -> shard placement records
    <root>/warehouse/     shared profile warehouse (optional)
    <root>/telemetry/     metric TSDB + flight records + logs (optional)

``repro-2dprof fleet serve`` only translates its flags into a harness
and waits on it, so a CLI fleet and a harness fleet are the same code.
With telemetry on, the harness also runs the full telemetry plane
(scraper, SLO rules, watchdog, flight recorder, alert-driven triage when
a warehouse is attached — see :mod:`repro.obs.telemetry`) and the
router's JSON log; with a ``trace_dir``, :meth:`FleetHarness.stop`
folds the shards' span traces into this process's tracer.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetSupervisor
from repro.obs import get_tracer
from repro.service.client import StreamingClient
from repro.service.server import ServerThread

#: Generous per-shard session limit so loadgen runs don't trip it.
DEFAULT_MAX_SESSIONS = 4096


def _optional_dir(root: Path, name: str, value) -> Path | None:
    """``False``/``None`` -> off, ``True`` -> ``root/name``, else the path."""
    if value is True:
        return root / name
    return Path(value) if value else None


def _merge_shard_traces(trace_dir: Path) -> int:
    """Fold the shard processes' trace files into this process's tracer."""
    merged = 0
    tracer = get_tracer()
    for path in sorted(trace_dir.glob("*.trace.json")):
        try:
            doc = json.loads(path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            continue  # a SIGKILLed shard never wrote its trace
        events = doc.get("traceEvents", []) if isinstance(doc, dict) else doc
        # Drop per-file process metadata; export regenerates it per pid.
        merged += tracer.add_chrome_events(
            e for e in events if e.get("ph") != "M")
    return merged


class FleetHarness:
    """N shard subprocesses behind an in-process router thread.

    ``warehouse`` and ``telemetry`` take ``True`` (the ``<root>`` layout
    above) or a directory of their own.
    """

    def __init__(
        self,
        root: str | Path,
        num_shards: int = 3,
        host: str = "127.0.0.1",
        port: int = 0,
        warehouse: bool | str | Path = False,
        idle_timeout: float | None = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        trace_dir: str | Path | None = None,
        telemetry: bool | str | Path = False,
        scrape_interval: float = 0.5,
        rules=None,
        watchdog: bool = True,
        triage_min_interval: float = 60.0,
    ):
        self.root = Path(root)
        self.checkpoint_dir = self.root / "checkpoints"
        self.registry_dir = self.root / "registry"
        self.warehouse_dir = _optional_dir(self.root, "warehouse", warehouse)
        self.telemetry_dir = _optional_dir(self.root, "telemetry", telemetry)
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.supervisor = FleetSupervisor(
            num_shards,
            checkpoint_dir=self.checkpoint_dir,
            warehouse_dir=self.warehouse_dir,
            host=host,
            idle_timeout=idle_timeout,
            max_sessions=max_sessions,
            trace_dir=self.trace_dir,
            flight_dir=self.telemetry_dir / "flight" if self.telemetry_dir else None,
            log_dir=self.telemetry_dir / "logs" if self.telemetry_dir else None,
        )
        self._router_opts = dict(host=host, port=port)
        self._telemetry_opts = dict(
            scrape_interval=scrape_interval, rules=rules, watchdog=watchdog,
            warehouse_dir=self.warehouse_dir,
            triage_min_interval=triage_min_interval)
        self.telemetry = None
        #: The :class:`ServerThread` hosting the router; ``join()`` it to
        #: wait for a ``fleet drain``, ``shutdown()`` it to stop serving.
        self.router_thread: ServerThread | None = None
        #: Shard trace events :meth:`stop` merged (with a ``trace_dir``).
        self.merged_trace_events = 0
        self._log_handler: logging.Handler | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "FleetHarness":
        try:
            self._start()
        except BaseException:
            self.stop()  # never leave shard processes behind
            raise
        return self

    def _start(self) -> None:
        if self.telemetry_dir is not None:
            from repro.obs.logs import configure_logging, process_log_path

            self._log_handler = configure_logging(
                path=process_log_path(self.telemetry_dir / "logs", "router"))
        shard_map = self.supervisor.start()
        if self.telemetry_dir is not None:
            from repro.obs.telemetry import FleetTelemetry

            self.telemetry = FleetTelemetry(
                self.telemetry_dir,
                shard_map=shard_map,
                supervisor=self.supervisor,
                **self._telemetry_opts,
            )
        router = FleetRouter(
            shard_map,
            registry_dir=self.registry_dir,
            supervisor=self.supervisor,
            telemetry=self.telemetry,
            **self._router_opts,
        )
        if self.telemetry is not None:
            self.telemetry.scraper.local_registries["router"] = router.metrics
            self.telemetry.start()
        self.router_thread = ServerThread(router).start()

    def stop(self) -> None:
        if self.telemetry is not None:
            self.telemetry.stop()
        if self.router_thread is not None:
            self.router_thread.shutdown()
        self.supervisor.stop_all()
        if self.trace_dir is not None:
            self.merged_trace_events = _merge_shard_traces(self.trace_dir)
        if self._log_handler is not None:
            logging.getLogger("repro").removeHandler(self._log_handler)
            self._log_handler.close()

    def __enter__(self) -> "FleetHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- access ---------------------------------------------------------

    @property
    def router(self) -> FleetRouter:
        assert self.router_thread is not None, "harness not started"
        return self.router_thread.server

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    def client(self, timeout: float = 60.0) -> StreamingClient:
        """A blocking client connected through the router."""
        return StreamingClient(self.host, self.port, timeout=timeout)

    # -- fleet operations ----------------------------------------------

    def owner_of(self, session: str) -> str | None:
        """Which shard the registry says last held ``session``."""
        entry = self.router.registry.lookup(session)
        return entry["shard"] if entry else None

    def kill_shard(self, name: str) -> int:
        """SIGKILL one shard (no drain); returns the dead pid."""
        return self.supervisor.kill(name)

    def restart_dead(self) -> list[str]:
        """Respawn killed shards (the shared map updates in place)."""
        return self.supervisor.restart_dead()

    def rolling_restart(self) -> list[str]:
        return self.supervisor.rolling_restart()
