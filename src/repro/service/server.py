"""Asyncio server: live 2D-profiling over the wire.

One :class:`ProfilingServer` multiplexes many concurrent *sessions*, each
owning an incremental :class:`~repro.core.profiler2d.TwoDProfiler` fed by
``record_batch``.  Clients speak the length-prefixed protocol of
:mod:`repro.service.protocol`; every frame gets a JSON reply, so the
stream is strictly request-reply — that, plus the per-frame batch/size
limits in :class:`ServiceLimits`, is the backpressure story: a client can
never have more than one unacknowledged batch in flight and the server
never buffers more than one frame per connection.

Robustness rules:

* a malformed *payload* (bad JSON, bad counts, unknown op, site id out of
  range, a profiler-config field of the wrong type) is rejected with an
  error reply and counted in ``frames_rejected`` — it never kills the
  server or even the connection;
* the ``open`` frame carries the session's resolved
  :class:`~repro.core.profiler2d.ProfilerConfig` as ``to_dict()`` fields
  (decoded by ``from_dict``); a reattach or resume whose config differs
  from the live or checkpointed session is refused;
* a corrupt *header* means the byte stream cannot be re-synchronized, so
  only that connection is closed;
* sessions idle past ``idle_timeout`` are checkpointed (when a checkpoint
  directory is configured) and evicted;
* :meth:`drain` — wired to SIGTERM by the CLI — stops accepting, writes a
  final checkpoint for every live session, and shuts down, so a deploy
  restart loses nothing;
* durable I/O (checkpoints, the close-time warehouse ingest and
  checkpoint removal) runs in worker threads, so no frame waits behind
  another session's fsyncs.  Handlers are plain coroutines that read
  live state on the loop before their first ``await`` (``state_dict()``
  and ``final_report()`` copy it), and I/O for one session name runs in
  request order: an ``open``, ``checkpoint`` or ``close`` of a name
  whose I/O is in flight waits for it first.  Each frame is one
  ``service.frame`` span; the worker thread's spans are its children;
* a SIGKILL loses only events after the last checkpoint: the client
  learns the resume offset from the ``open`` reply and re-sends the tail
  (``tests/test_service.py`` pins byte-identical reports across a crash).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import logging
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.core.profiler2d import ProfilerConfig, TwoDProfiler
from repro.errors import ExperimentError, ProtocolError, ServiceError, StoreError
from repro.obs import get_tracer
from repro.obs.logs import log_event
from repro.service import checkpoint as ckpt
from repro.service import protocol
from repro.service.metrics import ServiceMetrics, stats_view

log = logging.getLogger(__name__)

#: Errors a request answers with ``{"ok": false, "error": ...}``.
_REPLY_ERRORS = (ProtocolError, ServiceError, ExperimentError)


@dataclass(frozen=True)
class ServiceLimits:
    """Backpressure and housekeeping limits of one server instance."""

    #: Maximum concurrently live sessions; opens beyond this are refused.
    max_sessions: int = 256
    #: Maximum events one frame may carry; larger batches are rejected.
    max_batch_events: int = 1 << 20
    #: Seconds of inactivity before a session is checkpointed + evicted
    #: (``None`` disables the reaper).
    idle_timeout: Optional[float] = None


class _Session:
    """One live profiling session: a profiler plus bookkeeping."""

    def __init__(self, name: str, session_id: int, profiler: TwoDProfiler,
                 events_received: int = 0, meta: dict | None = None):
        self.name = name
        self.session_id = session_id
        self.profiler = profiler
        self.events_received = events_received
        self.meta = meta or {}
        self.last_active = asyncio.get_running_loop().time()
        self.opened_at_us = time.time_ns() / 1e3

    def touch(self) -> None:
        self.last_active = asyncio.get_running_loop().time()

    def final_report(self):
        """The report of a *copy* so the live state keeps going.

        ``finish()`` folds a sufficiently full trailing slice, which
        mutates; querying through a state-dict clone keeps the live
        profiler byte-identical to one that was never queried.
        """
        clone = TwoDProfiler.from_state(self.profiler.state_dict())
        return clone.finish()

    def report_payload(self) -> dict:
        return protocol.serialize_report(self.final_report())


def _validate_meta(meta) -> dict:
    """Check the optional open-frame session metadata (warehouse tags)."""
    if meta is None:
        return {}
    if not isinstance(meta, dict):
        raise ServiceError("meta must be a JSON object")
    for key, value in meta.items():
        if not isinstance(key, str):
            raise ServiceError("meta keys must be strings")
        if not isinstance(value, (str, int, float, bool)):
            raise ServiceError(f"meta[{key!r}] must be a scalar")
    scale = meta.get("scale", 1.0)
    if (isinstance(scale, bool) or not isinstance(scale, (int, float))
            or not 0 < scale <= sys.float_info.max):
        raise ServiceError("meta['scale'] must be a finite positive number")
    return dict(meta)


def _check_same_run(origin: str, name: str, profiler: TwoDProfiler,
                    num_sites: int, config: ProfilerConfig) -> None:
    """Refuse a reattach/resume whose open frame disagrees with the state."""
    if profiler.num_sites != num_sites:
        raise ServiceError(
            f"{origin} {name!r} has num_sites={profiler.num_sites}, not {num_sites}"
        )
    ours, theirs = profiler.config.to_dict(), config.to_dict()
    changed = [key for key in ours if ours[key] != theirs[key]]
    if changed:
        raise ServiceError(
            f"{origin} {name!r} was opened with a different {', '.join(changed)}"
        )


class ProfilingServer:
    """The streaming profiling service (one asyncio event loop)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_dir: str | Path | None = None,
        limits: ServiceLimits | None = None,
        warehouse_dir: str | Path | None = None,
        shard_name: str | None = None,
    ):
        self.host = host
        self.port = port
        #: Identity within a fleet; stamped on stats/metrics replies so the
        #: router can label merged series with ``shard="<name>"``.
        self.shard_name = shard_name
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.warehouse_dir = Path(warehouse_dir) if warehouse_dir else None
        self._warehouse = None
        self.limits = limits or ServiceLimits()
        self.metrics = ServiceMetrics()
        self._sessions: dict[str, _Session] = {}
        self._by_id: dict[int, _Session] = {}
        self._next_id = 1
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._reaper: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        #: The latest durable-I/O task per session name (see :meth:`_io_for`).
        self._io: dict[str, asyncio.Task] = {}
        self._closing: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the actual port."""
        self._stopped = asyncio.Event()
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            ckpt.sweep_checkpoint_dir(self.checkpoint_dir)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.limits.idle_timeout:
            self._reaper = asyncio.create_task(self._reap_idle_sessions())
        log.info("profiling service listening on %s:%d", self.host, self.port)

    async def wait_stopped(self) -> None:
        """Block until :meth:`drain` or :meth:`abort` completes."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def drain(self) -> int:
        """Graceful shutdown: checkpoint every session, then stop.

        Returns the number of checkpoints written.  Wired to SIGTERM by
        ``repro-2dprof serve``.
        """
        if self._draining:
            return 0
        self._draining = True
        started = time.perf_counter()
        with get_tracer().span("service.drain", cat="service", shard=self.shard_name,
                               sessions=len(self._sessions)) as sp:
            saves = []
            if self.checkpoint_dir is not None:
                saves = [self._checkpoint(session) for session in self._sessions.values()]
            results = await asyncio.gather(*saves, return_exceptions=True)
            written = sum(not isinstance(result, BaseException) for result in results)
            sp.set("checkpoints", written)
            while self._io:  # closes and evictions still writing
                await asyncio.wait(list(self._io.values()))
        self.metrics.drain_seconds.observe(time.perf_counter() - started)
        log_event(log, "server_drained", shard=self.shard_name,
                  checkpoints=written,
                  wall_s=round(time.perf_counter() - started, 4))
        await self._shut_down()
        return written

    def abort(self) -> None:
        """Hard stop with **no** checkpoints (crash simulation in tests)."""
        self._draining = True
        self._closing = asyncio.get_running_loop().create_task(self._shut_down())

    async def _shut_down(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            self._server.close()
        await protocol.close_writers(*self._writers)
        if self._stopped is not None:
            self._stopped.set()

    async def _reap_idle_sessions(self) -> None:
        timeout = self.limits.idle_timeout
        assert timeout
        interval = max(0.05, timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            idle = [s for s in self._sessions.values() if now - s.last_active > timeout]
            saves = []
            for session in idle:
                with get_tracer().span("service.evict", cat="service",
                                       session=session.name,
                                       events=session.events_received) as sp:
                    if self.checkpoint_dir is not None:
                        # Written off the loop; a resume of this name waits for it.
                        saves.append(self._checkpoint(session))
                        sp.set("checkpointed", True)
                    self._drop_session(session)
            if saves:
                await asyncio.wait(saves)
            for session in idle:
                self.metrics.sessions_evicted.inc()
                log_event(log, "session_evicted", shard=self.shard_name,
                          session=session.name, idle_s=timeout,
                          events=session.events_received)

    def _drop_session(self, session: _Session) -> None:
        self._sessions.pop(session.name, None)
        self._by_id.pop(session.session_id, None)
        tracer = get_tracer()
        if tracer.enabled:
            # One span per session lifetime (open/resume to close/evict).
            tracer.add_span(
                "service.session", ts_us=session.opened_at_us,
                dur_us=time.time_ns() / 1e3 - session.opened_at_us,
                cat="service", session=session.name,
                events=session.events_received,
            )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.metrics.connections_accepted.inc()
        self.metrics.connections_open.inc()
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(reader)
                except protocol.ProtocolError as exc:
                    # Unusable header or torn frame: the stream cannot be
                    # re-synchronized, so reject and close this connection.
                    self.metrics.frames_rejected.inc()
                    with contextlib.suppress(Exception):
                        encoded = protocol.encode_control({"ok": False, "error": str(exc)})
                        self.metrics.bytes_out.inc(len(encoded))
                        writer.write(encoded)
                        await writer.drain()
                    break
                if frame is None:
                    break
                self.metrics.frames_total.inc()
                frame_type, payload = frame
                self.metrics.bytes_in.inc(protocol.HEADER_BYTES + len(payload))
                started = time.perf_counter()
                with get_tracer().span(
                        "service.frame", cat="service",
                        hot_path=frame_type == protocol.FRAME_EVENTS,
                        frame=chr(frame_type)) as sp:
                    reply = await self._dispatch(frame_type, payload)
                    sp.set("ok", bool(reply.get("ok")))
                encoded = protocol.encode_control(reply)
                self.metrics.frame_latency.observe(time.perf_counter() - started)
                self.metrics.bytes_out.inc(len(encoded))
                writer.write(encoded)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            self.metrics.connections_open.dec()
            await protocol.close_writers(writer)

    async def _dispatch(self, frame_type: int, payload: bytes) -> dict:
        """Decode and apply one frame; always returns a reply payload."""
        try:
            if frame_type == protocol.FRAME_EVENTS:
                return self._on_events(protocol.decode_events(payload))
            return await self._on_control(protocol.decode_control(payload))
        except _REPLY_ERRORS as exc:
            self.metrics.frames_rejected.inc()
            return {"ok": False, "error": str(exc)}

    # ------------------------------------------------------------------
    # Frame semantics
    # ------------------------------------------------------------------

    def _on_events(self, batch: protocol.EventBatch) -> dict:
        session = self._by_id.get(batch.session_id)
        if session is None:
            raise ServiceError(f"unknown session id {batch.session_id}")
        if len(batch) > self.limits.max_batch_events:
            raise ServiceError(
                f"batch of {len(batch)} events exceeds limit {self.limits.max_batch_events}"
            )
        session.profiler.record_batch(batch.sites, batch.correct)
        session.events_received += len(batch)
        session.touch()
        self.metrics.events_total.inc(len(batch))
        return {"ok": True, "events": session.events_received}

    async def _on_control(self, message: dict) -> dict:
        op = message.get("op")
        handlers = {
            "ping": self._op_ping,
            "open": self._op_open,
            "query": self._op_query,
            "checkpoint": self._op_checkpoint,
            "close": self._op_close,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
        }
        handler = handlers.get(op)
        if handler is None:
            raise ServiceError(f"unknown control op {op!r}")
        return await handler(message)

    async def _op_ping(self, message: dict) -> dict:
        return {"ok": True, "op": "ping"}

    async def _op_open(self, message: dict) -> dict:
        name = ckpt.validate_session_name(message.get("session"))
        while (pending := self._io.get(name)) is not None:
            await asyncio.wait([pending])
        num_sites = message.get("num_sites")
        if not isinstance(num_sites, int) or num_sites <= 0:
            raise ServiceError("open requires a positive integer num_sites")

        config = ProfilerConfig.from_dict(message)

        session = self._sessions.get(name)
        resumed = None
        if session is not None:
            # Reattach to live in-memory state (e.g. after a reconnect).
            _check_same_run("session", name, session.profiler, num_sites, config)
            resumed = "memory"
        else:
            restored = None
            if message.get("resume") and self.checkpoint_dir is not None:
                restored = ckpt.load_checkpoint(self.checkpoint_dir, name)
            if restored is not None:
                profiler, events = restored
                _check_same_run("checkpoint of", name, profiler, num_sites, config)
                resumed = "checkpoint"
            else:
                if len(self._sessions) >= self.limits.max_sessions:
                    raise ServiceError(
                        f"session limit {self.limits.max_sessions} reached"
                    )
                profiler = TwoDProfiler(num_sites, config)
                events = 0
            session = _Session(name, self._next_id, profiler, events,
                               meta=_validate_meta(message.get("meta")))
            self._next_id += 1
            self._sessions[name] = session
            self._by_id[session.session_id] = session
            if resumed:
                self.metrics.sessions_resumed.inc()
            else:
                self.metrics.sessions_opened.inc()
            log_event(log, "session_opened", shard=self.shard_name,
                      session=name, resumed=resumed,
                      events=session.events_received)
        session.touch()
        return {
            "ok": True,
            "op": "open",
            "session": name,
            "session_id": session.session_id,
            "events": session.events_received,
            "resumed": resumed,
        }

    def _require_session(self, message: dict) -> _Session:
        name = message.get("session")
        session = self._sessions.get(name) if isinstance(name, str) else None
        if session is None:
            raise ServiceError(f"unknown session {name!r}")
        return session

    async def _op_query(self, message: dict) -> dict:
        session = self._require_session(message)
        session.touch()
        self.metrics.queries_served.inc()
        return {
            "ok": True,
            "op": "query",
            "session": session.name,
            "events": session.events_received,
            "report": session.report_payload(),
        }

    async def _op_checkpoint(self, message: dict) -> dict:
        if self.checkpoint_dir is None:
            raise ServiceError("server has no checkpoint directory configured")
        session = self._require_session(message)
        session.touch()
        name, events = session.name, session.events_received
        try:
            path = await self._checkpoint(session)
        except OSError as exc:
            raise ServiceError(f"checkpoint of {name!r} failed: {exc}") from exc
        return {"ok": True, "op": "checkpoint", "session": name,
                "events": events, "path": str(path)}

    async def _op_close(self, message: dict) -> dict:
        session = self._require_session(message)
        final = session.final_report()
        report = protocol.serialize_report(final)
        ingest = self._prepare_ingest(session, final)
        self._drop_session(session)
        outcome = await self._io_for(session.name, self._close_io, session.name, ingest)
        warehouse_run = None
        if isinstance(outcome, Exception):
            # Best-effort: counted and logged, never surfaced to the client.
            log_event(log, "warehouse_ingest_failed", level=logging.WARNING,
                      shard=self.shard_name, session=session.name,
                      error=str(outcome))
            self.metrics.warehouse_failures.inc()
        elif outcome is not None:
            warehouse_run = outcome
            self.metrics.runs_ingested.inc()
            log.info("session %r finalized into warehouse as %s",
                     session.name, warehouse_run)
        self.metrics.sessions_closed.inc()
        log_event(log, "session_closed", shard=self.shard_name,
                  session=session.name, events=session.events_received,
                  warehouse_run=warehouse_run)
        return {
            "ok": True,
            "op": "close",
            "session": session.name,
            "events": session.events_received,
            "report": report,
            "warehouse_run": warehouse_run,
        }

    # ------------------------------------------------------------------
    # Durable I/O, off the loop
    # ------------------------------------------------------------------

    def _io_for(self, name: str, work: Callable, *args) -> asyncio.Task:
        """Run ``work(*args)`` in a worker thread once ``name``'s earlier
        I/O has finished; returns the task.

        Chaining by name keeps one session's writes in request order, so a
        close's checkpoint removal can never land after the checkpoint of
        the session re-opened under its name.
        """
        previous = self._io.get(name)

        async def run():
            if previous is not None:
                await asyncio.wait([previous])  # its outcome is its own request's
            return await asyncio.to_thread(work, *args)

        task = asyncio.get_running_loop().create_task(run())
        self._io[name] = task

        def forget(done: asyncio.Task) -> None:
            if self._io.get(name) is done:
                del self._io[name]

        task.add_done_callback(forget)
        return task

    def _checkpoint(self, session: _Session) -> asyncio.Task:
        """Write ``session``'s checkpoint off the loop; the task returns its path.

        The state is copied here, on the loop, so the session keeps going.
        """
        task = self._io_for(session.name, ckpt.save_checkpoint, self.checkpoint_dir,
                            session.name, session.profiler.state_dict(),
                            session.events_received)
        task.add_done_callback(functools.partial(self._checkpoint_done, session.name))
        return task

    def _checkpoint_done(self, name: str, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            self.metrics.checkpoints_written.inc()
        else:
            log_event(log, "checkpoint_failed", level=logging.WARNING,
                      shard=self.shard_name, session=name, error=str(exc))

    def _close_io(self, name: str, ingest: Callable[[], list[str]] | None
                  ) -> str | Exception | None:
        """A closed session's I/O (worker thread): ingest, then drop its checkpoint.

        Returns the run id, ``None`` when nothing was stored, or the
        warehouse error; a failed ingest is reported, not raised, because
        closing the session must always work.
        """
        stored = None
        if ingest is not None:
            try:
                [stored] = ingest()
            except (StoreError, OSError, ValueError) as exc:
                stored = exc
        if self.checkpoint_dir is not None:
            ckpt.delete_checkpoint(self.checkpoint_dir, name)
        return stored

    # ------------------------------------------------------------------
    # Warehouse finalization
    # ------------------------------------------------------------------

    @property
    def warehouse(self):
        """Lazily opened :class:`~repro.store.warehouse.ProfileWarehouse`."""
        if self._warehouse is None and self.warehouse_dir is not None:
            from repro.store import ProfileWarehouse

            self._warehouse = ProfileWarehouse(self.warehouse_dir)
        return self._warehouse

    def _prepare_ingest(self, session: _Session, report) -> Callable[[], list[str]] | None:
        """The ingest of a closing session's report, to run off the loop; or None.

        Sessions profiled without ``keep_series`` cannot be stored (there
        is no matrix to ingest) and are skipped with a log line.  The
        warehouse is opened here, on the loop, before any thread uses it.
        """
        if self.warehouse_dir is None:
            return None
        if report.series is None:
            log.info("session %r closed without keep_series; not ingested",
                     session.name)
            return None
        from repro.store import IngestRun

        meta = session.meta
        return functools.partial(self.warehouse.ingest, [IngestRun(
            report,
            workload=str(meta.get("workload", session.name)),
            input_name=str(meta.get("input", "live")),
            predictor=str(meta.get("predictor", "stream")),
            scale=float(meta.get("scale", 1.0)),
            source="service",
        )])

    def _snapshot(self) -> dict:
        """The registry snapshot, with the live-session and uptime gauges
        refreshed first (every telemetry scrape comes through here)."""
        self.metrics.sessions_active.set(len(self._sessions))
        self.metrics.uptime_seconds.set(round(self.metrics.uptime(), 3))
        return self.metrics.registry.snapshot()

    def _session_events(self) -> dict[str, int]:
        return {session.name: session.events_received
                for session in self._sessions.values()}

    async def _op_stats(self, message: dict) -> dict:
        stats = stats_view(self._snapshot(), self._session_events())
        if self.shard_name is not None:
            stats["shard"] = self.shard_name
        return {"ok": True, "op": "stats", "stats": stats}

    async def _op_metrics(self, message: dict) -> dict:
        """Full registry snapshot plus the live sessions.

        This is the fleet router's scrape endpoint: the router merges the
        snapshots (with a ``shard`` label per origin, see
        :func:`repro.obs.metrics.labeled_snapshot`) and builds both its
        per-shard and fleet ``stats`` from them.
        """
        return {
            "ok": True,
            "op": "metrics",
            "shard": self.shard_name,
            "snapshot": self._snapshot(),
            "sessions": self._session_events(),
        }


class ServerThread:
    """Host a server on a daemon thread's event loop.

    ``server`` is any built-but-unstarted object with ``async start()``
    and ``async wait_stopped()``: a :class:`ProfilingServer` or a
    :class:`~repro.fleet.router.FleetRouter`.  Tests, examples and
    :class:`~repro.fleet.harness.FleetHarness` use it to run a server
    next to blocking clients in one process.  ``drain()`` is a server's
    graceful stop, ``abort()`` simulates a crash (no checkpoints
    written), and ``shutdown()`` stops a router.
    """

    def __init__(self, server):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        started = self._started.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not started:
            raise ServiceError("server thread failed to start")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    def is_alive(self) -> bool:
        """Whether the server's event loop thread is still running."""
        return self._thread is not None and self._thread.is_alive()

    def join(self, timeout: float | None = None) -> None:
        """Block until the server stops (however it was told to)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.wait_stopped()

    def drain(self) -> None:
        """Checkpoint every session and stop the server (graceful)."""
        if self._loop is not None and self.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop).result(timeout=30)
            self.join(timeout=30)

    def abort(self) -> None:
        """Stop without checkpointing — in-memory sessions are lost."""
        self._stop_with(self.server.abort)

    def shutdown(self) -> None:
        """Stop a router: close its listener and every connection."""
        self._stop_with(self.server.shutdown)

    def _stop_with(self, stop) -> None:
        if self._loop is not None and self.is_alive():
            self._loop.call_soon_threadsafe(stop)
            self.join(timeout=30)


async def serve_until_signalled(server: ProfilingServer,
                                flight_recorder=None) -> None:
    """Run ``server`` until SIGTERM/SIGINT, then drain gracefully.

    With a :class:`~repro.obs.flightrec.FlightRecorder`, SIGUSR2 dumps
    the tracer ring buffer — the fleet telemetry plane signals shards
    this way when an alert fires, collecting per-process traces.
    """
    import signal

    await server.start()
    loop = asyncio.get_running_loop()

    def _drain() -> None:
        asyncio.ensure_future(server.drain())

    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(signum, _drain)
    if flight_recorder is not None and hasattr(signal, "SIGUSR2"):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(
                signal.SIGUSR2,
                lambda: flight_recorder.dump(reason="signal", force=True))
    print(f"listening on {server.host}:{server.port}", flush=True)
    await server.wait_stopped()
