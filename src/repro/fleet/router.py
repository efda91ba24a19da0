"""Front-door router: one address, many shard servers behind it.

:class:`FleetRouter` speaks the exact wire protocol of
:mod:`repro.service.protocol` — a client cannot tell a router from a
single server — and forwards every session to the shard the
:class:`~repro.fleet.shardmap.ShardMap` places it on.  Placement is
rendezvous hashing keyed by session name, overridden by the
:class:`~repro.fleet.registry.SessionRegistry` when a session already
landed somewhere (so failover doesn't bounce it back the moment its
preferred shard returns).

Session ids are translated: the router hands clients ids from its own
namespace and rewrites event-frame heads to each shard's ids on the way
through (:func:`repro.service.protocol.reframe_events` — the packed
event words are never decoded).  Control replies pass through verbatim
apart from that id rewrite, which keeps error semantics identical to a
direct connection.

Failure model: a shard that cannot be reached is marked dead for a
cooldown window and its in-flight sessions on the failing connection get
an error reply with ``"retriable": true`` — the client re-opens with
``resume=True`` and the router places the session on the next-ranked
live shard, which restores it from the *shared* checkpoint directory.
Nothing past the last checkpoint survives a SIGKILL, exactly the single-
server contract; the loadgen and handoff tests drive that path hard.

Fleet-only control ops (rejected by plain shards):

* ``stats`` — scrapes every live shard's ``metrics`` op and returns
  :func:`~repro.service.metrics.stats_view` twice over: of the merged
  snapshot (fleet totals) and of each shard's (per-shard breakdown);
* ``metrics`` — one merged registry snapshot: fleet-wide additive totals
  plus every series relabelled ``shard="<name>"``;
* ``fleet_status`` — shard table (address, liveness, pid) and the
  session registry's view of placements;
* ``fleet_drain`` — rolling restart (``{"rolling": true}``) or full
  drain-and-stop of every shard and then the router itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ProtocolError, ServiceError
from repro.fleet.registry import SessionRegistry
from repro.fleet.shardmap import ShardMap, ShardSpec
from repro.obs import Registry, get_tracer, labeled_snapshot, merge_additive_snapshot
from repro.service import protocol
from repro.service.checkpoint import validate_session_name
from repro.service.metrics import stats_view

log = logging.getLogger(__name__)

#: Seconds an unreachable shard is skipped before the router tries it again.
DEAD_COOLDOWN = 2.0

#: Seconds the router waits to open a connection to a shard.
CONNECT_TIMEOUT = 5.0


class _ShardDown(Exception):
    """Transport-level failure talking to one shard (not an error reply)."""

    def __init__(self, shard: str, reason: str):
        super().__init__(f"shard {shard} unavailable: {reason}")
        self.shard = shard
        self.reason = reason


@dataclass
class _Route:
    """One open session as seen from one client connection."""

    shard: str
    backend_id: int
    session: str


class _ConnState:
    """Per-client-connection forwarding state.

    Backend connections are opened lazily per (client connection, shard)
    pair; because the client side is strict request-reply, at most one
    request is ever in flight on any of them — no locking needed.
    """

    def __init__(self):
        self.backends: dict[str, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self.routes: dict[int, _Route] = {}
        self.by_name: dict[str, int] = {}
        #: Router ids whose shard died, so the *next* frame on each gets a
        #: retriable "re-open to resume" reply instead of "unknown id".
        self.lost: dict[int, str] = {}

    def drop_shard(self, shard: str) -> list[str]:
        """Forget a dead shard's backend and routes; returns lost sessions."""
        pair = self.backends.pop(shard, None)
        if pair is not None:
            with contextlib.suppress(Exception):
                pair[1].close()
        lost = [r.session for r in self.routes.values() if r.shard == shard]
        for session in lost:
            router_id = self.by_name.pop(session, None)
            if router_id is not None:
                self.routes.pop(router_id, None)
                self.lost[router_id] = shard
        return lost

    def drop_backends(self) -> list[asyncio.StreamWriter]:
        """Forget every shard connection; returns their writers to close."""
        writers = [writer for _reader, writer in self.backends.values()]
        self.backends.clear()
        return writers


class FleetRouter:
    """Consistent-hash front door over a fleet of profiling shards."""

    def __init__(
        self,
        shard_map: ShardMap,
        registry_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        supervisor=None,
        telemetry=None,
    ):
        self.shard_map = shard_map
        self.registry = SessionRegistry(registry_dir)
        self.host = host
        self.port = port
        #: Optional :class:`~repro.fleet.supervisor.FleetSupervisor`; when
        #: present, ``fleet_status`` reports pids and ``fleet_drain`` can
        #: restart/stop the shard processes.
        self.supervisor = supervisor
        #: Optional :class:`~repro.obs.telemetry.FleetTelemetry`; when
        #: present, ``fleet_status`` includes scrape ages and alert state.
        self.telemetry = telemetry
        self.metrics = Registry()
        self._frames = self.metrics.counter("router_frames_total")
        self._shard_failures = self.metrics.counter("router_shard_failures_total")
        self._reroutes = self.metrics.counter("router_reroutes_total")
        self._latency = self.metrics.histogram("router_frame_latency_seconds")
        self._dead_until: dict[str, float] = {}
        self._next_id = 1
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_ConnState] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopped: asyncio.Event | None = None
        self._stopping = False
        self._closing: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("fleet router listening on %s:%d (%d shard(s))",
                 self.host, self.port, len(self.shard_map))

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "router not started"
        await self._stopped.wait()

    def shutdown(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
        self._closing = asyncio.get_running_loop().create_task(self._close_clients())

    async def _close_clients(self) -> None:
        """Close every client and shard connection before the loop stops."""
        await protocol.close_writers(
            *self._writers, *(w for state in self._conns for w in state.drop_backends()))
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Liveness and backend transport
    # ------------------------------------------------------------------

    def _is_live(self, shard: str) -> bool:
        if shard not in self.shard_map:
            return False
        return asyncio.get_running_loop().time() >= self._dead_until.get(shard, 0.0)

    def _mark_dead(self, shard: str) -> None:
        self._dead_until[shard] = asyncio.get_running_loop().time() + DEAD_COOLDOWN
        self._shard_failures.inc()

    async def _backend(self, state: _ConnState, shard: str):
        pair = state.backends.get(shard)
        if pair is not None:
            return pair
        spec = self.shard_map.get(shard)
        if spec is None:
            raise _ShardDown(shard, "not in the shard map")
        try:
            pair = await asyncio.wait_for(
                asyncio.open_connection(spec.host, spec.port),
                timeout=CONNECT_TIMEOUT,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self._mark_dead(shard)
            raise _ShardDown(shard, str(exc) or type(exc).__name__) from exc
        state.backends[shard] = pair
        return pair

    async def _backend_request(self, state: _ConnState, shard: str, frame: bytes) -> dict:
        """One request-reply round trip with ``shard``; _ShardDown on transport loss."""
        reader, writer = await self._backend(state, shard)
        try:
            writer.write(frame)
            await writer.drain()
            reply = await protocol.read_frame_async(reader)
        except (OSError, ProtocolError) as exc:
            self._mark_dead(shard)
            state.drop_shard(shard)
            raise _ShardDown(shard, str(exc) or type(exc).__name__) from exc
        if reply is None:
            self._mark_dead(shard)
            state.drop_shard(shard)
            raise _ShardDown(shard, "connection closed")
        frame_type, payload = reply
        if frame_type != protocol.FRAME_JSON:
            raise ProtocolError(f"shard {shard} reply was not a control frame")
        return protocol.decode_control(payload)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        state = _ConnState()
        self._conns.add(state)
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(reader)
                except ProtocolError as exc:
                    with contextlib.suppress(Exception):
                        writer.write(protocol.encode_control(
                            {"ok": False, "error": str(exc)}))
                        await writer.drain()
                    break
                if frame is None:
                    break
                self._frames.inc()
                started = time.perf_counter()
                frame_type, payload = frame
                with get_tracer().span(
                        "router.frame", cat="fleet",
                        hot_path=frame_type == protocol.FRAME_EVENTS,
                        frame=chr(frame_type)) as sp:
                    reply = await self._dispatch(state, frame_type, payload)
                    sp.set("ok", bool(reply.get("ok")))
                self._latency.observe(time.perf_counter() - started)
                writer.write(protocol.encode_control(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.discard(state)
            self._writers.discard(writer)
            await protocol.close_writers(writer, *state.drop_backends())

    async def _dispatch(self, state: _ConnState, frame_type: int, payload: bytes) -> dict:
        try:
            if frame_type == protocol.FRAME_EVENTS:
                return await self._forward_events(state, payload)
            return await self._on_control(state, protocol.decode_control(payload))
        except _ShardDown as exc:
            return {"ok": False, "error": str(exc), "retriable": True,
                    "shard": exc.shard}
        except (ProtocolError, ServiceError) as exc:
            return {"ok": False, "error": str(exc)}

    async def _on_control(self, state: _ConnState, message: dict) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "router": True,
                    "shards": len(self.shard_map)}
        if op == "open":
            return await self._op_open(state, message)
        if op in ("query", "checkpoint", "close"):
            return await self._forward_by_session(state, op, message)
        if op == "stats":
            return await self._op_stats(state)
        if op == "metrics":
            return await self._op_metrics(state)
        if op == "fleet_status":
            return self._op_fleet_status()
        if op == "fleet_drain":
            return await self._op_fleet_drain(message)
        raise ServiceError(f"unknown control op {op!r}")

    # ------------------------------------------------------------------
    # Session forwarding
    # ------------------------------------------------------------------

    def _candidates(self, session: str) -> list[str]:
        """Shards to try for ``session``: registry owner first, then HRW order."""
        names: list[str] = []
        owner = self.registry.lookup(session)
        if owner is not None and owner["shard"] in self.shard_map:
            names.append(owner["shard"])
        for spec in self.shard_map.ranked(session):
            if spec.name not in names:
                names.append(spec.name)
        return names

    async def _op_open(self, state: _ConnState, message: dict) -> dict:
        session = validate_session_name(message.get("session"))
        frame = protocol.encode_control(message)
        candidates = self._candidates(session)
        last: _ShardDown | None = None
        for rank, shard in enumerate(candidates):
            if not self._is_live(shard):
                continue
            try:
                reply = await self._backend_request(state, shard, frame)
            except _ShardDown as exc:
                last = exc
                continue
            if not reply.get("ok"):
                return reply  # the shard's verdict (bad config, limits, ...)
            backend_id = int(reply["session_id"])
            router_id = state.by_name.get(session)
            if router_id is None:
                router_id = self._next_id
                self._next_id += 1
            state.routes[router_id] = _Route(shard, backend_id, session)
            state.by_name[session] = router_id
            reply["session_id"] = router_id
            reply["shard"] = shard
            if rank > 0:
                self._reroutes.inc()
            self.registry.record(session, shard, int(reply.get("events", 0)))
            return reply
        if last is not None:
            raise last
        raise ServiceError(f"no live shard for session {session!r}")

    async def _forward_events(self, state: _ConnState, payload: bytes) -> dict:
        router_id = protocol.events_session_id(payload)
        route = state.routes.get(router_id)
        if route is None:
            shard = state.lost.pop(router_id, None)
            if shard is not None:
                raise _ShardDown(shard, "shard lost this session; re-open to resume")
            raise ServiceError(f"unknown session id {router_id}")
        frame = protocol.reframe_events(payload, route.backend_id)
        return await self._backend_request(state, route.shard, frame)

    async def _forward_by_session(self, state: _ConnState, op: str, message: dict) -> dict:
        """Route a by-name control op to the shard holding the session."""
        session = validate_session_name(message.get("session"))
        router_id = state.by_name.get(session)
        if router_id is not None:
            shard = state.routes[router_id].shard
        else:
            owner = self.registry.lookup(session)
            if owner is not None and owner["shard"] in self.shard_map:
                shard = owner["shard"]
                if not self._is_live(shard):
                    # Forwarding to a non-owner would just say "unknown
                    # session"; tell the client the truth instead.
                    raise _ShardDown(shard, "owning shard is down; re-open to resume")
            else:
                live = self.shard_map.route(session, live=self._is_live)
                if live is None:
                    raise ServiceError(f"no live shard for session {session!r}")
                shard = live.name
        reply = await self._backend_request(state, shard,
                                           protocol.encode_control(message))
        if reply.get("ok"):
            if op == "close":
                self.registry.remove(session)
                router_id = state.by_name.pop(session, None)
                if router_id is not None:
                    state.routes.pop(router_id, None)
            elif op == "checkpoint":
                self.registry.record(session, shard, int(reply.get("events", 0)))
        return reply

    # ------------------------------------------------------------------
    # Fleet ops
    # ------------------------------------------------------------------

    async def _scrape(self, state: _ConnState) -> dict[str, dict]:
        """Every live shard's ``metrics`` reply, keyed by shard name."""
        replies: dict[str, dict] = {}
        for spec in self.shard_map.shards:
            if not self._is_live(spec.name):
                continue
            try:
                reply = await self._backend_request(
                    state, spec.name, protocol.encode_control({"op": "metrics"}))
            except _ShardDown:
                continue
            if reply.get("ok"):
                replies[spec.name] = reply
        return replies

    async def _scrape_merged(self, state: _ConnState) -> tuple[dict[str, dict], Registry]:
        """Scrape every live shard and merge the snapshots into one registry.

        The registry holds fleet-wide additive totals (counters add,
        histograms add bucket-wise) plus every series relabelled
        ``shard="<name>"``.  Of the gauges an additive merge drops, the
        fleet ``stats`` view needs two: ``service_uptime_seconds`` is the
        oldest shard's and ``service_connections_open`` the sum.
        """
        replies = await self._scrape(state)
        merged = Registry()
        uptime, connections = 0.0, 0
        for name, reply in replies.items():
            snapshot = reply["snapshot"]
            merge_additive_snapshot(merged, snapshot)
            merged.merge_snapshot(labeled_snapshot(snapshot, {"shard": name}))
            uptime = max(uptime, snapshot["service_uptime_seconds"]["value"])
            connections += snapshot["service_connections_open"]["value"]
        merged.gauge("service_uptime_seconds").set(uptime)
        merged.gauge("service_connections_open").set(connections)
        return replies, merged

    async def _op_stats(self, state: _ConnState) -> dict:
        """Fleet totals and per-shard blocks, each a :func:`stats_view`."""
        replies, merged = await self._scrape_merged(state)
        shard_stats: dict[str, dict] = {}
        sessions: dict[str, int] = {}
        for name, reply in replies.items():
            shard_stats[name] = {**stats_view(reply["snapshot"], reply["sessions"]),
                                 "shard": name}
            sessions.update(reply["sessions"])
        fleet = {**stats_view(merged.snapshot(), sessions), "shards": len(replies)}
        return {"ok": True, "op": "stats", "stats": fleet, "shards": shard_stats}

    async def _op_metrics(self, state: _ConnState) -> dict:
        """One merged registry: fleet totals + per-shard labeled series."""
        replies, merged = await self._scrape_merged(state)
        merged.merge_snapshot(self.metrics.snapshot())
        return {"ok": True, "op": "metrics", "shard": None,
                "snapshot": merged.snapshot(),
                "stats": {"shards": sorted(replies)}}

    def _op_fleet_status(self) -> dict:
        supervisor_status = self.supervisor.status() if self.supervisor else {}
        telemetry_status = self.telemetry.status() if self.telemetry else None
        shards = []
        for spec in self.shard_map.shards:
            entry = {"name": spec.name, "host": spec.host, "port": spec.port,
                     "live": spec.name not in self._dead_until
                     or self._dead_until[spec.name] <= asyncio.get_running_loop().time()}
            entry.update(supervisor_status.get(spec.name, {}))
            if telemetry_status is not None:
                entry["scrape_age"] = telemetry_status["scrape_age"].get(spec.name)
                entry["scrape_misses"] = telemetry_status["misses"].get(spec.name, 0)
                entry["alerts"] = [
                    alert for alert in telemetry_status["alerts"]
                    if alert.get("source") == spec.name
                ]
            shards.append(entry)
        reply = {"ok": True, "op": "fleet_status",
                 "router": {"host": self.host, "port": self.port},
                 "shards": shards,
                 "sessions": self.registry.entries()}
        if telemetry_status is not None:
            reply["telemetry"] = telemetry_status
            reply["alerts"] = telemetry_status["alerts"]
        return reply

    async def _op_fleet_drain(self, message: dict) -> dict:
        if self.supervisor is None:
            raise ServiceError("router has no supervisor; drain shards directly")
        if message.get("rolling"):
            with get_tracer().span("fleet.rolling_drain", cat="fleet"):
                replaced = await asyncio.to_thread(self.supervisor.rolling_restart)
            return {"ok": True, "op": "fleet_drain", "rolling": True,
                    "replaced": replaced}

        async def _stop_everything() -> None:
            await asyncio.to_thread(self.supervisor.stop_all)
            self.shutdown()

        # Ack first so the client's reply arrives before its socket dies.
        asyncio.get_running_loop().create_task(_stop_everything())
        return {"ok": True, "op": "fleet_drain", "rolling": False,
                "stopping": len(self.shard_map)}


#: Spec re-exported so router users need only one import.
__all__ = ["FleetRouter", "ShardSpec"]
