"""Fleet load generator: thousands of concurrent streams, one process.

``repro-2dprof fleet loadgen`` drives a router (or a single server — the
wire protocol is identical) with N concurrent *sessions* multiplexed
over a much smaller pool of TCP connections.  The multiplexing is the
point: a thousand sockets on the client side would mean a thousand
accepted connections (each holding up to one backend connection per
shard) on the router side, which blows through a default 1024-fd rlimit;
a bounded pool keeps the file-descriptor budget constant while the
session count scales.  Each connection is strict request-reply, so an
``asyncio.Lock`` per connection is the whole concurrency story.

Every stream sends deterministic synthetic data (seeded per stream), so
``verify_sample`` streams can be checked bit-for-bit against an offline
:class:`~repro.core.profiler2d.TwoDProfiler` over the same arrays — the
same verdict the single-stream ``stream --verify`` path uses.  Streams
that hit a retriable router error (a shard died) re-open with
``resume=True`` and continue from the server-reported offset, which is
exactly the failover contract the fleet promises producers.

Per-request wall times land in one shared list; the result carries
p50/p90/p99/max and an events/s figure (``fleet loadgen --json`` prints
it as ``dataclasses.asdict(result)``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.profiler2d import ProfilerConfig, TwoDProfiler
from repro.errors import ProtocolError, ServiceError
from repro.service import protocol

#: Re-open attempts per stream before it counts as failed.
MAX_RETRIES = 8


@dataclass
class LoadgenResult:
    """One load-generation run's outcome and latency profile."""

    streams: int
    connections: int
    events_per_stream: int
    batch: int
    events_total: int = 0
    wall_seconds: float = 0.0
    events_per_second: float = 0.0
    retries: int = 0
    failed_streams: int = 0
    verified: int = 0
    verify_failures: int = 0
    frame_latency: dict = field(default_factory=dict)


class AsyncStreamClient:
    """One asyncio connection speaking the service protocol, serialized."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncStreamClient":
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise ServiceError(f"cannot connect to {host}:{port}: {exc}") from exc
        return cls(reader, writer)

    async def request(self, frame: bytes) -> dict:
        """One frame out, one JSON reply back (lockstep per connection)."""
        async with self._lock:
            self._writer.write(frame)
            await self._writer.drain()
            reply = await protocol.read_frame_async(self._reader)
        if reply is None:
            raise ServiceError("server closed the connection")
        frame_type, payload = reply
        if frame_type != protocol.FRAME_JSON:
            raise ProtocolError("server reply was not a control frame")
        return protocol.decode_control(payload)

    async def control(self, payload: dict) -> dict:
        return await self.request(protocol.encode_control(payload))

    async def close(self) -> None:
        """Close the connection and wait until its socket is released.

        A peer that already died (a killed shard) fails the wait with a
        connection error; that is how such a connection ends, so it is
        swallowed.  Any other error propagates.
        """
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


def _stream_data(seed: int, index: int, events: int, num_sites: int):
    """Deterministic per-stream event arrays (reproducible for verify)."""
    rng = np.random.default_rng(seed + index)
    sites = rng.integers(0, num_sites, size=events, dtype=np.int64)
    correct = rng.integers(0, 2, size=events, dtype=np.int64)
    return sites, correct


def _offline_report(sites, correct, num_sites: int, config: ProfilerConfig) -> dict:
    profiler = TwoDProfiler(num_sites, config)
    profiler.record_batch(sites, correct)
    return protocol.serialize_report(profiler.finish())


async def _run_stream(
    client: AsyncStreamClient,
    name: str,
    index: int,
    seed: int,
    events: int,
    num_sites: int,
    config: ProfilerConfig,
    batch: int,
    latencies: list,
    result: LoadgenResult,
    verify: bool,
) -> None:
    sites, correct = _stream_data(seed, index, events, num_sites)
    open_msg = {"op": "open", "session": name, "num_sites": num_sites,
                "resume": True, **config.to_dict()}
    attempts = 0
    while True:
        if attempts > MAX_RETRIES:
            raise ServiceError(f"{name}: gave up after {attempts} retries")
        reply = await client.control(open_msg)
        if not reply.get("ok"):
            if reply.get("retriable") and attempts < MAX_RETRIES:
                attempts += 1
                result.retries += 1
                await asyncio.sleep(0.05 * attempts)
                continue
            raise ServiceError(f"{name}: open failed: {reply.get('error')}")
        session_id = int(reply["session_id"])
        pos = int(reply["events"])
        interrupted = False
        while pos < events:
            stop = min(pos + batch, events)
            frame = protocol.encode_events(session_id, sites[pos:stop], correct[pos:stop])
            started = time.perf_counter()
            reply = await client.request(frame)
            latencies.append(time.perf_counter() - started)
            if not reply.get("ok"):
                if reply.get("retriable") and attempts < MAX_RETRIES:
                    # The owning shard died; re-open resumes from the
                    # last checkpoint on whichever shard takes over.
                    attempts += 1
                    result.retries += 1
                    interrupted = True
                    await asyncio.sleep(0.05 * attempts)
                    break
                raise ServiceError(f"{name}: send failed: {reply.get('error')}")
            pos = int(reply["events"])
        if interrupted:
            continue

        async def _finish_op(payload: dict) -> dict | None:
            """One post-stream op; None means the shard died — re-open."""
            reply = await client.control(payload)
            if reply.get("ok"):
                return reply
            if reply.get("retriable"):
                return None
            raise ServiceError(
                f"{name}: {payload['op']} failed: {reply.get('error')}")

        if verify:
            query = await _finish_op({"op": "query", "session": name})
            if query is None:
                attempts += 1
                result.retries += 1
                continue  # owner died post-stream; resume and re-verify
            offline = _offline_report(sites, correct, num_sites, config)
            result.verified += 1
            if query["report"] != offline:
                result.verify_failures += 1
        close = await _finish_op({"op": "close", "session": name})
        if close is None:
            attempts += 1
            result.retries += 1
            continue
        result.events_total += events
        return


async def _run_loadgen(
    host: str,
    port: int,
    streams: int,
    connections: int,
    events: int,
    batch: int,
    num_sites: int,
    seed: int,
    verify_sample: int,
    prefix: str,
) -> LoadgenResult:
    connections = max(1, min(connections, streams))
    result = LoadgenResult(streams=streams, connections=connections,
                           events_per_stream=events, batch=batch)
    config = ProfilerConfig().resolve(total_branches=events)
    pool = [await AsyncStreamClient.connect(host, port) for _ in range(connections)]
    latencies: list = []
    verify_every = streams // verify_sample if verify_sample else 0

    async def _one(index: int) -> bool:
        verify = bool(verify_every) and index % verify_every == 0
        try:
            await _run_stream(
                pool[index % connections], f"{prefix}-{index:05d}", index, seed,
                events, num_sites, config, batch, latencies, result, verify)
            return True
        except (ServiceError, ProtocolError, OSError):
            result.failed_streams += 1
            return False

    started = time.perf_counter()
    try:
        await asyncio.gather(*(_one(i) for i in range(streams)))
    finally:
        await asyncio.gather(*(client.close() for client in pool))
    result.wall_seconds = time.perf_counter() - started
    result.events_per_second = (
        result.events_total / result.wall_seconds if result.wall_seconds else 0.0)
    if latencies:
        arr = np.asarray(latencies)
        result.frame_latency = {
            "count": int(arr.size),
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }
    return result


def run_loadgen(
    host: str,
    port: int,
    streams: int = 1000,
    connections: int = 32,
    events: int = 2000,
    batch: int = 500,
    num_sites: int = 64,
    seed: int = 7,
    verify_sample: int = 10,
    prefix: str = "lg",
) -> LoadgenResult:
    """Blocking entry point: drive ``streams`` sessions and measure."""
    return asyncio.run(_run_loadgen(
        host, port, streams, connections, events, batch, num_sites, seed,
        verify_sample, prefix))
