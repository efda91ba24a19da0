"""Blocking client for the streaming profiling service.

:class:`StreamingClient` speaks the request-reply protocol of
:mod:`repro.service.protocol` over a plain TCP socket — every frame it
sends is acknowledged before the next goes out, which is the client half
of the service's backpressure contract.

:func:`stream_simulation` is the canonical producer: it replays a
captured trace's prediction-correctness stream (one ``(site, correct)``
event per dynamic branch, exactly what a Pin-style tool would emit live)
into a session in batches, optionally checkpointing along the way and
resuming from whatever offset the server reports.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.profiler2d import ProfilerConfig
from repro.errors import ProtocolError, ServiceError
from repro.service import protocol

#: Default events per wire batch used by the CLI and tests.
DEFAULT_BATCH = 8192


class StreamingClient:
    """One connection to a :class:`~repro.service.server.ProfilingServer`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServiceError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._session_ids: dict[str, int] = {}

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "StreamingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- transport ------------------------------------------------------

    def _recv_exact(self, n: int) -> bytes | None:
        if n == 0:
            return b""
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                if remaining == n:
                    return None  # clean EOF at a frame boundary
                raise ProtocolError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _request(self, frame: bytes) -> dict:
        """Send one frame and read its JSON reply (request-reply lockstep)."""
        self._sock.sendall(frame)
        reply = protocol.read_frame_blocking(self._recv_exact)
        if reply is None:
            raise ServiceError("server closed the connection")
        frame_type, payload = reply
        if frame_type != protocol.FRAME_JSON:
            raise ProtocolError("server reply was not a control frame")
        return protocol.decode_control(payload)

    @staticmethod
    def _checked(reply: dict) -> dict:
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "server rejected the request"))
        return reply

    # -- operations -----------------------------------------------------

    def ping(self) -> dict:
        return self._checked(self._request(protocol.encode_control({"op": "ping"})))

    def open_session(
        self,
        name: str,
        num_sites: int,
        config: ProfilerConfig,
        resume: bool = False,
        meta: dict | None = None,
    ) -> dict:
        """Open (or reattach/resume) a session; reply carries the offset.

        ``reply["events"]`` is the number of events already folded into
        the server-side profiler — the index this client must continue
        streaming from for an exact, gap-free stream.  The frame carries
        ``config.to_dict()`` (``config`` needs an explicit slice_size); a
        reattach or resume under a different config is refused.  ``meta``
        tags the session for warehouse ingestion on close (workload, input,
        predictor, scale).
        """
        message = {"op": "open", "session": name, "num_sites": num_sites,
                   "resume": resume, **config.to_dict()}
        if meta:
            message["meta"] = meta
        reply = self._checked(self._request(protocol.encode_control(message)))
        self._session_ids[name] = int(reply["session_id"])
        return reply

    def send_events(self, name: str, sites: np.ndarray, correct: np.ndarray) -> int:
        """Stream one acknowledged batch; returns the server's event count."""
        session_id = self._session_ids.get(name)
        if session_id is None:
            raise ServiceError(f"session {name!r} was not opened on this client")
        reply = self._checked(
            self._request(protocol.encode_events(session_id, sites, correct))
        )
        return int(reply["events"])

    def query(self, name: str) -> dict:
        """Live report for a session (does not disturb the stream)."""
        return self._checked(
            self._request(protocol.encode_control({"op": "query", "session": name}))
        )

    def checkpoint(self, name: str) -> dict:
        return self._checked(
            self._request(protocol.encode_control({"op": "checkpoint", "session": name}))
        )

    def close_session(self, name: str) -> dict:
        reply = self._checked(
            self._request(protocol.encode_control({"op": "close", "session": name}))
        )
        self._session_ids.pop(name, None)
        return reply

    def stats(self) -> dict:
        """The service's metrics snapshot (the ``/metrics`` equivalent)."""
        return self._checked(self._request(protocol.encode_control({"op": "stats"})))["stats"]

    def metrics(self) -> dict:
        """The ``metrics`` reply: the registry ``snapshot`` and ``sessions``,
        the events each live session has received."""
        return self._checked(self._request(protocol.encode_control({"op": "metrics"})))

    def control(self, payload: dict) -> dict:
        """Send one raw control op and return its checked reply.

        Used for router-only ops (``fleet_status``, ``fleet_drain``) that
        a plain shard would reject.
        """
        return self._checked(self._request(protocol.encode_control(payload)))


@dataclass
class StreamOutcome:
    """What one :func:`stream_simulation` call did."""

    session: str
    events_sent: int       # events this call actually transmitted
    events_total: int      # server-side event count afterwards
    resumed_from: int      # offset the server reported at open
    completed: bool        # False when stop_after cut the stream short


def stream_simulation(
    client: StreamingClient,
    session: str,
    sites: np.ndarray,
    correct: np.ndarray,
    config: ProfilerConfig,
    batch_size: int = DEFAULT_BATCH,
    resume: bool = False,
    checkpoint_every: int = 0,
    stop_after: Optional[int] = None,
    num_sites: Optional[int] = None,
    meta: Optional[dict] = None,
) -> StreamOutcome:
    """Replay a correctness stream into a server session.

    ``sites``/``correct`` are the full run's event stream; the function
    opens (or resumes) ``session`` and streams from the server-reported
    offset in ``batch_size`` chunks.  ``checkpoint_every`` requests a
    server-side checkpoint every N batches; ``stop_after`` stops once at
    least that many *new* events went out (then checkpoints), simulating
    an interrupted producer.
    """
    if num_sites is None:
        num_sites = int(sites.max()) + 1 if len(sites) else 1
    if batch_size <= 0:
        raise ServiceError("batch_size must be positive")
    total = len(sites)
    reply = client.open_session(session, num_sites, config, resume=resume, meta=meta)
    start = int(reply["events"])
    if start > total:
        raise ServiceError(
            f"server already has {start} events for {session!r}, "
            f"more than this run's {total}"
        )
    sent = 0
    batches = 0
    pos = start
    while pos < total:
        if stop_after is not None and sent >= stop_after:
            client.checkpoint(session)
            return StreamOutcome(session, sent, pos, start, completed=False)
        stop = min(pos + batch_size, total)
        client.send_events(session, sites[pos:stop], correct[pos:stop])
        sent += stop - pos
        pos = stop
        batches += 1
        if checkpoint_every and batches % checkpoint_every == 0:
            client.checkpoint(session)
    return StreamOutcome(session, sent, pos, start, completed=True)
