"""Wire protocol of the streaming profiling service.

Every frame is a 5-byte header — one type byte plus a big-endian ``u32``
payload length — followed by the payload:

```
+------+----------------+---------------------------+
| type | payload length |          payload          |
+------+----------------+---------------------------+
  'J'      u32 (BE)       UTF-8 JSON object (control)
  'E'      u32 (BE)       u32 session id, u32 count,
                          count x u32 (site << 1 | correct)
```

Control frames carry JSON objects (open-session, query, checkpoint,
close, stats, and every server reply).  Event frames carry one batch of
branch outcomes for one session, packed two-per-event-bit-cheap: each
``u32`` word is ``site_id * 2 + correct``, the same packing the VM uses
for trace capture.

Decoding is strict: unknown frame types, oversized or truncated payloads,
counts that disagree with the payload length, and non-object JSON all
raise :class:`~repro.errors.ProtocolError`.  The server maps payload-level
errors to an error *reply* (a malformed frame must not kill the server)
and only drops the connection when the header itself is unusable, since a
corrupt header means the byte stream can no longer be re-synchronized.
"""

from __future__ import annotations

import contextlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.profiler2d import TwoDReport
from repro.errors import ProtocolError

#: Control frame: UTF-8 JSON object.
FRAME_JSON = ord("J")

#: Event frame: one packed branch-event batch.
FRAME_EVENTS = ord("E")

_KNOWN_FRAMES = (FRAME_JSON, FRAME_EVENTS)

#: Hard ceiling on one frame's payload; larger announcements are treated
#: as protocol corruption (and bound server memory per connection).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct("!BI")
_EVENTS_HEAD = struct.Struct("!II")

#: Bytes of the fixed frame header.
HEADER_BYTES = _HEADER.size

#: Site ids must fit in 31 bits so ``site * 2 + correct`` fits a u32.
MAX_SITE_ID = 2**31 - 1


@dataclass(frozen=True)
class EventBatch:
    """One decoded event frame: a batch of branch outcomes for a session."""

    session_id: int
    sites: np.ndarray    # int64, shape (n,)
    correct: np.ndarray  # int64 in {0, 1}, shape (n,)

    def __len__(self) -> int:
        return int(self.sites.size)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_control(payload: dict) -> bytes:
    """Frame a JSON control message."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"control frame too large ({len(body)} bytes)")
    return _HEADER.pack(FRAME_JSON, len(body)) + body


def encode_events(session_id: int, sites: np.ndarray, correct: np.ndarray) -> bytes:
    """Frame one branch-event batch for ``session_id``."""
    sites = np.asarray(sites, dtype=np.int64)
    correct = np.asarray(correct, dtype=np.int64)
    if sites.shape != correct.shape or sites.ndim != 1:
        raise ProtocolError("sites and correct must be 1-D and the same length")
    if not 0 <= session_id <= 0xFFFFFFFF:
        raise ProtocolError(f"session id {session_id} out of u32 range")
    if sites.size:
        if int(sites.min()) < 0 or int(sites.max()) > MAX_SITE_ID:
            raise ProtocolError("site id out of range for the wire format")
        if int(correct.min()) < 0 or int(correct.max()) > 1:
            raise ProtocolError("correct flags must be 0 or 1")
    packed = ((sites.astype(np.uint32) << np.uint32(1)) | correct.astype(np.uint32))
    body = _EVENTS_HEAD.pack(session_id, sites.size) + packed.astype(">u4").tobytes()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"event frame too large ({len(body)} bytes)")
    return _HEADER.pack(FRAME_EVENTS, len(body)) + body


def events_session_id(payload: bytes) -> int:
    """The session id of a packed event payload (no full decode)."""
    if len(payload) < _EVENTS_HEAD.size:
        raise ProtocolError(f"truncated event frame ({len(payload)} bytes)")
    session_id, _count = _EVENTS_HEAD.unpack_from(payload)
    return session_id


def reframe_events(payload: bytes, session_id: int) -> bytes:
    """Rewrite a packed event payload's session id and re-frame it.

    The fleet router speaks its own session-id namespace to clients and
    translates to each shard's ids on the way through; only the 8-byte
    head is rewritten — the packed event words are forwarded untouched.
    """
    if len(payload) < _EVENTS_HEAD.size:
        raise ProtocolError(f"truncated event frame ({len(payload)} bytes)")
    if not 0 <= session_id <= 0xFFFFFFFF:
        raise ProtocolError(f"session id {session_id} out of u32 range")
    _old_id, count = _EVENTS_HEAD.unpack_from(payload)
    body = _EVENTS_HEAD.pack(session_id, count) + payload[_EVENTS_HEAD.size:]
    return _HEADER.pack(FRAME_EVENTS, len(body)) + body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def split_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; return (frame type, payload length)."""
    if len(header) != HEADER_BYTES:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    frame_type, length = _HEADER.unpack(header)
    if frame_type not in _KNOWN_FRAMES:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02x}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds limit {MAX_FRAME_BYTES}")
    return frame_type, length


def decode_control(payload: bytes) -> dict:
    """Decode and validate a JSON control payload."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed control frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("control frame must be a JSON object")
    return message


def decode_events(payload: bytes) -> EventBatch:
    """Decode and validate a packed event payload."""
    if len(payload) < _EVENTS_HEAD.size:
        raise ProtocolError(f"truncated event frame ({len(payload)} bytes)")
    session_id, count = _EVENTS_HEAD.unpack_from(payload)
    expected = _EVENTS_HEAD.size + 4 * count
    if len(payload) != expected:
        raise ProtocolError(
            f"event frame length {len(payload)} does not match count {count}"
        )
    packed = np.frombuffer(payload, dtype=">u4", offset=_EVENTS_HEAD.size)
    return EventBatch(
        session_id=session_id,
        sites=(packed >> np.uint32(1)).astype(np.int64),
        correct=(packed & np.uint32(1)).astype(np.int64),
    )


def read_frame_blocking(recv_exact) -> tuple[int, bytes] | None:
    """Read one frame using a ``recv_exact(n) -> bytes | None`` callable.

    Returns ``None`` on a clean EOF *before* a header; a connection that
    dies mid-frame raises :class:`ProtocolError`.
    """
    header = recv_exact(HEADER_BYTES)
    if header is None:
        return None
    frame_type, length = split_header(header)
    payload = recv_exact(length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return frame_type, payload


async def read_frame_async(reader) -> tuple[int, bytes] | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`ProtocolError` for truncation or an invalid header.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    frame_type, length = split_header(header)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return frame_type, payload


async def close_writers(*writers, timeout: float = 5.0) -> None:
    """Close :class:`asyncio.StreamWriter` objects, then wait for their transports.

    Every writer is closed before the first wait, so a task cancelled while
    it waits (its loop shutting down) still leaves each transport closing.
    Waiting lets the transports finish closing before their event loop
    does, which keeps ``-X dev`` runs free of "unclosed transport"
    warnings.  Errors are suppressed: the peer may already be gone.
    """
    import asyncio

    for writer in writers:
        with contextlib.suppress(Exception):
            writer.close()
    for writer in writers:
        with contextlib.suppress(Exception):
            await asyncio.wait_for(writer.wait_closed(), timeout)


# ----------------------------------------------------------------------
# Report serialization (shared by server replies and client verification)
# ----------------------------------------------------------------------


def serialize_report(report: TwoDReport) -> dict:
    """A JSON-safe projection of a :class:`TwoDReport`.

    Python's JSON encoder round-trips float64 exactly (shortest-repr), so
    comparing a decoded reply against ``serialize_report`` of a locally
    computed report is a *bit-level* verdict comparison — the streaming
    tests and ``repro-2dprof stream --verify`` rely on this.
    """
    return {
        "num_sites": report.num_sites,
        "overall_accuracy": report.overall_accuracy,
        "mean_threshold": report.mean_threshold,
        "profiled": sorted(report.profiled_sites()),
        "input_dependent": sorted(report.input_dependent_sites()),
        "verdicts": [asdict(report.verdict(site)) for site in sorted(report.profiled_sites())],
    }
