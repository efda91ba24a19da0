"""Shard-agnostic session registry: which shard last owned a session.

The router writes one tiny JSON file per session recording the shard
that currently holds it and how many events it has absorbed.  On
failover the registry is only a *hint* — the checkpoint directory is the
source of truth for session state — but the hint matters: after a shard
dies, the session's rendezvous-preferred shard may be the dead one, and
the registry lets the router keep a resumed session pinned wherever it
actually landed instead of bouncing it between candidates.

Files are published with :func:`repro.cachefs.atomic_write_bytes`
(tmp + fsync + rename), so a router killed mid-record leaves either the
old entry or the new one, and a corrupt entry reads as absent — the same
corruption-as-miss rule the checkpoint store follows.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

from repro.cachefs import atomic_write_bytes, sweep_tmp_files
from repro.service.checkpoint import validate_session_name

log = logging.getLogger(__name__)

_SUFFIX = ".session.json"


class SessionRegistry:
    """Per-session ownership records under one directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        sweep_tmp_files(self.root)

    def _path(self, session: str) -> Path:
        return self.root / f"{validate_session_name(session)}{_SUFFIX}"

    def record(self, session: str, shard: str, events: int) -> None:
        """Publish ``session``'s current owner and progress."""
        entry = {
            "session": session,
            "shard": shard,
            "events": int(events),
            "updated_at": time.time(),
        }
        atomic_write_bytes(self._path(session), json.dumps(entry).encode("utf-8"))

    def lookup(self, session: str) -> dict | None:
        """The session's last record, or ``None`` if absent/corrupt."""
        path = self._path(session)
        try:
            entry = json.loads(path.read_text("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            log.warning("corrupt session record %s (%s); treating as absent", path, exc)
            return None
        if not isinstance(entry, dict) or "shard" not in entry:
            log.warning("malformed session record %s; treating as absent", path)
            return None
        return entry

    def remove(self, session: str) -> bool:
        """Drop a session's record after a clean close; True if removed."""
        try:
            self._path(session).unlink()
            return True
        except FileNotFoundError:
            return False

    def entries(self) -> dict[str, dict]:
        """All readable session records, keyed by session name."""
        out: dict[str, dict] = {}
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            session = path.name[: -len(_SUFFIX)]
            entry = self.lookup(session)
            if entry is not None:
                out[session] = entry
        return out
