"""Structured JSON-lines logging with span correlation.

Every service/fleet process can emit one JSON object per line — machine
readable, greppable, and mergeable across processes because each record
carries ``ts``/``pid``/``logger`` and, when emitted inside an open
tracing span, the span's ``trace_id``/``span_id``.  That correlation is
the bridge between the three observability planes: find a slow span in a
flight-recorder trace, grep the logs for its ``trace_id``, check the
metric window around its ``ts`` in the TSDB.

Producers call :func:`log_event` instead of bare ``logger.info`` so the
event name and fields stay structured end to end::

    log_event(log, "session_evicted", session="abc", idle_s=31.2)

Consumers use :func:`read_logs` (which backs ``repro-2dprof logs``) —
it tolerates torn tail lines and interleaved non-JSON output, skipping
anything unparsable, the same corruption-as-miss stance the TSDB takes.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.obs.tracing import current_ids

#: ``extra=`` keys :class:`JsonLineFormatter` lifts into the record.
_EVENT_ATTR = "structured_event"
_FIELDS_ATTR = "structured_fields"

_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
           "warning": logging.WARNING, "error": logging.ERROR,
           "critical": logging.CRITICAL}


class JsonLineFormatter(logging.Formatter):
    """Formats each record as one compact JSON object."""

    def format(self, record: logging.LogRecord) -> str:
        doc = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "pid": record.process,
            "msg": record.getMessage(),
        }
        event = getattr(record, _EVENT_ATTR, None)
        if event is not None:
            doc["event"] = event
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            doc.update(fields)
        trace_id, span_id = current_ids()
        if trace_id is not None:
            doc["trace_id"] = trace_id
            doc["span_id"] = span_id
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(doc, separators=(",", ":"), default=str)


def log_event(logger: logging.Logger, event: str,
              level: int = logging.INFO, **fields) -> None:
    """Emit one structured event record through ``logger``.

    Scalars only in ``fields``; anything non-JSON-serializable is
    stringified by the formatter rather than dropped.
    """
    if logger.isEnabledFor(level):
        logger.log(level, event,
                   extra={_EVENT_ATTR: event, _FIELDS_ATTR: fields})


_configure_lock = threading.Lock()


def configure_logging(path: str | Path) -> logging.Handler:
    """Install a JSON-lines handler on the ``repro`` logger tree.

    Records append to ``path``, used verbatim; fleet callers pass
    ``logs/<shard>.jsonl`` so processes never share a file handle.
    Reconfiguring replaces the previous JSON handler instead of stacking
    duplicates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handler = logging.FileHandler(path, encoding="utf-8")
    handler.setFormatter(JsonLineFormatter())
    logger = logging.getLogger("repro")
    with _configure_lock:
        for old in list(logger.handlers):
            if isinstance(old.formatter, JsonLineFormatter):
                logger.removeHandler(old)
                old.close()
        logger.addHandler(handler)
        if logger.level == logging.NOTSET or logger.level > logging.INFO:
            logger.setLevel(logging.INFO)
    return handler


# -- querying ------------------------------------------------------------

#: Suffix multipliers for relative ``--since`` durations.
_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_since(text: str, now: float | None = None) -> float:
    """An absolute epoch timestamp from ``--since`` input.

    Accepts either an epoch-seconds float (``1717171717.5`` — the only
    form the flag used to take) or a relative duration ``<number><unit>``
    with unit ``s``/``m``/``h``/``d`` (``5m``, ``2h``, ``90s``, ``1.5h``),
    meaning "that long before ``now``".
    """
    text = text.strip()
    if not text:
        raise ValueError("empty duration")
    unit = _DURATION_UNITS.get(text[-1].lower())
    if unit is None:
        return float(text)
    magnitude = float(text[:-1])
    if magnitude < 0:
        raise ValueError(f"negative duration: {text!r}")
    now = time.time() if now is None else now
    return now - magnitude * unit


def _log_files(root: str | Path) -> list[Path]:
    root = Path(root)
    if root.is_file():
        return [root]
    if not root.is_dir():
        return []
    return sorted(root.glob("*.jsonl"))


def read_logs(
    root: str | Path,
    event: str | None = None,
    level: str | None = None,
    trace_id: str | None = None,
    since: float | None = None,
    grep: str | None = None,
) -> Iterator[dict]:
    """Yield matching records from a log file or directory, oldest first.

    Records from multiple files are merged by timestamp.  Unparsable
    lines (torn tails, stray stderr noise) are skipped silently.
    """
    min_level = _LEVELS.get(level.lower()) if level else None
    records: list[tuple[float, dict]] = []
    for path in _log_files(root):
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or not line.startswith("{"):
                        continue
                    try:
                        doc = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(doc, dict):
                        continue
                    ts = doc.get("ts")
                    if not isinstance(ts, (int, float)):
                        continue
                    if since is not None and ts < since:
                        continue
                    if event is not None and doc.get("event") != event:
                        continue
                    if trace_id is not None and doc.get("trace_id") != trace_id:
                        continue
                    if min_level is not None and \
                            _LEVELS.get(str(doc.get("level")), 0) < min_level:
                        continue
                    if grep is not None and grep not in line:
                        continue
                    records.append((ts, doc))
        except OSError:
            continue
    records.sort(key=lambda pair: pair[0])
    for _ts, doc in records:
        yield doc


def format_record(doc: dict) -> str:
    """One human-readable line for a structured record."""
    ts = time.strftime("%H:%M:%S", time.localtime(doc.get("ts", 0)))
    frac = f"{doc.get('ts', 0) % 1:.3f}"[1:]
    level = str(doc.get("level", "info")).upper()[:5]
    head = f"{ts}{frac} {level:5s} {doc.get('logger', '-')}"
    body = doc.get("event") or doc.get("msg", "")
    skip = {"ts", "level", "logger", "pid", "msg", "event", "exc"}
    fields = " ".join(f"{k}={doc[k]}" for k in doc if k not in skip)
    line = f"{head} {body}"
    if fields:
        line += f" {fields}"
    if "exc" in doc:
        line += f"\n{doc['exc']}"
    return line


def process_log_path(log_dir: str | Path, name: str | None = None) -> Path:
    """A per-process log file under ``log_dir`` (no shared handles)."""
    stem = name or f"pid{os.getpid()}"
    return Path(log_dir) / f"{stem}.jsonl"
