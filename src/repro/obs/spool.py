"""Process-safe span/metric aggregation for the parallel engine.

ProcessPool workers cannot append to the parent's in-memory ring buffer,
so each worker *task* captures its own spans and metric deltas and spools
them to a per-task JSONL file, published with the same atomic-rename
primitive the artifact cache uses (:func:`repro.cachefs.atomic_write_bytes`)
— a worker killed mid-spool leaves only a ``*.tmp`` file that the merge
ignores.  After the pool drains, the parent folds every spool file into
its own tracer and registry, yielding one coherent trace with one Perfetto
track per worker pid.

Line format (one JSON object per line)::

    {"kind": "span",    "event": {<chrome trace event>}}
    {"kind": "metrics", "snapshot": {<Registry.snapshot()>}}
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import shutil
from pathlib import Path
from typing import Iterator

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing

log = logging.getLogger(__name__)

_task_seq = itertools.count()


@contextlib.contextmanager
def worker_capture(spool_dir: str | Path) -> Iterator[None]:
    """Capture one worker task's spans + metric deltas into the spool.

    Inside the block the process-wide tracer is enabled (buffer cleared)
    and the process-wide registry is swapped for a fresh one, so the
    spooled snapshot holds exactly this task's deltas even when the pool
    reuses a worker across tasks.
    """
    from repro.cachefs import atomic_write_bytes

    tracer = obs_tracing.get_tracer()
    was_enabled = tracer.enabled
    tracer.clear()
    tracer.configure(enabled=True)
    registry = obs_metrics.Registry()
    previous_registry = obs_metrics.set_registry(registry)
    try:
        yield
    finally:
        events = tracer.drain()
        tracer.configure(enabled=was_enabled)
        obs_metrics.set_registry(previous_registry)
        lines = [json.dumps({"kind": "span", "event": event}) for event in events]
        lines.append(json.dumps({"kind": "metrics", "snapshot": registry.snapshot()}))
        path = Path(spool_dir) / f"w{os.getpid()}-{next(_task_seq)}.jsonl"
        try:
            atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
        except OSError as exc:  # pragma: no cover - spool loss must not fail work
            log.warning("could not spool observability data to %s: %s", path, exc)


def merge_spool(
    spool_dir: str | Path,
    tracer: obs_tracing.Tracer | None = None,
    registry: obs_metrics.Registry | None = None,
) -> int:
    """Fold every spool file under ``spool_dir`` into tracer + registry.

    Returns the number of spool files merged.  Unreadable files or lines
    (a worker killed mid-write never publishes, but disks happen) are
    skipped with a warning — observability must never fail the run.
    """
    tracer = tracer or obs_tracing.get_tracer()
    registry = registry or obs_metrics.get_registry()
    spool_dir = Path(spool_dir)
    merged = 0
    for path in sorted(spool_dir.glob("w*.jsonl")):
        try:
            text = path.read_text()
        except OSError as exc:
            log.warning("unreadable spool file %s: %s", path, exc)
            continue
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                log.warning("corrupt spool line in %s: %s", path, exc)
                continue
            if record.get("kind") == "span":
                tracer.add_chrome_events([record["event"]])
            elif record.get("kind") == "metrics":
                registry.merge_snapshot(record.get("snapshot", {}))
        merged += 1
    return merged


def remove_spool(spool_dir: str | Path) -> None:
    """Best-effort removal of a spool directory after merging."""
    with contextlib.suppress(OSError):
        shutil.rmtree(spool_dir)
