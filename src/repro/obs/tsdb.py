"""Metric TSDB: an append-only on-disk time series of metric snapshots.

The telemetry scraper (:mod:`repro.obs.telemetry`) polls every fleet
shard's ``metrics`` op plus the in-process router/supervisor registries
and appends each labeled snapshot here; ``repro-2dprof top``, the SLO
rule evaluator, and CI read it back.  One :class:`MetricTSDB` is a
directory of JSONL *segments*::

    <root>/meta.json            writer parameters (scrape interval, ...)
    <root>/seg-00000001.jsonl   one JSON object per line: a Sample
    <root>/seg-00000002.jsonl   ...

Durability follows the cache/warehouse idioms (:mod:`repro.cachefs`):

* every appended line is complete-or-absent — the writer flushes whole
  lines, and a reader treats a torn or unparsable trailing line as a
  miss (a SIGKILLed writer loses at most the sample it was writing);
* ``meta.json`` goes through atomic publication (write-tmp + rename),
  so no reader ever sees a half file;
* segments rotate at a size bound, and each rotation unlinks every
  closed segment whose newest sample is older than the retention window
  (retention is whole-segment: a segment lives until its last sample
  expires).

Samples are *flattened* snapshots: counters and gauges become scalar
series keyed ``name`` or ``name{label="v",...}``; histograms keep their
cumulative bucket counts so window queries can diff two cumulative
states and merge the deltas **bucket-wise across sources** before
estimating percentiles (per-shard percentiles cannot be averaged — the
same rule the fleet router's ``stats`` op follows).

Query API (all windows look back from ``now``):

* :meth:`latest`        — the newest point of one series;
* :meth:`rate` / :meth:`delta` — counter increase per second / total,
  reset-aware (a restarted shard's counter dropping to zero counts as a
  restart, not a negative rate);
* :meth:`histogram_quantile` — percentile of the merged histogram delta
  over a window (NaN when the window holds no observations);
* :meth:`sources`       — last-sample timestamp per scrape source, the
  basis of scrape-miss ("shard down") alerting and dashboard liveness.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.obs.metrics import bucket_percentile

__all__ = ["MetricTSDB", "Sample", "flatten_snapshot"]

#: Rotate the active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 << 20

#: A closed segment whose newest sample is this much older than the
#: newest append is unlinked at the next rotation.
DEFAULT_RETENTION_SECONDS = 24 * 3600.0

#: Keep this many seconds of appended samples in the in-memory tail
#: buffer, so window queries on the writing instance skip the disk scan.
#: Kept: 4-source SLO tick, 10 min of data, 2-vCPU Xeon: 0.4 ms from it, 220 ms from disk.
DEFAULT_TAIL_SECONDS = 600.0

_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".jsonl"


@dataclass(frozen=True)
class Sample:
    """One scrape of one source: flattened scalars + histogram states."""

    ts: float
    source: str
    scalars: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def to_line(self) -> str:
        record = {"ts": self.ts, "src": self.source, "m": self.scalars}
        if self.histograms:
            record["h"] = self.histograms
        return json.dumps(record, separators=(",", ":"))

    @classmethod
    def from_record(cls, record: dict) -> "Sample":
        return cls(
            ts=float(record["ts"]),
            source=str(record["src"]),
            scalars=record.get("m", {}),
            histograms=record.get("h", {}),
        )


def _series_key(name: str, label_str: str) -> str:
    return f"{name}{{{label_str}}}" if label_str else name


def flatten_snapshot(snapshot: dict) -> tuple[dict, dict]:
    """Split a :meth:`Registry.snapshot` into scalar and histogram series.

    Returns ``(scalars, histograms)`` keyed by series name (labels baked
    into the key, Prometheus style).  Histogram entries keep the fields a
    window query needs: cumulative ``counts`` per bucket (+Inf last),
    ``sum``, ``count``, and the bucket bounds.
    """
    scalars: dict = {}
    histograms: dict = {}

    def _emit(name: str, label_str: str, entry: dict) -> None:
        key = _series_key(name, label_str)
        kind = entry.get("type", "counter")
        if kind == "histogram":
            if entry.get("raw_counts") is not None:
                histograms[key] = {
                    "sum": entry.get("sum", 0.0),
                    "count": entry.get("count", 0),
                    "counts": list(entry["raw_counts"]),
                    "buckets": list(entry.get("buckets", [])),
                }
        elif "value" in entry:
            scalars[key] = entry["value"]
        for child_labels, child in entry.get("labels", {}).items():
            _emit(name, child_labels, {"type": kind, **child})

    for name, entry in snapshot.items():
        _emit(name, "", entry)
    return scalars, histograms


def _histogram_delta(first: dict, last: dict) -> dict | None:
    """The observations made between two cumulative histogram states.

    A count regression means the source restarted; the later state *is*
    the delta then (everything it holds happened after the restart).
    """
    if first.get("buckets") != last.get("buckets"):
        return None
    if last.get("count", 0) < first.get("count", 0):
        return dict(last)
    counts = [
        max(0, b - a)
        for a, b in zip(first.get("counts", []), last.get("counts", []))
    ]
    return {
        "sum": last.get("sum", 0.0) - first.get("sum", 0.0),
        "count": last.get("count", 0) - first.get("count", 0),
        "counts": counts,
        "buckets": list(last.get("buckets", [])),
    }


def _merge_histograms(deltas: list) -> dict | None:
    """Bucket-wise sum of same-shaped histogram deltas."""
    merged: dict | None = None
    for delta in deltas:
        if delta is None:
            continue
        if merged is None:
            merged = {
                "sum": 0.0, "count": 0,
                "counts": [0] * len(delta["counts"]),
                "buckets": list(delta["buckets"]),
            }
        if delta["buckets"] != merged["buckets"]:
            continue  # incompatible shape; skip rather than corrupt
        merged["sum"] += delta.get("sum", 0.0)
        merged["count"] += delta.get("count", 0)
        merged["counts"] = [
            a + b for a, b in zip(merged["counts"], delta["counts"])
        ]
    return merged


def _increase(points: list) -> float:
    """Reset-aware total increase of a counter series (Prometheus-style)."""
    total = 0.0
    for (_, prev), (_, value) in zip(points, points[1:]):
        total += value if value < prev else value - prev
    return total


class MetricTSDB:
    """Append-only JSONL time-series store with window queries."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = None
        indices = [self._segment_index(p) for p in self._segment_paths()]
        self._index = max(indices, default=0) or 1
        # Recent samples appended *through this instance*, so the per-tick
        # window queries (rules, scrapers) never re-parse the whole store.
        # ``_tail_floor`` is the timestamp at/below which the buffer may be
        # incomplete; the buffer is authoritative strictly above it.  The
        # floor starts at the max of wall clock and every timestamp already
        # on disk (a prior writer may have appended future/synthetic ts),
        # and pruning raises it.  Single writer per store assumed (the
        # scraper owns it); read-only instances keep an empty buffer and
        # therefore never take the fast path — every query they make
        # falls through to the disk scan, where the writer's flushed
        # lines are visible.
        self._tail: deque = deque()
        # Newest sample timestamp of each segment file, learned here and
        # kept current by append_flat, so expiry at rotation reads no file.
        self._newest: dict[Path, float] = {}
        for path in self._segment_paths():
            try:
                text = path.read_text("utf-8")
            except OSError:
                continue
            samples = filter(None, map(self._parse_line, text.splitlines()))
            self._newest[path] = max((s.ts for s in samples), default=-math.inf)
        self._tail_floor = max([time.time(), *self._newest.values()])

    # -- layout ---------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self.root.glob(f"{_SEG_PREFIX}*{_SEG_SUFFIX}"))

    @staticmethod
    def _segment_index(path: Path) -> int:
        try:
            return int(path.name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)])
        except ValueError:
            return 0

    def _segment_path(self, index: int) -> Path:
        return self.root / f"{_SEG_PREFIX}{index:08d}{_SEG_SUFFIX}"

    # -- meta -----------------------------------------------------------

    def set_meta(self, **fields) -> None:
        """Merge ``fields`` into ``meta.json`` (atomic publication)."""
        from repro.cachefs import atomic_write_bytes

        meta = {**self.meta(), **fields}
        atomic_write_bytes(
            self.root / "meta.json",
            (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
        )

    def meta(self) -> dict:
        try:
            meta = json.loads((self.root / "meta.json").read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        return meta if isinstance(meta, dict) else {}

    # -- writing --------------------------------------------------------

    def append(self, source: str, snapshot: dict, ts: float | None = None) -> Sample:
        """Flatten a registry snapshot and append it as one sample."""
        scalars, histograms = flatten_snapshot(snapshot)
        return self.append_flat(source, scalars, histograms, ts=ts)

    def append_flat(
        self,
        source: str,
        scalars: dict,
        histograms: dict | None = None,
        ts: float | None = None,
    ) -> Sample:
        """Append one pre-flattened sample (whole line, flushed)."""
        sample = Sample(
            ts=time.time() if ts is None else ts,
            source=source,
            scalars=scalars,
            histograms=histograms or {},
        )
        line = sample.to_line() + "\n"
        with self._lock:
            fh = self._writer()
            fh.write(line)
            fh.flush()
            path = self._segment_path(self._index)
            self._newest[path] = max(self._newest.get(path, -math.inf), sample.ts)
            if fh.tell() >= DEFAULT_SEGMENT_BYTES:
                fh.close()
                self._fh = None
                self._index += 1
                self._expire(sample.ts - DEFAULT_RETENTION_SECONDS)
            self._tail.append(sample)
            cutoff = sample.ts - DEFAULT_TAIL_SECONDS
            while self._tail and self._tail[0].ts < cutoff:
                pruned = self._tail.popleft()
                if pruned.ts > self._tail_floor:
                    self._tail_floor = pruned.ts
        return sample

    def _expire(self, cutoff: float) -> None:
        """Unlink every closed segment whose newest sample is before ``cutoff``."""
        for path, newest in list(self._newest.items()):
            if newest < cutoff:
                with _suppress_oserror():
                    path.unlink()
                del self._newest[path]

    def _writer(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self._segment_path(self._index), "a", encoding="utf-8")
        return self._fh

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "MetricTSDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading --------------------------------------------------------

    def samples(
        self,
        start: float | None = None,
        end: float | None = None,
        source: str | None = None,
    ) -> Iterator[Sample]:
        """Every readable sample in ``[start, end]``, oldest first.

        Unparsable lines (torn tails from a killed writer, stray bytes)
        are skipped — corruption is a miss, never an error.

        Windows that begin after ``_tail_floor`` are served from the
        in-memory tail buffer (everything in that range was appended
        through this instance), so the per-tick SLO/dashboard queries on
        the writing process never re-read the segment files.  The fast
        path only applies once this instance has actually appended — a
        read-only instance (e.g. a live ``top`` watching another
        process's store) has an empty buffer and must always scan disk,
        where the writer's flushed lines keep appearing.
        """
        if start is not None and start > self._tail_floor and self._tail:
            with self._lock:
                tail = list(self._tail)
            for sample in tail:
                if sample.ts < start:
                    continue
                if end is not None and sample.ts > end:
                    continue
                if source is not None and sample.source != source:
                    continue
                yield sample
            return
        for path in self._segment_paths():
            try:
                text = path.read_text("utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                sample = self._parse_line(line)
                if sample is None:
                    continue
                if start is not None and sample.ts < start:
                    continue
                if end is not None and sample.ts > end:
                    continue
                if source is not None and sample.source != source:
                    continue
                yield sample

    @staticmethod
    def _parse_line(line: str) -> Sample | None:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                return None
            return Sample.from_record(record)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def sources(self, window: float | None = None, now: float | None = None) -> dict:
        """Last-sample timestamp per source (optionally within a window)."""
        now = time.time() if now is None else now
        start = None if window is None else now - window
        last: dict = {}
        for sample in self.samples(start=start):
            if sample.ts >= last.get(sample.source, -math.inf):
                last[sample.source] = sample.ts
        return last

    def latest(self, name: str, source: str | None = None) -> tuple | None:
        """The newest ``(ts, value)`` of one scalar series, or ``None``."""
        best: tuple | None = None
        for sample in self.samples(source=source):
            if name in sample.scalars and (best is None or sample.ts >= best[0]):
                best = (sample.ts, sample.scalars[name])
        return best

    def latest_sample(self, source: str) -> Sample | None:
        """The newest sample of one source, or ``None``."""
        best: Sample | None = None
        for sample in self.samples(source=source):
            if best is None or sample.ts >= best.ts:
                best = sample
        return best

    # -- window math ----------------------------------------------------

    def _window_points(
        self, name: str, window: float, now: float | None, source: str | None
    ) -> dict:
        """Per-source ordered points of ``name`` within the window."""
        now = time.time() if now is None else now
        by_source: dict = {}
        for sample in self.samples(start=now - window, end=now, source=source):
            if name in sample.scalars:
                by_source.setdefault(sample.source, []).append(
                    (sample.ts, sample.scalars[name]))
        for points in by_source.values():
            points.sort(key=lambda p: p[0])
        return by_source

    def delta(
        self,
        name: str,
        window: float,
        now: float | None = None,
        source: str | None = None,
    ) -> float:
        """Total reset-aware counter increase over the window (all sources)."""
        by_source = self._window_points(name, window, now, source)
        return sum(_increase(points) for points in by_source.values())

    def rate(
        self,
        name: str,
        window: float,
        now: float | None = None,
        source: str | None = None,
    ) -> float:
        """Per-second counter increase over the window."""
        if window <= 0:
            raise ValueError("rate() needs a positive window")
        return self.delta(name, window, now=now, source=source) / window

    def histogram_quantile(
        self,
        name: str,
        q: float,
        window: float,
        now: float | None = None,
        sources: list | None = None,
    ) -> float:
        """Quantile of the merged histogram increase over the window.

        For each source the first and last cumulative states in the
        window are diffed; the per-source deltas merge bucket-wise and
        the quantile is interpolated inside the containing bucket.  NaN
        when no source observed anything in the window.
        """
        now = time.time() if now is None else now
        first_last: dict = {}
        for sample in self.samples(start=now - window, end=now):
            if sources is not None and sample.source not in sources:
                continue
            state = sample.histograms.get(name)
            if state is None:
                continue
            entry = first_last.setdefault(sample.source, [sample.ts, state, sample.ts, state])
            if sample.ts <= entry[0]:
                entry[0], entry[1] = sample.ts, state
            if sample.ts >= entry[2]:
                entry[2], entry[3] = sample.ts, state
        deltas = []
        for _t0, first, _t1, last in first_last.values():
            if first is last:
                continue  # one point has no window delta (cumulative state)
            deltas.append(_histogram_delta(first, last))
        merged = _merge_histograms(deltas)
        if merged is None:
            return math.nan
        # A window delta has no observed min/max, so the default clamps
        # apply: 0 and the last finite bound.
        return bucket_percentile(merged["buckets"], merged["counts"], q)

    def stats(self) -> dict:
        paths = self._segment_paths()
        size = 0
        for path in paths:
            with _suppress_oserror():
                size += path.stat().st_size
        return {"segments": len(paths), "bytes": size}


def _suppress_oserror():
    import contextlib

    return contextlib.suppress(OSError)


#: Convenience alias used by the scraper: a callable returning a snapshot.
SnapshotFn = Callable[[], dict]
