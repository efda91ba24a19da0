"""Metrics registry: named counters, gauges, and histograms.

A :class:`Registry` owns a flat namespace of metrics.  Each metric is
directly usable (``registry.counter("cache_hits_total").inc()``) and can
also fan out into labeled children (``.labels(kind="trace")``), mirroring
the Prometheus data model.  Two export forms are supported:

* :meth:`Registry.snapshot` — a JSON-safe dict, the payload behind
  ``--metrics-json`` and the service ``stats`` frame;
* :meth:`Registry.render_prometheus` — the Prometheus text exposition
  format, for anything that wants to scrape.

Registries merge: :meth:`Registry.merge_snapshot` folds a snapshot taken
in another process into this one (counters add, gauges take the incoming
value, histograms add bucket-wise), which is how worker-process metrics
reach the parent (see :mod:`repro.obs.spool`).

All mutation is guarded by one registry-wide lock, so a registry can be
shared by the asyncio event loop, worker threads, and signal-handler-ish
paths without torn updates.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

#: Default histogram buckets, in seconds (latency-shaped: 100 us .. 60 s).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Count-shaped buckets (1 .. 1000) for histograms over discrete sizes —
#: bisection steps, candidate-set sizes — where latency buckets would put
#: every sample in +Inf.
COUNT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _label_str(key: tuple) -> str:
    return ",".join(f'{k}="{v}"' for k, v in key)


def _escape_label_value(value) -> str:
    """Escape a label value for the Prometheus text exposition format.

    Backslash, double-quote, and newline are the three characters the
    format defines escapes for.  Snapshot keys stay *unescaped* (they
    round-trip through merge/labeled_snapshot as plain strings); only the
    rendered exposition applies this.
    """
    return (str(value)
            .replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n"))


def _prom_label_str(key: tuple) -> str:
    return ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)


def _escape_help(text: str) -> str:
    """Escape a HELP line (backslash and newline only, per the format)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


class _Metric:
    """Shared machinery: identity, help text, and labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._children: dict[tuple, _Metric] = {}

    def labels(self, **labels) -> "_Metric":
        """The child metric for one label combination (created on demand)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> "_Metric":
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, help, lock)
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def total(self) -> int | float:
        """Own value plus every labeled child's."""
        with self._lock:
            return self._value + sum(c._value for c in self._children.values())

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help, self._lock)


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, help, lock)
        self._value = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        return self._value

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help, self._lock)


class Histogram(_Metric):
    """Bucketed distribution with Prometheus ``le`` semantics.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    tail.  Percentiles are estimated by linear interpolation inside the
    containing bucket, clamped to the observed min/max so estimates never
    leave the data's range.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(name, help, lock)
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self.count == 0:
                return math.nan
            target = q * self.count
            cumulative = 0
            for i, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    lo = self.buckets[i - 1] if i > 0 else self.min
                    hi = self.buckets[i] if i < len(self.buckets) else self.max
                    lo = max(lo, self.min)
                    hi = min(hi, self.max)
                    if hi <= lo:
                        return lo
                    fraction = (target - cumulative) / bucket_count
                    return lo + fraction * (hi - lo)
                cumulative += bucket_count
            return self.max  # pragma: no cover - cumulative always reaches count

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative counts keyed by ``le`` bound (Prometheus semantics)."""
        with self._lock:
            out: dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, self._counts):
                running += count
                out[f"{bound:g}"] = running
            out["+Inf"] = running + self._counts[-1]
            return out

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self._lock, self.buckets)

    def _merge_state(self, state: dict) -> None:
        """Fold a snapshot of another histogram into this one (bucket-wise)."""
        raw = state.get("raw_counts")
        if raw is None or len(raw) != len(self._counts):
            raise ValueError(f"histogram {self.name}: incompatible merge shape")
        with self._lock:
            for i, count in enumerate(raw):
                self._counts[i] += count
            self.sum += state.get("sum", 0.0)
            self.count += state.get("count", 0)
            if state.get("count", 0):
                self.min = min(self.min, state.get("min", math.inf))
                self.max = max(self.max, state.get("max", -math.inf))


class Registry:
    """A namespace of metrics with snapshot/exposition/merge support."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- construction (idempotent getters) ------------------------------

    def _get_or_create(self, name: str, factory, kind: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, not {kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help, threading.Lock()), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help, threading.Lock()), "gauge")

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, threading.Lock(), buckets), "histogram")

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe state of every metric (and labeled children)."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, dict] = {}
        for name, metric in sorted(metrics.items()):
            out[name] = self._snapshot_metric(metric)
        return out

    @staticmethod
    def _snapshot_metric(metric: _Metric) -> dict:
        entry: dict = {"type": metric.kind}
        if isinstance(metric, (Counter, Gauge)):
            entry["value"] = metric.value
        elif isinstance(metric, Histogram):
            finite = metric.count > 0
            entry.update({
                "count": metric.count,
                "sum": metric.sum,
                "min": metric.min if finite else None,
                "max": metric.max if finite else None,
                "p50": metric.percentile(0.50) if finite else None,
                "p90": metric.percentile(0.90) if finite else None,
                "p99": metric.percentile(0.99) if finite else None,
                "raw_counts": list(metric._counts),
                "buckets": list(metric.buckets),
            })
        if metric._children:
            entry["labels"] = {
                _label_str(key): Registry._snapshot_metric(child)
                for key, child in sorted(metric._children.items())
            }
        return entry

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        for name, metric in sorted(metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            series = [((), metric)] + sorted(metric._children.items())
            for key, child in series:
                suffix = "{" + _prom_label_str(key) + "}" if key else ""
                if isinstance(child, (Counter, Gauge)):
                    lines.append(f"{name}{suffix} {child.value}")
                elif isinstance(child, Histogram):
                    base = _prom_label_str(key)
                    for bound, cumulative in child.bucket_counts().items():
                        label = f'{base},le="{bound}"' if base else f'le="{bound}"'
                        lines.append(f"{name}_bucket{{{label}}} {cumulative}")
                    lines.append(f"{name}_sum{suffix} {child.sum}")
                    lines.append(f"{name}_count{suffix} {child.count}")
        return "\n".join(lines) + "\n"

    # -- merge ----------------------------------------------------------

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges adopt the incoming value, histograms merge
        bucket-wise.  Unknown metrics are created with the snapshot's type.
        """
        for name, entry in snapshot.items():
            self._merge_entry(name, entry, parent=None)

    def _merge_entry(self, name: str, entry: dict, parent: _Metric | None) -> None:
        kind = entry.get("type", "counter")
        if parent is None:
            if kind == "counter":
                metric: _Metric = self.counter(name)
            elif kind == "gauge":
                metric = self.gauge(name)
            else:
                metric = self.histogram(name, buckets=tuple(entry.get("buckets", DEFAULT_BUCKETS)))
        else:
            metric = parent
        if isinstance(metric, Counter):
            metric.inc(entry.get("value", 0))
        elif isinstance(metric, Gauge):
            metric.set(entry.get("value", 0))
        elif isinstance(metric, Histogram):
            if entry.get("count", 0):
                metric._merge_state(entry)
        for label_str, child_entry in entry.get("labels", {}).items():
            labels = _parse_label_str(label_str)
            self._merge_entry(name, child_entry, parent=metric.labels(**labels))


def _unquote(value: str) -> str:
    # Exactly one surrounding quote pair — str.strip('"') would also eat
    # quotes that belong to the label value itself.
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _parse_label_str(label_str: str) -> dict:
    labels = dict(
        part.split("=", 1) for part in label_str.split(",") if "=" in part
    )
    return {k: _unquote(v) for k, v in labels.items()}


def labeled_snapshot(snapshot: dict, labels: dict) -> dict:
    """Rewrite ``snapshot`` so every series carries ``labels``.

    Each metric's own value moves into a labeled child and existing
    children gain the extra labels, so merging the result into another
    registry yields per-origin series (e.g. ``shard="s0"``) instead of
    blind sums.  The fleet router uses this to keep a per-shard breakdown
    alongside fleet-wide totals (see :func:`merge_additive_snapshot`).
    """
    out: dict[str, dict] = {}
    for name, entry in snapshot.items():
        wrapped: dict = {"type": entry.get("type", "counter")}
        if "buckets" in entry:
            # Parent histograms must exist with the right buckets so the
            # labeled children (created through them) inherit the shape.
            wrapped["buckets"] = entry["buckets"]
        own = {k: v for k, v in entry.items() if k != "labels"}
        children = {_label_str(_label_key(labels)): own}
        for child_key, child_entry in entry.get("labels", {}).items():
            merged_labels = {**_parse_label_str(child_key), **labels}
            children[_label_str(_label_key(merged_labels))] = child_entry
        wrapped["labels"] = children
        out[name] = wrapped
    return out


def merge_additive_snapshot(registry: Registry, snapshot: dict) -> None:
    """Merge only the additive series (counters, histograms) of ``snapshot``.

    ``merge_snapshot`` lets gauges *adopt* the incoming value — correct
    for a worker handing its final state to a parent, wrong for summing
    live shards (the last shard would win).  This variant drops gauges so
    repeated merges across shards keep counter/histogram totals exact;
    per-shard gauge values stay visible via :func:`labeled_snapshot`.
    """
    additive = {
        name: entry for name, entry in snapshot.items()
        if entry.get("type") != "gauge"
    }
    registry.merge_snapshot(additive)


#: The process-wide registry used by all instrumentation hooks.
_REGISTRY = Registry()


def get_registry() -> Registry:
    return _REGISTRY


def set_registry(registry: Registry) -> Registry:
    """Swap the process-wide registry; returns the previous one.

    Used by the worker-side spool to capture one task's metric deltas in
    a fresh registry without double-counting the worker's lifetime totals.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
