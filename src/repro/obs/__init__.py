"""Unified observability: span tracing, metrics, process-safe aggregation.

Three modules, one subsystem:

* :mod:`repro.obs.tracing` — context-manager spans recorded to a ring
  buffer, exportable as Chrome trace-event JSON (open in Perfetto);
  disabled by default with a ~free no-op path.
* :mod:`repro.obs.metrics` — named counters/gauges/histograms with
  labeled children, JSON snapshots, and snapshot merging.
* :mod:`repro.obs.spool` — ProcessPool workers spool spans/metrics to
  per-task JSONL files (atomic publication via :mod:`repro.cachefs`);
  the parent merges them into one coherent trace.

Instrumentation call sites use the process-wide singletons::

    from repro.obs import get_tracer, get_registry

    with get_tracer().span("experiment.trace", cat="experiment") as sp:
        ...
        sp.set("cache", "hit")
    get_registry().counter("cache_hits_total").labels(kind="trace").inc()

See ``docs/observability.md`` for the operator's view (``--trace``,
``--metrics-json``, ``repro-2dprof stats``).
"""

from repro.obs.metrics import (  # noqa: F401
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
    labeled_snapshot,
    merge_additive_snapshot,
    set_registry,
)
from repro.obs.tracing import Tracer, configure, get_tracer  # noqa: F401

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Tracer",
    "configure",
    "get_registry",
    "get_tracer",
    "labeled_snapshot",
    "merge_additive_snapshot",
    "set_registry",
]
