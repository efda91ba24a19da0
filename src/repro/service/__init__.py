"""Streaming 2D-profiling service.

The paper's key property — seven scalars per static branch are the whole
profiler state (Figure 9a) — makes 2D-profiling a natural *streaming*
computation.  This package is the deployment shape of that observation: a
long-running server that ingests branch-outcome streams from many
concurrent sessions and answers live input-dependence queries, with
crash-safe checkpoint/resume built on the same atomic-publication
primitives as the experiment cache.

Modules:

* :mod:`repro.service.protocol` — length-prefixed wire framing (binary
  event batches + JSON control frames) with strict decode validation;
* :mod:`repro.service.server` — asyncio server multiplexing sessions,
  each owning an incremental :class:`~repro.core.profiler2d.TwoDProfiler`,
  and :class:`~repro.service.server.ServerThread`, the one daemon-thread
  host for a server or a fleet router;
* :mod:`repro.service.checkpoint` — atomic session snapshots so a killed
  server resumes every session to a byte-identical report;
* :mod:`repro.service.client` — blocking client library used by the
  ``repro-2dprof stream`` CLI, tests, and examples;
* :mod:`repro.service.metrics` — the counters behind the ``stats`` frame.
"""

from repro.service.checkpoint import (
    checkpoint_path,
    delete_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.client import StreamingClient, stream_simulation
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import serialize_report
from repro.service.server import ProfilingServer, ServerThread, ServiceLimits

__all__ = [
    "ProfilingServer",
    "ServerThread",
    "ServiceLimits",
    "ServiceMetrics",
    "StreamingClient",
    "stream_simulation",
    "serialize_report",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "delete_checkpoint",
    "list_checkpoints",
]
