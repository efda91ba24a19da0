"""Flight recorder: always-on ring-buffer tracing, dumped on alert.

A flight recorder keeps the process tracer enabled with a bounded ring
buffer (cheap: the buffer overwrites itself), and writes the buffer out
as a Perfetto-openable Chrome trace only when something goes wrong — so
the trace covering the seconds *before* an alert fired is on disk
without anyone having planned to capture it.

Two halves:

* :class:`FlightRecorder` runs in-process (router/server): ``arm()``
  enables the tracer with a ring capacity, ``dump(reason)`` exports the
  buffer to ``<dir>/flight-<name>-NNN.json`` (rate-limited so an alert
  storm can't fill the disk).
* Shard subprocesses arm their own recorders (``serve
  --flight-record``) and dump on ``SIGUSR2`` — the router-side alert
  path signals them via the supervisor, collecting per-process traces
  that line up on the shared wall-clock axis.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path

from repro.obs.logs import log_event
from repro.obs.tracing import Tracer, get_tracer

log = logging.getLogger(__name__)

#: Default ring capacity — a few seconds of busy-server spans.
DEFAULT_CAPACITY = 50_000

#: Minimum seconds between dumps (alert storms collapse into one trace).
DEFAULT_MIN_INTERVAL = 10.0

#: 1-in-N sampling of ``hot_path`` spans (event-frame handling) while
#: armed.  Event frames are near-identical and dominate span volume, so
#: sampling them keeps the always-on recorder off the service's
#: throughput path and stretches the ring over a longer window;
#: open/close/control spans are always recorded.
DEFAULT_HOT_SAMPLE = 8


class FlightRecorder:
    """Continuous ring-buffer tracing with rate-limited dump-on-demand."""

    def __init__(
        self,
        out_dir: str | Path,
        name: str = "proc",
        capacity: int = DEFAULT_CAPACITY,
        min_interval: float = DEFAULT_MIN_INTERVAL,
        hot_sample: int = DEFAULT_HOT_SAMPLE,
        tracer: Tracer | None = None,
    ):
        self.out_dir = Path(out_dir)
        self.name = name
        self.capacity = capacity
        self.min_interval = min_interval
        self.hot_sample = hot_sample
        self.tracer = tracer if tracer is not None else get_tracer()
        self._lock = threading.Lock()
        self._last_dump = 0.0
        self._seq = 0
        self._was_enabled = self.tracer.enabled
        self._was_hot_sample = self.tracer.hot_sample
        self._was_cpu_time = self.tracer.cpu_time

    def arm(self) -> None:
        """Enable the tracer with the recorder's ring capacity.

        Armed tracing also drops per-span CPU capture: ``thread_time_ns``
        has no vDSO fast path and can cost ~200us per call on virtualized
        hosts — ruinous for an always-on recorder, fine for an explicit
        ``--trace`` run.
        """
        self._was_enabled = self.tracer.enabled
        self._was_hot_sample = self.tracer.hot_sample
        self._was_cpu_time = self.tracer.cpu_time
        self.tracer.configure(enabled=True, capacity=self.capacity,
                              hot_sample=self.hot_sample, cpu_time=False)

    def disarm(self) -> None:
        """Restore the tracer's pre-arm enabled and sampling state."""
        self.tracer.configure(enabled=self._was_enabled,
                              hot_sample=self._was_hot_sample,
                              cpu_time=self._was_cpu_time)

    def dump(self, reason: str = "manual", force: bool = False) -> Path | None:
        """Export the ring buffer; ``None`` if rate-limited or empty.

        The buffer is *not* cleared — overlapping alerts shortly after a
        dump still see the same history once the rate limit expires.
        """
        now = time.time()
        with self._lock:
            if not force and now - self._last_dump < self.min_interval:
                return None
            if not self.tracer.events():
                return None
            self._last_dump = now
            self._seq += 1
            seq = self._seq
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"flight-{self.name}-{seq:03d}.json"
        self.tracer.export(path)
        log_event(log, "flight_record_dumped", level=logging.WARNING,
                  path=str(path), reason=reason,
                  events=len(self.tracer.events()))
        return path

    def dumps(self) -> list[Path]:
        """Dump files written so far by this recorder name."""
        if not self.out_dir.is_dir():
            return []
        return sorted(self.out_dir.glob(f"flight-{self.name}-*.json"))
