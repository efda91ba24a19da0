"""Fleet loadgen: concurrent-stream throughput through the router.

Not a paper exhibit: a guard for the sharded deployment.
Spawns a real fleet (shard subprocesses + router) and drives it with the
same load generator ``repro-2dprof fleet loadgen`` uses: many sessions
multiplexed over a bounded connection pool, a sample verified
bit-for-bit against an offline profiler.

Shape assertions: zero failed streams, zero verify failures, and the
full event volume lands.  The throughput and latency percentiles are
archived with the table.
"""

import tempfile

from repro.fleet import FleetHarness
from repro.fleet.loadgen import run_loadgen

STREAMS = 200
SHARDS = 4


def bench_fleet_loadgen(archive):
    """STREAMS x 2000 events through the router into a shard fleet."""
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as root, \
            FleetHarness(root, num_shards=SHARDS) as fleet:
        result = run_loadgen(
            fleet.host, fleet.port, streams=STREAMS, connections=32,
            events=2000, batch=500, verify_sample=10, prefix="bench")

    lat = result.frame_latency
    lines = [
        f"Fleet loadgen ({STREAMS} streams over {SHARDS} shards, "
        f"{result.connections} connections)",
        f"events={result.events_total} wall={result.wall_seconds:.2f}s "
        f"throughput={result.events_per_second:,.0f} events/s",
        f"frame latency p50={lat['p50'] * 1e3:.2f}ms "
        f"p90={lat['p90'] * 1e3:.2f}ms p99={lat['p99'] * 1e3:.2f}ms "
        f"max={lat['max'] * 1e3:.2f}ms",
        f"verified={result.verified} retries={result.retries} "
        f"failed={result.failed_streams}",
    ]
    archive("fleet_loadgen", "\n".join(lines))

    assert result.failed_streams == 0
    assert result.verify_failures == 0
    assert result.events_total == STREAMS * 2000
