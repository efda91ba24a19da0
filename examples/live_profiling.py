"""Live profiling over the wire: serve, stream, query mid-run, crash,
resume from checkpoint, and verify bit-identity with the offline path.

This drives the whole streaming-service lifecycle in one process: a
:class:`~repro.service.server.ServerThread` hosts the asyncio server on a
daemon thread while a blocking :class:`~repro.service.client.StreamingClient`
plays the producer a Pin-style tool would be — one ``(site, correct)``
event per dynamic branch.

Run:  python examples/live_profiling.py
"""

import tempfile

from repro import (
    ProfilerConfig,
    compile_source,
    capture_trace,
    paper_gshare,
    profile_trace,
    simulate,
)
from repro.service.client import StreamingClient, stream_simulation
from repro.service.protocol import serialize_report
from repro.service.server import ProfilingServer, ServerThread

from quickstart import SOURCE, make_phased_input


def main():
    # Build the event stream the producer will ship: a captured trace and
    # the correctness stream of the paper's gshare over it.
    program = compile_source(SOURCE, name="live")
    trace = capture_trace(program, make_phased_input())
    sim = simulate(paper_gshare(), trace)
    config = ProfilerConfig(target_slices=60).resolve(total_branches=len(trace))
    print(f"captured {len(trace)} events over {program.num_sites} branch sites")

    with tempfile.TemporaryDirectory() as ckpt_dir:
        # --- serve + stream the first half, querying mid-run -----------
        server = ServerThread(ProfilingServer(checkpoint_dir=ckpt_dir)).start()
        print(f"server listening on 127.0.0.1:{server.port}")

        with StreamingClient("127.0.0.1", server.port) as client:
            outcome = stream_simulation(
                client, "live-run", trace.sites, sim.correct, config,
                batch_size=4096, checkpoint_every=4,
                stop_after=len(trace) // 2,
            )
            live = client.query("live-run")["report"]
            stats = client.stats()
        print(f"paused at {outcome.events_total}/{len(trace)} events; "
              f"live verdicts so far: {len(live['input_dependent'])} "
              f"input-dependent of {len(live['profiled'])} profiled")
        print(f"metrics: {stats['events_total']} events, "
              f"{stats['checkpoints_written']} checkpoints, "
              f"{stats['events_per_second']:.0f} events/s")

        # --- crash: no graceful drain, in-memory sessions are lost -----
        server.abort()
        print("server killed (no drain) — resuming from the checkpoint")

        # --- restart + resume: the stream continues from the offset ----
        server = ServerThread(ProfilingServer(checkpoint_dir=ckpt_dir)).start()
        with StreamingClient("127.0.0.1", server.port) as client:
            outcome = stream_simulation(
                client, "live-run", trace.sites, sim.correct, config,
                batch_size=4096, resume=True,
            )
            print(f"resumed from event {outcome.resumed_from}, "
                  f"streamed {outcome.events_sent} more")
            final = client.close_session("live-run")["report"]
        server.drain()

    # --- the streamed report must equal the offline one bit-for-bit ----
    offline = serialize_report(profile_trace(trace, simulation=sim, config=config))
    assert final == offline, "streamed report diverged from profile_trace"
    print("verified: streamed report is bit-identical to offline profile_trace")
    flagged = ", ".join(program.sites[s].label() for s in final["input_dependent"])
    print(f"input-dependent branches: {flagged}")


if __name__ == "__main__":
    main()
