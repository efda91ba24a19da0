"""The fleet telemetry plane end to end: scrape, alert, recover, inspect.

This spawns a real two-shard fleet with telemetry on and walks the
observability story the plane promises:

1. stream traffic through the router while the scraper ticks every
   shard's ``metrics`` op into the on-disk metric TSDB;
2. ``kill -9`` one shard and watch the ``shard_down`` SLO rule fire
   (scrape absence > 2 intervals), which dumps a Perfetto flight record
   from every reachable process's trace ring buffer;
3. watch the watchdog respawn the shard under the same name and the
   alert resolve on the next clean scrape;
4. query what just happened from disk alone: the ``top`` overview, the
   merged structured JSON logs, and the flight-record files.

Run:  python examples/telemetry_demo.py
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import ProfilerConfig
from repro.fleet import FleetHarness
from repro.obs.dashboard import overview, render
from repro.obs.logs import read_logs
from repro.obs.tsdb import MetricTSDB

SCRAPE_INTERVAL = 0.3


def drive_traffic(fleet, name: str, events: int = 4000) -> None:
    """Stream one synthetic session through the router."""
    rng = np.random.default_rng(7)
    sites = rng.integers(0, 16, size=events).astype(np.int64)
    correct = rng.integers(0, 2, size=events).astype(np.int8)
    with fleet.client() as client:
        client.open_session(name, 16, ProfilerConfig(slice_size=64))
        for start in range(0, events, 500):
            client.send_events(name, sites[start:start + 500],
                               correct[start:start + 500])
        client.close_session(name)


def wait_for(predicate, timeout: float, what: str):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise TimeoutError(f"timed out waiting for {what}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # Shards write their own logs/<shard>.jsonl; the harness points
        # this process (router, scraper, alert manager, watchdog) at
        # logs/router.jsonl in the same directory.
        with FleetHarness(root, num_shards=2, telemetry=True,
                          scrape_interval=SCRAPE_INTERVAL) as fleet:
            print(f"fleet up: router on {fleet.host}:{fleet.port}, "
                  f"2 shards, scraping every {SCRAPE_INTERVAL}s")

            # --- 1. traffic + scrapes ---------------------------------
            drive_traffic(fleet, "demo-a")
            wait_for(lambda: fleet.telemetry.status()["ticks"] >= 4,
                     10, "scrape ticks")
            status = fleet.telemetry.status()
            print(f"scraper: {status['ticks']} ticks, sources "
                  f"{sorted(status['scrape_age'])}, "
                  f"TSDB {status['tsdb']['bytes']} bytes")

            # --- 2. chaos: kill a shard, alert fires ------------------
            print("\nkill -9 shard s1 ...")
            fleet.kill_shard("s1")
            alert = wait_for(
                lambda: [a for a in fleet.telemetry.status()["alerts"]
                         if a["rule"] == "shard_down"],
                15, "the shard_down alert")[0]
            print(f"ALERT fired: {alert['rule']} on {alert['source']} "
                  f"(scrape age {alert['value']:.2f}s > "
                  f"{alert['threshold']:.2f}s)")

            # --- 3. watchdog restores ---------------------------------
            wait_for(
                lambda: fleet.supervisor.processes["s1"].alive()
                and not fleet.telemetry.status()["alerts"],
                20, "the watchdog respawn + alert resolve")
            print(f"watchdog respawned s1 "
                  f"(restarts: {fleet.supervisor.restarts}); alert resolved")
            drive_traffic(fleet, "demo-b", events=1000)
            print("fresh session streamed through the healed fleet")

        # --- 4. post-mortem, from disk alone --------------------------
        telemetry_dir = root / "telemetry"
        print("\n--- top (rendered from the TSDB, processes all gone) ---")
        with MetricTSDB(telemetry_dir / "tsdb") as tsdb:
            print(render(overview(tsdb, window=30.0)))

        flights = sorted((telemetry_dir / "flight").glob("flight-*.json"))
        print(f"\nflight records dumped on the alert: "
              f"{[f.name for f in flights]}")
        if flights:
            doc = json.loads(flights[0].read_text())
            print(f"  {flights[0].name}: {len(doc['traceEvents'])} trace "
                  f"events (open at https://ui.perfetto.dev)")

        print("\nstructured log events around the incident:")
        for doc in read_logs(telemetry_dir / "logs"):
            if doc.get("event") in {"alert_fired", "alert_resolved",
                                    "shard_respawned",
                                    "watchdog_restarted_shard",
                                    "flight_record_dumped"}:
                fields = {k: v for k, v in doc.items()
                          if k not in {"ts", "level", "logger", "pid", "msg",
                                       "event"}}
                print(f"  {doc['event']:26s} {fields}")


if __name__ == "__main__":
    main()
