"""Shard process supervisor: spawn, monitor, restart, rolling-drain.

Each shard is one ``repro-2dprof serve`` subprocess with a stable *name*
(``s0`` .. ``sN-1``) — the name, not the port, is what rendezvous
hashing keys on, so a replaced shard (same name, fresh process, new
ephemeral port) keeps owning the same slice of the session space.
All shards share one checkpoint directory and (optionally) one warehouse
root; that sharing is what makes any-shard resume and concurrent
finalization work.

The supervisor's operations mirror a deploy tool's:

* :meth:`start` — spawn every shard, harvest the bound ports from each
  child's ``listening on host:port`` line, build the shared
  :class:`~repro.fleet.shardmap.ShardMap`;
* :meth:`rolling_restart` — SIGTERM one shard at a time (the server's
  drain path checkpoints every session), wait for it to exit, respawn
  under the same name, update the map — the router keeps serving from
  the other shards throughout;
* :meth:`kill` — SIGKILL, for chaos tests: everything past the last
  checkpoint is lost, exactly the single-server crash contract;
* :meth:`restart_dead` — respawn anything that exited, however it died.
"""

from __future__ import annotations

import logging
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.errors import ServiceError
from repro.fleet.shardmap import ShardMap, ShardSpec
from repro.obs.logs import log_event

log = logging.getLogger(__name__)

_LISTEN_PREFIX = "listening on "


def _child_env() -> dict:
    """The child's environment, with this repro importable on PYTHONPATH."""
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
    return env


class ShardProcess:
    """One shard server subprocess and its lifecycle."""

    def __init__(
        self,
        name: str,
        checkpoint_dir: str | Path,
        warehouse_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        idle_timeout: float | None = None,
        max_sessions: int = 1024,
        trace_path: str | Path | None = None,
        flight_dir: str | Path | None = None,
        log_path: str | Path | None = None,
    ):
        self.name = name
        self.checkpoint_dir = Path(checkpoint_dir)
        self.warehouse_dir = Path(warehouse_dir) if warehouse_dir else None
        self.host = host
        self.idle_timeout = idle_timeout
        self.max_sessions = max_sessions
        self.trace_path = Path(trace_path) if trace_path else None
        self.flight_dir = Path(flight_dir) if flight_dir else None
        self.log_path = Path(log_path) if log_path else None
        self.proc: subprocess.Popen | None = None
        self.spec: ShardSpec | None = None
        self.started_at: float | None = None

    def start(self, timeout: float = 30.0) -> ShardSpec:
        """Spawn the server and wait for it to announce its bound port."""
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host,
            "--port", "0",
            "--checkpoint-dir", str(self.checkpoint_dir),
            "--shard-name", self.name,
            "--max-sessions", str(self.max_sessions),
        ]
        if self.warehouse_dir is not None:
            cmd += ["--warehouse-dir", str(self.warehouse_dir)]
        if self.idle_timeout is not None:
            cmd += ["--idle-timeout", str(self.idle_timeout)]
        if self.trace_path is not None:
            cmd += ["--trace", str(self.trace_path)]
        if self.flight_dir is not None:
            cmd += ["--flight-record", str(self.flight_dir)]
        if self.log_path is not None:
            cmd += ["--log-json", str(self.log_path)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=_child_env(), text=True)
        self.started_at = time.time()
        self.spec = ShardSpec(self.name, self.host, self._await_port(timeout))
        log.info("shard %s: pid %d on %s", self.name, self.proc.pid, self.spec.address)
        return self.spec

    def _await_port(self, timeout: float) -> int:
        """Read the child's ``listening on host:port`` line (with deadline)."""
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise ServiceError(
                    f"shard {self.name} exited with {self.proc.returncode} before binding")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith(_LISTEN_PREFIX):
                    return int(line.strip().rsplit(":", 1)[1])
                if not line and self.proc.poll() is not None:
                    continue  # loop reports the exit code
            if time.monotonic() > deadline:
                self.kill()
                raise ServiceError(f"shard {self.name} did not bind within {timeout}s")

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def uptime(self) -> float | None:
        """Seconds since this process incarnation spawned (None if dead)."""
        if not self.alive() or self.started_at is None:
            return None
        return time.time() - self.started_at

    def terminate(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain: every session checkpointed) and wait."""
        if self.alive():
            assert self.proc is not None
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                log.warning("shard %s ignored SIGTERM; killing", self.name)
                self.kill()
        self.close_pipe()

    def kill(self) -> None:
        """SIGKILL — no drain, no checkpoints (chaos path)."""
        if self.proc is None:
            return
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()
        self.close_pipe()

    def close_pipe(self) -> None:
        """Close the read end of the child's stdout once it has exited.

        Left open, the pipe is closed by the garbage collector, whenever
        that runs, with a ``ResourceWarning``.
        """
        if self.proc is not None and self.proc.stdout is not None and not self.alive():
            self.proc.stdout.close()


class FleetSupervisor:
    """Spawn and manage N shard processes sharing one checkpoint dir."""

    def __init__(
        self,
        num_shards: int,
        checkpoint_dir: str | Path,
        warehouse_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        idle_timeout: float | None = None,
        max_sessions: int = 1024,
        trace_dir: str | Path | None = None,
        flight_dir: str | Path | None = None,
        log_dir: str | Path | None = None,
    ):
        if num_shards < 1:
            raise ServiceError("a fleet needs at least one shard")
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir = Path(trace_dir) if trace_dir else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.flight_dir = Path(flight_dir) if flight_dir else None
        if self.flight_dir is not None:
            self.flight_dir.mkdir(parents=True, exist_ok=True)
        self.log_dir = Path(log_dir) if log_dir else None
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
        self.shard_map = ShardMap()
        self.processes: dict[str, ShardProcess] = {}
        #: Per-shard respawn counts (rolling restarts excluded) — the
        #: watchdog and ``restart_dead`` both feed this.
        self.restarts: dict[str, int] = {}
        #: Processes spawned per shard name, every respawn counted; each
        #: generation writes its own trace file.
        self._generations: dict[str, int] = {}
        self._template = dict(
            checkpoint_dir=self.checkpoint_dir,
            warehouse_dir=warehouse_dir,
            host=host,
            idle_timeout=idle_timeout,
            max_sessions=max_sessions,
        )
        self._names = [f"s{i}" for i in range(num_shards)]

    def _spawn(self, name: str) -> ShardSpec:
        kwargs = dict(self._template)
        generation = self._generations.get(name, 0)
        self._generations[name] = generation + 1
        if self.trace_dir is not None:
            kwargs["trace_path"] = self.trace_dir / f"{name}.g{generation}.trace.json"
        if self.flight_dir is not None:
            kwargs["flight_dir"] = self.flight_dir
        if self.log_dir is not None:
            kwargs["log_path"] = self.log_dir / f"{name}.jsonl"
        process = ShardProcess(name, **kwargs)
        spec = process.start()
        self.processes[name] = process
        return spec

    def start(self) -> ShardMap:
        """Spawn every shard; returns the live shard map."""
        try:
            for name in self._names:
                self.shard_map.add(self._spawn(name))
        except BaseException:
            self.stop_all()
            raise
        return self.shard_map

    def rolling_restart(self) -> list[str]:
        """Drain-and-replace shards one at a time; returns names replaced.

        At most one shard is down at any moment, so the router keeps the
        rest of the fleet serving throughout the upgrade.
        """
        replaced = []
        for name in sorted(self.processes):
            self.processes[name].terminate()
            self.shard_map.replace(self._spawn(name))
            replaced.append(name)
            log.info("rolling restart: replaced shard %s", name)
        return replaced

    def respawn(self, name: str) -> ShardSpec:
        """Replace one (dead) shard process under the same name.

        The unit behind both :meth:`restart_dead` and the telemetry
        watchdog; counts the respawn and logs it as a structured event.
        """
        if name not in self.processes:
            raise ServiceError(f"no shard named {name!r}")
        self.processes[name].close_pipe()
        spec = self._spawn(name)
        self.shard_map.replace(spec)
        self.restarts[name] = self.restarts.get(name, 0) + 1
        log_event(log, "shard_respawned", shard=name,
                  pid=self.processes[name].pid, port=spec.port,
                  restarts=self.restarts[name])
        return spec

    def restart_dead(self) -> list[str]:
        """Respawn any shard whose process exited; returns names revived."""
        revived = []
        for name, process in sorted(self.processes.items()):
            if not process.alive():
                self.respawn(name)
                revived.append(name)
        return revived

    def signal(self, name: str, signum: int) -> None:
        """Send ``signum`` to one live shard (e.g. SIGUSR2 = flight dump)."""
        process = self.processes.get(name)
        if process is None or not process.alive():
            raise ServiceError(f"shard {name!r} is not running")
        assert process.proc is not None
        process.proc.send_signal(signum)

    def kill(self, name: str) -> int:
        """SIGKILL one shard (chaos testing); returns its pid."""
        process = self.processes.get(name)
        if process is None or process.pid is None:
            raise ServiceError(f"no shard named {name!r}")
        pid = process.pid
        process.kill()
        return pid

    def stop_all(self, timeout: float = 30.0) -> None:
        """Gracefully drain every shard (SIGTERM, wait)."""
        for process in self.processes.values():
            if process.alive():
                assert process.proc is not None
                process.proc.send_signal(signal.SIGTERM)
        for process in self.processes.values():
            if process.proc is not None:
                try:
                    process.proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                process.close_pipe()

    def status(self) -> dict[str, dict]:
        """Per-shard process info for ``fleet_status`` replies."""
        out: dict[str, dict] = {}
        for name, process in self.processes.items():
            uptime = process.uptime()
            out[name] = {
                "pid": process.pid,
                "alive": process.alive(),
                "uptime": round(uptime, 3) if uptime is not None else None,
                "restarts": self.restarts.get(name, 0),
            }
        return out
