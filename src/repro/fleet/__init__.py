"""Horizontally sharded deployment of the streaming profiling service.

The single-process service (:mod:`repro.service`) scales out into a
*fleet*: N shard server processes behind one consistent-hash router,
sharing a checkpoint directory (so any shard can resume any session) and
one profile warehouse (so closes from every shard finalize into one
queryable store).

* :mod:`repro.fleet.shardmap` — rendezvous-hash session placement;
* :mod:`repro.fleet.registry` — crash-safe session -> shard records;
* :mod:`repro.fleet.router` — the protocol-transparent front door;
* :mod:`repro.fleet.supervisor` — shard process lifecycle (spawn,
  rolling drain-and-replace, chaos kill, respawn);
* :mod:`repro.fleet.loadgen` — thousands of concurrent verified streams;
* :mod:`repro.fleet.harness` — the one fleet bring-up, shared by
  ``fleet serve``, tests, examples and benchmarks.

Operator surface: the ``repro-2dprof fleet`` CLI family (``serve``,
``status``, ``drain``, ``loadgen``); see ``docs/fleet.md``.
"""

from repro.fleet.harness import FleetHarness  # noqa: F401
from repro.fleet.loadgen import LoadgenResult, run_loadgen  # noqa: F401
from repro.fleet.registry import SessionRegistry  # noqa: F401
from repro.fleet.router import FleetRouter  # noqa: F401
from repro.fleet.shardmap import ShardMap, ShardSpec, rendezvous_score  # noqa: F401
from repro.fleet.supervisor import FleetSupervisor, ShardProcess  # noqa: F401

__all__ = [
    "FleetHarness",
    "FleetRouter",
    "FleetSupervisor",
    "LoadgenResult",
    "SessionRegistry",
    "ShardMap",
    "ShardProcess",
    "ShardSpec",
    "rendezvous_score",
    "run_loadgen",
]
