"""Consistent-hash shard map: which shard owns which session.

The fleet routes by *rendezvous hashing* (highest-random-weight): every
shard gets a deterministic score for a session name, and the live shard
with the highest score wins.  Compared to a hash ring this needs no
virtual nodes, gives the same minimal-disruption property — removing a
shard only remaps the sessions that shard owned, adding one only steals
the sessions it now scores highest on — and makes the full preference
order (`ranked`) trivial, which is exactly what failover wants: when the
first choice is dead, the second-highest score is the deterministic
fallback on every router.

Scores hash the shard *name*, not its address, so a shard replaced by the
supervisor (same name, fresh process, possibly a new port) keeps owning
the same slice of the session space.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ShardSpec:
    """One shard server's identity and address."""

    name: str
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def rendezvous_score(shard_name: str, session: str) -> int:
    """Deterministic 64-bit HRW score of ``shard_name`` for ``session``."""
    digest = hashlib.blake2b(
        f"{shard_name}\x00{session}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """A mutable set of shards with deterministic session placement."""

    def __init__(self):
        self._shards: dict[str, ShardSpec] = {}

    # -- membership -----------------------------------------------------

    def add(self, spec: ShardSpec) -> None:
        self._shards[spec.name] = spec

    def replace(self, spec: ShardSpec) -> None:
        """Swap in a respawned shard (same name, possibly new address)."""
        self._shards[spec.name] = spec

    def remove(self, name: str) -> None:
        self._shards.pop(name, None)

    def get(self, name: str) -> ShardSpec | None:
        return self._shards.get(name)

    @property
    def shards(self) -> list[ShardSpec]:
        """All shards, sorted by name (stable for display and iteration)."""
        return [self._shards[name] for name in sorted(self._shards)]

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    # -- placement ------------------------------------------------------

    def ranked(self, session: str) -> list[ShardSpec]:
        """Every shard, in descending preference order for ``session``."""
        return sorted(
            self._shards.values(),
            key=lambda spec: (rendezvous_score(spec.name, session), spec.name),
            reverse=True,
        )

    def route(self, session: str, live=None) -> ShardSpec | None:
        """The preferred shard for ``session`` among those passing ``live``.

        ``live`` is an optional ``(name) -> bool`` predicate (router
        liveness); with no live shard the answer is ``None`` and the
        caller surfaces an error instead of guessing.
        """
        for spec in self.ranked(session):
            if live is None or live(spec.name):
                return spec
        return None
