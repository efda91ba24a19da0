"""The :class:`BranchTrace` container and its on-disk format."""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cachefs import atomic_savez
from repro.errors import TraceError

_FORMAT_VERSION = 1


@dataclass
class BranchTrace:
    """The conditional-branch history of one program run.

    ``sites[i]`` is the static branch-site id of the *i*-th dynamic
    conditional branch and ``outcomes[i]`` is 1 if it was taken.
    """

    program: str
    input_name: str
    num_sites: int
    sites: np.ndarray      # int32, shape (n,)
    outcomes: np.ndarray   # uint8, shape (n,)
    instructions: int = 0  # Guest instructions retired by the run.

    def __post_init__(self) -> None:
        self.sites = np.asarray(self.sites, dtype=np.int32)
        self.outcomes = np.asarray(self.outcomes, dtype=np.uint8)
        if self.sites.shape != self.outcomes.shape:
            raise TraceError("sites and outcomes must have the same length")
        if self.sites.size and int(self.sites.max()) >= self.num_sites:
            raise TraceError("trace references a site id beyond num_sites")

    def __len__(self) -> int:
        return int(self.sites.size)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_packed(
        cls,
        packed: list[int],
        program: str,
        input_name: str,
        num_sites: int,
        instructions: int = 0,
    ) -> "BranchTrace":
        """Build a trace from the VM's packed ``site*2 + taken`` entries."""
        arr = np.asarray(packed, dtype=np.int64)
        return cls(
            program=program,
            input_name=input_name,
            num_sites=num_sites,
            sites=(arr >> 1).astype(np.int32),
            outcomes=(arr & 1).astype(np.uint8),
            instructions=instructions,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def executed_sites(self) -> np.ndarray:
        """Sorted array of site ids that appear in the trace."""
        return np.unique(self.sites)

    def execution_counts(self) -> np.ndarray:
        """Array of length ``num_sites`` with per-site execution counts."""
        return np.bincount(self.sites, minlength=self.num_sites)

    def taken_counts(self) -> np.ndarray:
        """Array of length ``num_sites`` with per-site taken counts."""
        return np.bincount(self.sites, weights=self.outcomes, minlength=self.num_sites).astype(np.int64)

    def site_bias(self) -> dict[int, float]:
        """Taken rate per executed site (edge-profile aggregate)."""
        executed = self.execution_counts()
        taken = self.taken_counts()
        return {
            int(site): float(taken[site]) / int(executed[site])
            for site in self.executed_sites()
        }

    def slice_view(self, start: int, stop: int) -> "BranchTrace":
        """A trace containing only dynamic branches ``start:stop``."""
        return BranchTrace(
            program=self.program,
            input_name=self.input_name,
            num_sites=self.num_sites,
            sites=self.sites[start:stop],
            outcomes=self.outcomes[start:stop],
            instructions=0,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as a compressed ``.npz`` file (atomically)."""
        atomic_savez(
            path,
            version=np.int64(_FORMAT_VERSION),
            program=np.bytes_(self.program.encode()),
            input_name=np.bytes_(self.input_name.encode()),
            num_sites=np.int64(self.num_sites),
            instructions=np.int64(self.instructions),
            sites=self.sites,
            outcomes=self.outcomes,
        )

    @classmethod
    def load(cls, path: str | Path) -> "BranchTrace":
        """Read a trace previously written by :meth:`save`."""
        path = Path(path)
        try:
            # np.load leaks the handle it opened when the zip is corrupt.
            with open(path, "rb") as fh, np.load(fh) as data:
                version = int(data["version"])
                if version != _FORMAT_VERSION:
                    raise TraceError(f"unsupported trace format version {version}")
                return cls(
                    program=bytes(data["program"].item()).decode(),
                    input_name=bytes(data["input_name"].item()).decode(),
                    num_sites=int(data["num_sites"]),
                    instructions=int(data["instructions"]),
                    sites=data["sites"],
                    outcomes=data["outcomes"],
                )
        except (KeyError, ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
            raise TraceError(f"cannot load trace from {path}: {exc}") from exc
