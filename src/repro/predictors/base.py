"""The predictor interface.

A predictor sees the dynamic conditional-branch stream in program order.
For each branch it produces a taken/not-taken prediction and then trains on
the actual outcome — exactly the information a profiling tool has when it
models the predictor in software.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Predictor(ABC):
    """Abstract base class for all branch predictors.

    Subclasses implement :meth:`predict_and_update`; ``site_id`` plays the
    role of the static branch address in a hardware predictor.
    """

    #: Short name used in reports; subclasses override.
    name = "predictor"

    @abstractmethod
    def predict_and_update(self, site_id: int, taken: int) -> int:
        """Predict branch ``site_id`` then train on ``taken``; return 0/1."""

    @abstractmethod
    def reset(self) -> None:
        """Restore the power-on state (all counters/history cleared)."""

    def describe(self) -> str:
        """Human-readable configuration string."""
        return self.name

    def state_dict(self) -> dict:
        """A canonical snapshot of the mutable predictor state.

        Values are copies (plain ints, lists, numpy arrays) so two
        snapshots can be compared for exact equality — the differential
        harness uses this to pin the reference and vectorized replay
        paths to the same end-of-run state.  Stateless predictors return
        an empty dict.
        """
        return {}
