"""Static predictors: fixed-direction baselines."""

from __future__ import annotations

from repro.predictors.base import Predictor


class AlwaysTaken(Predictor):
    """Predicts taken for every branch."""

    name = "always-taken"

    def predict_and_update(self, site_id: int, taken: int) -> int:
        return 1

    def reset(self) -> None:
        pass


class AlwaysNotTaken(Predictor):
    """Predicts not-taken for every branch."""

    name = "always-not-taken"

    def predict_and_update(self, site_id: int, taken: int) -> int:
        return 0

    def reset(self) -> None:
        pass

