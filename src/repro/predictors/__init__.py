"""Software branch predictors and trace-driven simulation.

The paper's profiler models the branch predictor in software (Section 3.2.4
"the branch predictor outcome ... can be obtained ... by implementing the
branch predictor in software in the profiler"); this package is that
predictor library.  The paper's two configurations are the defaults:

* :func:`paper_gshare` — the 4 KB, 14-bit-history gshare used for profiling
  and as the baseline target predictor;
* :func:`paper_perceptron` — the 16 KB, 457-entry, 36-bit-history
  perceptron used as the alternative target predictor in Section 5.3.
"""

from repro.predictors.base import Predictor
from repro.predictors.static_ import AlwaysTaken, AlwaysNotTaken
from repro.predictors.bimodal import Bimodal
from repro.predictors.gag import GAg
from repro.predictors.gshare import Gshare
from repro.predictors.local import LocalTwoLevel
from repro.predictors.loopp import LoopPredictor
from repro.predictors.perceptron import Perceptron
from repro.predictors.tage import Tage
from repro.predictors.tournament import Tournament
from repro.predictors.simulate import SimulationResult, simulate, simulate_reference

PREDICTOR_FACTORIES = {
    "always-taken": AlwaysTaken,
    "always-not-taken": AlwaysNotTaken,
    "bimodal": Bimodal,
    "gag": GAg,
    "gshare": Gshare,
    "local": LocalTwoLevel,
    "loop": LoopPredictor,
    "perceptron": Perceptron,
    "tage": Tage,
    "tournament": Tournament,
}


def paper_gshare() -> Gshare:
    """The paper's baseline profiler/target predictor: 4 KB, 14-bit gshare."""
    return Gshare(history_bits=14)


def paper_perceptron() -> Perceptron:
    """The paper's alternate target predictor: 16 KB perceptron (457 x 36)."""
    return Perceptron(num_entries=457, history_bits=36)


def make_predictor(name: str, **kwargs) -> Predictor:
    """Instantiate a predictor by registry name (see PREDICTOR_FACTORIES)."""
    try:
        factory = PREDICTOR_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(PREDICTOR_FACTORIES))
        raise ValueError(f"unknown predictor {name!r}; known: {known}") from None
    return factory(**kwargs)


__all__ = [
    "Predictor",
    "AlwaysTaken",
    "AlwaysNotTaken",
    "Bimodal",
    "GAg",
    "Gshare",
    "LocalTwoLevel",
    "LoopPredictor",
    "Perceptron",
    "Tage",
    "Tournament",
    "SimulationResult",
    "simulate",
    "simulate_reference",
    "paper_gshare",
    "paper_perceptron",
    "make_predictor",
    "PREDICTOR_FACTORIES",
]
