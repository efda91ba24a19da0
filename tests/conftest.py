"""Shared fixtures for the test suite.

Tests run at tiny scale with disk caching pointed at a per-session tmp
directory, so they are hermetic and reasonably fast while still executing
the full pipeline (compile -> run -> trace -> simulate -> profile).
"""

from __future__ import annotations

import contextlib
import gc
import warnings

import pytest

from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.lang import compile_source
from repro.vm import InputSet, Machine


@pytest.fixture(scope="session")
def tiny_runner(tmp_path_factory) -> ExperimentRunner:
    """An ExperimentRunner at very small scale with a temp cache.

    Session-scoped: many tests share the cached tiny traces.
    """
    cache = tmp_path_factory.mktemp("repro-cache")
    return ExperimentRunner(SuiteConfig(scale=0.05, cache_dir=cache))


COUNTER_SOURCE = """
global total = 0;

func add(a, b) {
    return a + b;
}

func main() {
    var i;
    for (i = 0; i < arg(0); i += 1) {
        if (i % 3 == 0) {
            total = add(total, i);
        } else {
            total -= 1;
        }
    }
    output(total);
    return total;
}
"""


@pytest.fixture(scope="session")
def counter_program():
    """A small program with an if branch and a loop branch."""
    return compile_source(COUNTER_SOURCE, name="counter")


@pytest.fixture()
def counter_machine(counter_program):
    return Machine(counter_program)


def run_main(source: str, data=(), args=(), fuel: int = 50_000_000):
    """Compile and run Minic source; return the RunResult."""
    program = compile_source(source)
    machine = Machine(program, fuel=fuel)
    return machine.run(InputSet.make("test", data=data, args=args))


@pytest.fixture()
def minic():
    """Helper fixture: run Minic source and return its RunResult."""
    return run_main


@contextlib.contextmanager
def _assert_no_leaked_files():
    # Collect first: files an earlier test dropped must not be blamed on this block.
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaked, leaked


@pytest.fixture()
def no_leaked_files():
    """Context manager: fail if the block leaves a file for the GC to close."""
    return _assert_no_leaked_files
