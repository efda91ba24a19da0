"""Crash-safety tests for the shared on-disk cache.

Covers the three :mod:`repro.cachefs` guarantees — atomic publication,
per-artifact locking, corruption-as-miss — both at the primitive level and
end to end through :class:`ExperimentRunner` (truncated/garbage ``.npz``
entries must be recomputed and overwritten, never raised), plus a real
``SIGKILL``-mid-run test asserting every *published* artifact stays
loadable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import cachefs
from repro.cachefs import (
    artifact_lock,
    atomic_savez,
    lock_path_for,
    sweep_tmp_files,
)
from repro.core.experiment import ExperimentRunner, SuiteConfig
from repro.trace.trace import BranchTrace
from repro.errors import ExperimentError, TraceError

SCALE = 0.05


def _runner(cache_dir) -> ExperimentRunner:
    return ExperimentRunner(SuiteConfig(scale=SCALE, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------


def test_atomic_savez_roundtrip(tmp_path):
    path = tmp_path / "deep" / "artifact.npz"
    atomic_savez(path, values=np.arange(5))
    with np.load(path) as data:
        np.testing.assert_array_equal(data["values"], np.arange(5))
    assert list(tmp_path.rglob(f"*{cachefs.TMP_SUFFIX}")) == []


def test_atomic_savez_overwrites_existing(tmp_path):
    path = tmp_path / "artifact.npz"
    atomic_savez(path, values=np.zeros(3))
    atomic_savez(path, values=np.ones(3))
    with np.load(path) as data:
        np.testing.assert_array_equal(data["values"], np.ones(3))


def test_atomic_savez_crash_before_publish_leaves_nothing(tmp_path, monkeypatch):
    """A crash at the publication instant must leave no artifact and no
    stray tmp file (the failure path cleans up after itself)."""
    path = tmp_path / "artifact.npz"

    def exploding_replace(src, dst):
        raise OSError("simulated crash at publication")

    monkeypatch.setattr(cachefs.os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        atomic_savez(path, values=np.arange(3))
    monkeypatch.undo()
    assert not path.exists()
    assert list(tmp_path.glob(f"*{cachefs.TMP_SUFFIX}")) == []
    # The cache is fully functional afterwards.
    atomic_savez(path, values=np.arange(3))
    with np.load(path) as data:
        np.testing.assert_array_equal(data["values"], np.arange(3))


def test_lock_path_naming(tmp_path):
    assert lock_path_for(tmp_path / "a.npz") == tmp_path / ("a.npz" + cachefs.LOCK_SUFFIX)


def test_artifact_lock_excludes_other_processes(tmp_path):
    """While we hold an artifact's lock, another process cannot take it."""
    pytest.importorskip("fcntl")
    target = tmp_path / "artifact.npz"
    probe = (
        "import fcntl, os, sys\n"
        "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
        "try:\n"
        "    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
        "except BlockingIOError:\n"
        "    sys.exit(42)\n"
        "sys.exit(0)\n"
    )

    def probe_lock() -> int:
        return subprocess.run(
            [sys.executable, "-c", probe, str(lock_path_for(target))],
        ).returncode

    with artifact_lock(target):
        assert probe_lock() == 42, "lock should be held"
    assert probe_lock() == 0, "lock should be free after the context exits"
    # Lock files persist by design (unlinking would break mutual exclusion).
    assert lock_path_for(target).exists()


def test_sweep_tmp_files(tmp_path):
    (tmp_path / "a.npz.xyz.tmp").write_bytes(b"partial")
    (tmp_path / "b.npz.abc.tmp").write_bytes(b"partial")
    (tmp_path / "keep.npz").write_bytes(b"published")
    assert sweep_tmp_files(tmp_path) == 2
    assert sorted(p.name for p in tmp_path.glob("*")) == ["keep.npz"]
    assert sweep_tmp_files(tmp_path / "missing-dir") == 0


# ----------------------------------------------------------------------
# Corruption is a cache miss (end to end through the runner)
# ----------------------------------------------------------------------


def _corrupt_by_truncation(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def test_truncated_sim_is_recomputed(tmp_path, caplog, no_leaked_files):
    first = _runner(tmp_path)
    sim = first.simulation("mcfish", "train", "gshare")
    path = first._sim_path("mcfish", "train", "gshare")
    _corrupt_by_truncation(path)
    with no_leaked_files(), pytest.raises(ExperimentError):
        ExperimentRunner._load_sim(path)

    fresh = _runner(tmp_path)
    with caplog.at_level("WARNING", logger="repro.core.experiment"):
        recomputed = fresh.simulation("mcfish", "train", "gshare")
    assert any("corrupt cache entry" in rec.message for rec in caplog.records)
    np.testing.assert_array_equal(recomputed.correct, sim.correct)
    np.testing.assert_array_equal(recomputed.exec_counts, sim.exec_counts)
    # The entry was atomically overwritten and is loadable again.
    reloaded = ExperimentRunner._load_sim(path)
    np.testing.assert_array_equal(reloaded.correct, sim.correct)


def test_truncated_trace_is_recomputed(tmp_path, no_leaked_files):
    first = _runner(tmp_path)
    trace = first.trace("mcfish", "train")
    path = first._trace_path("mcfish", "train")
    _corrupt_by_truncation(path)
    with no_leaked_files(), pytest.raises(TraceError):
        BranchTrace.load(path)

    fresh = _runner(tmp_path)
    recomputed = fresh.trace("mcfish", "train")
    np.testing.assert_array_equal(recomputed.sites, trace.sites)
    np.testing.assert_array_equal(recomputed.outcomes, trace.outcomes)
    np.testing.assert_array_equal(BranchTrace.load(path).sites, trace.sites)


def test_garbage_and_empty_cache_entries_are_recomputed(tmp_path):
    first = _runner(tmp_path)
    sim = first.simulation("mcfish", "train", "gshare")
    path = first._sim_path("mcfish", "train", "gshare")

    for payload in (b"", b"this is not a zip file at all"):
        path.write_bytes(payload)
        fresh = _runner(tmp_path)
        recomputed = fresh.simulation("mcfish", "train", "gshare")
        np.testing.assert_array_equal(recomputed.correct, sim.correct)


def test_wrong_schema_cache_entry_is_recomputed(tmp_path):
    """A valid .npz with the wrong arrays (e.g. another tool's file) is a
    miss, not a crash."""
    first = _runner(tmp_path)
    sim = first.simulation("mcfish", "train", "gshare")
    path = first._sim_path("mcfish", "train", "gshare")
    np.savez_compressed(path, unrelated=np.arange(3))

    fresh = _runner(tmp_path)
    recomputed = fresh.simulation("mcfish", "train", "gshare")
    np.testing.assert_array_equal(recomputed.correct, sim.correct)


# ----------------------------------------------------------------------
# Kill -9 mid-run
# ----------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
from repro.core.experiment import ExperimentRunner, SuiteConfig

runner = ExperimentRunner(SuiteConfig(scale=float(sys.argv[2]), cache_dir=sys.argv[1]))
print("started", flush=True)
for workload in ("gzipish", "gapish", "mcfish", "vortexish"):
    for input_name in ("train", "ref"):
        runner.simulation(workload, input_name, "gshare")
"""


@pytest.mark.slow
def test_sigkill_mid_run_leaves_no_corrupt_entries(tmp_path):
    """SIGKILL a cache-writing process at an arbitrary instant: every
    published ``.npz`` must still load, and a fresh run must complete."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, str(tmp_path), str(SCALE)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=Path(__file__).resolve().parents[1],
    )
    assert proc.stdout is not None
    proc.stdout.readline()  # wait for imports to finish, then kill mid-work
    time.sleep(0.35)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    published = list(tmp_path.rglob("*.npz"))
    for path in published:
        if "traces" in path.parts:
            BranchTrace.load(path)  # must not raise
        else:
            ExperimentRunner._load_sim(path)  # must not raise

    # Recovery: a fresh runner finishes the interrupted grid.
    runner = _runner(tmp_path)
    sweep_tmp_files(tmp_path / "traces")
    sweep_tmp_files(tmp_path / "sims")
    for workload in ("gzipish", "mcfish"):
        sim = runner.simulation(workload, "train", "gshare")
        assert sim.num_branches > 0
