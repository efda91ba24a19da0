"""Tests for the regression triage engine (bisection, scoring, reports).

The determinism bar mirrors the ISSUE acceptance criteria: the bisection
must return a *minimal* site set that verifiably reproduces the
classification flip, must not depend on candidate iteration order
(hypothesis property), and must survive ``kill -9`` mid-search with a
bit-identical final report after resume.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TriageError
from repro.store import IngestRun, ProfileWarehouse, reclassify
from repro.triage import (
    BisectionEngine,
    TriageReport,
    load_report,
    score_sites,
    seeded_run_pair,
    synth_pair,
    triage_runs,
)

REGRESSED = (3, 7, 11)


@pytest.fixture()
def warehouse(tmp_path):
    return ProfileWarehouse(tmp_path / "wh")


@pytest.fixture()
def pair(warehouse):
    """(warehouse, good StoredRun, bad StoredRun) for the default seed."""
    good_id, bad_id = seeded_run_pair(warehouse, regressed=REGRESSED)
    return warehouse, warehouse.open_run(good_id), warehouse.open_run(bad_id)


# ----------------------------------------------------------------------
# The synthetic pair itself
# ----------------------------------------------------------------------


class TestSynthPair:
    def test_known_regression_by_construction(self, pair):
        _wh, good, bad = pair
        assert reclassify(good)["input_dependent"] == [0]
        assert reclassify(bad)["input_dependent"] == [0, *REGRESSED]

    def test_counts_bit_match_recorded_overall(self, pair):
        """The pair must run the engine in its count-coupled mode."""
        _wh, good, bad = pair
        for run in (good, bad):
            exec_counts, correct_counts = run.counts()
            ratio = int(np.sum(correct_counts)) / int(np.sum(exec_counts))
            assert float(ratio) == run.record.overall_accuracy

    def test_same_seed_is_bit_identical(self):
        a = synth_pair(seed=11)[2].series
        b = synth_pair(seed=11)[2].series
        assert np.array_equal(a, b)
        assert not np.array_equal(a, synth_pair(seed=12)[2].series)

    def test_anchor_site_is_reserved(self):
        with pytest.raises(ValueError):
            synth_pair(regressed=(0, 3))


# ----------------------------------------------------------------------
# Bisection
# ----------------------------------------------------------------------


class TestBisection:
    def test_minimal_set_is_the_injected_regression(self, pair):
        _wh, good, bad = pair
        engine = BisectionEngine(good, bad)
        assert engine._mode == "coupled"
        assert engine.minimal_flipping_set() == sorted(REGRESSED)

    def test_endpoints_agree_with_reclassify(self, pair):
        """verdict(∅) / verdict(all) anchor to the warehouse query engine."""
        _wh, good, bad = pair
        engine = BisectionEngine(good, bad)
        assert sorted(engine.base_bad) == reclassify(bad)["input_dependent"]
        assert sorted(engine.base_good) == reclassify(good)["input_dependent"]

    def test_minimal_set_reproduces_the_flip(self, pair):
        _wh, good, bad = pair
        engine = BisectionEngine(good, bad)
        minimal = engine.minimal_flipping_set()
        assert engine._verdict(frozenset(minimal)) == engine.base_good

    def test_minimal_set_is_one_minimal(self, pair):
        _wh, good, bad = pair
        engine = BisectionEngine(good, bad)
        minimal = engine.minimal_flipping_set()
        for site in minimal:
            trimmed = frozenset(s for s in minimal if s != site)
            assert engine._verdict(trimmed) != engine.base_good, (
                f"site {site} is not necessary; the set is not minimal")

    def test_no_regression_means_empty_set(self, warehouse):
        good_id, _ = seeded_run_pair(warehouse)
        good = warehouse.open_run(good_id)
        engine = BisectionEngine(good, good)
        assert engine.minimal_flipping_set() == []
        assert engine.run()["verified"] is True

    def test_mismatched_programs_rejected(self, warehouse, tmp_path):
        good_id, _ = seeded_run_pair(warehouse)
        other = ProfileWarehouse(tmp_path / "other")
        small_id, _ = seeded_run_pair(other, num_sites=12, regressed=(2,))
        with pytest.raises(TriageError):
            BisectionEngine(warehouse.open_run(good_id),
                            other.open_run(small_id))

    def test_decoupled_fallback_without_counts(self, warehouse):
        good_report, _gs, bad_report, _bs = synth_pair(regressed=REGRESSED)
        good_id, bad_id = warehouse.ingest([
            IngestRun(good_report, "w", "a", "gshare"),
            IngestRun(bad_report, "w", "b", "gshare"),
        ])
        engine = BisectionEngine(warehouse.open_run(good_id),
                                 warehouse.open_run(bad_id))
        assert engine._mode == "decoupled"
        assert engine.minimal_flipping_set() == sorted(REGRESSED)

    def test_threshold_flips_actually_flip(self, pair):
        _wh, good, bad = pair
        engine = BisectionEngine(good, bad)
        engine.minimal_flipping_set()
        flips = engine.threshold_flips()
        assert set(flips) == {str(s) for s in REGRESSED}
        for site_str, entry in flips.items():
            site = int(site_str)
            assert site in reclassify(bad)["input_dependent"]
            std_flip = entry["std_th"]
            # Just past the flip point the STD test no longer carries
            # the site, and the bad run's verdict for it changes.
            relabeled = reclassify(bad, std_th=std_flip + 1e-6)
            assert site not in relabeled["input_dependent"]


# ----------------------------------------------------------------------
# Determinism properties (ISSUE satellite)
# ----------------------------------------------------------------------


class _ShuffledEngine(BisectionEngine):
    """Engine whose candidate iteration order is adversarially permuted."""

    def __init__(self, *args, order=None, **kwargs):
        self._order = order
        super().__init__(*args, **kwargs)

    def candidates(self):
        sites = super().candidates()
        if self._order is None:
            return sites
        rng = np.random.RandomState(self._order)
        return [sites[i] for i in rng.permutation(len(sites))]


class TestDeterminismProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(order=st.integers(min_value=0, max_value=2**31 - 1))
    def test_result_invariant_to_candidate_order(self, pair, order):
        _wh, good, bad = pair
        engine = _ShuffledEngine(good, bad, order=order)
        assert engine.minimal_flipping_set() == sorted(REGRESSED)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        regressed=st.sets(st.integers(min_value=1, max_value=15),
                          min_size=1, max_size=4),
    )
    def test_minimal_set_flips_for_arbitrary_regressions(
            self, tmp_path_factory, seed, regressed):
        wh = ProfileWarehouse(
            tmp_path_factory.mktemp("prop") / "wh")
        good_id, bad_id = seeded_run_pair(
            wh, num_sites=16, n_slices=32,
            regressed=tuple(sorted(regressed)), seed=seed)
        good, bad = wh.open_run(good_id), wh.open_run(bad_id)
        engine = BisectionEngine(good, bad)
        minimal = engine.minimal_flipping_set()
        # The reported set reproduces the flip when substituted back ...
        assert engine._verdict(frozenset(minimal)) == engine.base_good
        # ... and is 1-minimal.
        for site in minimal:
            trimmed = frozenset(s for s in minimal if s != site)
            assert engine._verdict(trimmed) != engine.base_good
        # The injected sites that actually flipped are all found.
        flipped = set(engine.base_bad) - set(engine.base_good)
        assert flipped <= set(regressed) | {0}
        assert set(minimal) <= flipped | set(regressed)


# ----------------------------------------------------------------------
# Resumable state
# ----------------------------------------------------------------------


class TestResumableState:
    def test_resume_replays_from_cache(self, pair, tmp_path):
        wh, good, bad = pair
        state = tmp_path / "state.json"
        first = triage_runs(wh, good, bad, state_path=state)
        assert first.bisect["evals"] > 0 and not first.bisect["resumed"]
        second = triage_runs(wh, good, bad, state_path=state)
        assert second.bisect["evals"] == 0 and second.bisect["resumed"]
        assert second.render() == first.render()
        assert second.bisect["minimal_set"] == first.bisect["minimal_set"]

    def test_state_key_mismatch_starts_fresh(self, pair, tmp_path):
        wh, good, bad = pair
        state = tmp_path / "state.json"
        triage_runs(wh, good, bad, state_path=state)
        fresh = triage_runs(wh, good, bad, std_th=0.06, state_path=state)
        assert not fresh.bisect["resumed"]

    def test_corrupt_state_starts_fresh(self, pair, tmp_path):
        wh, good, bad = pair
        state = tmp_path / "state.json"
        state.write_text("{torn json", "utf-8")
        report = triage_runs(wh, good, bad, state_path=state)
        assert not report.bisect["resumed"]
        assert report.bisect["minimal_set"] == sorted(REGRESSED)

    def test_kill9_mid_search_then_resume_is_identical(self, pair, tmp_path):
        """SIGKILL a slowed bisection, resume, compare to an unkilled run."""
        wh, good, bad = pair
        state = tmp_path / "state.json"
        script = (
            "from repro.store import ProfileWarehouse\n"
            "from repro.triage import triage_runs\n"
            f"wh = ProfileWarehouse({str(wh.root)!r}, create=False)\n"
            f"triage_runs(wh, {good.run_id!r}, {bad.run_id!r}, "
            f"state_path={str(state)!r})\n"
        )
        env = dict(os.environ, REPRO_TRIAGE_STEP_DELAY="0.25",
                   PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        deadline = time.time() + 30
        while time.time() < deadline and not state.exists():
            time.sleep(0.05)  # wait for the first persisted evaluation
        assert state.exists(), "bisection never persisted state"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        doc = json.loads(state.read_text("utf-8"))
        persisted = len(doc["decisions"])
        resumed = triage_runs(wh, good, bad, state_path=state)
        assert resumed.bisect["resumed"]
        assert resumed.bisect["cached_evals"] >= persisted > 0
        fresh = triage_runs(wh, good, bad, state_path=tmp_path / "fresh.json")
        assert resumed.render() == fresh.render()
        assert resumed.bisect["minimal_set"] == fresh.bisect["minimal_set"]


# ----------------------------------------------------------------------
# Suspiciousness scoring
# ----------------------------------------------------------------------


class TestSuspicion:
    def test_regressed_sites_rank_first(self, pair):
        _wh, good, bad = pair
        rows = score_sites(good, bad)
        assert [row["site"] for row in rows[:3]] == sorted(REGRESSED)
        assert all(rows[i]["score"] >= rows[i + 1]["score"]
                   for i in range(len(rows) - 1))

    def test_row_fields_are_json_safe(self, pair):
        _wh, good, bad = pair
        rows = score_sites(good, bad)
        json.dumps(rows)
        for row in rows:
            assert 0.0 <= row["ochiai"] <= 1.0
            assert 0.0 <= row["tarantula"] <= 1.0
            assert row["bad_low"] <= row["bad_total"]
            assert row["good_low"] <= row["good_total"]

    def test_phase_shape_signature(self, pair):
        """A regression shows as flat -> level-shift; clean sites stay flat."""
        _wh, good, bad = pair
        by_site = {row["site"]: row for row in score_sites(good, bad)}
        for site in REGRESSED:
            assert by_site[site]["shape_good"] == "flat"
            assert by_site[site]["shape_bad"] == "level-shift"
            assert not by_site[site]["dependent_good"]
            assert by_site[site]["dependent_bad"]
        assert by_site[5]["shape_bad"] == "flat"


# ----------------------------------------------------------------------
# Report artifact
# ----------------------------------------------------------------------


class TestReportArtifact:
    def test_json_roundtrip_and_atomic_write(self, pair, tmp_path):
        wh, good, bad = pair
        report = triage_runs(wh, good, bad, thresholds_search=True)
        path = report.write(tmp_path / "triage_report.json")
        loaded = load_report(path)
        assert isinstance(loaded, TriageReport)
        assert loaded.bisect == report.bisect
        assert loaded.suspicion == report.suspicion
        assert not list(tmp_path.glob("*.tmp"))

    def test_render_has_no_wall_clock_data(self, pair):
        wh, good, bad = pair
        report = triage_runs(wh, good, bad)
        rendered = report.render()
        assert "wall" not in rendered
        assert str(report.bisect["minimal_set"]) in rendered
        assert report.meta["wall_seconds"] >= 0


# ----------------------------------------------------------------------
# Golden-fixture guard (shared with the CI triage-smoke job)
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "triage_bisect_synth.txt"


class TestGoldenGuard:
    """``db bisect`` output over the seeded synthetic pair is pinned.

    The CI ``triage-smoke`` job seeds the same pair (same seed, same
    MT19937 stream), bisects it — including a kill -9 / resume leg — and
    diffs stdout against this fixture, so the rendering, the ranking,
    and the minimal set itself are all frozen byte for byte.
    """

    def test_cli_bisect_matches_fixture(self, warehouse, capsys):
        from repro.cli import main

        seeded_run_pair(warehouse, regressed=REGRESSED)
        assert main(["db", "bisect", "r000001", "r000002",
                     "--thresholds", "--store", str(warehouse.root)]) == 0
        actual = capsys.readouterr().out
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(actual)
            pytest.skip(f"regenerated {GOLDEN}")
        assert GOLDEN.exists(), (
            f"missing fixture {GOLDEN}; run with REPRO_UPDATE_GOLDEN=1")
        assert actual == GOLDEN.read_text(), (
            "triage output drifted; if intentional, regenerate with "
            "REPRO_UPDATE_GOLDEN=1 and review the diff")
