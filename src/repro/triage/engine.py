"""Deterministic good/bad bisection over the branch-site set.

The core question after a regression alert: *which branch sites explain
the classification flip between a known-good run and the current bad
one?*  :class:`BisectionEngine` answers it the way AFDO's profile
bisection does — build hybrid profiles that take some sites from the
good run and the rest from the bad run, ask an external decider whether
the hybrid behaves "good", and delta-debug down to a minimal site subset
whose substitution alone flips the verdict.

Three properties the tests pin:

* **Determinism / order invariance** — candidates are canonically
  sorted before the search, every hybrid evaluation is a pure function
  of the stored runs, and the decider is memoized by canonical subset
  key, so the minimal set does not depend on iteration order.
* **Minimality** — the delta-debugging loop plus a final 1-minimization
  pass guarantee every reported site is necessary: dropping any single
  one un-flips the verdict.
* **Resumability** — every fresh decider evaluation appends to a JSON
  state file published with :func:`repro.cachefs.atomic_write_bytes`,
  so ``kill -9`` mid-search loses at most the evaluation in flight;
  a resumed search replays deterministically through the primed cache
  and produces a bit-identical report.

The hybrid verdict couples sites through the MEAN test's accuracy line:
when both runs carry per-site exec/correct counts whose ratios
bit-match the recorded overall accuracies, the hybrid's line is
recomputed from integer count sums per subset (``mode="coupled"``);
otherwise the bad run's stored line is reused (``mode="decoupled"``).
Either way the empty/full substitutions agree with
:func:`repro.store.queries.reclassify` on the endpoint runs, which is
the report's verification anchor.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.cachefs import atomic_write_bytes
from repro.core.stats import classify
from repro.errors import TriageError
from repro.obs import COUNT_BUCKETS, get_registry, get_tracer
from repro.store.queries import StoredRun

#: Bump when the persisted bisection-state schema changes.
STATE_VERSION = 1

#: Seconds to sleep after each *fresh* hybrid evaluation; the CI kill
#: test sets this to land its ``kill -9`` mid-search deterministically.
STEP_DELAY_ENV = "REPRO_TRIAGE_STEP_DELAY"

#: Halvings of each critical-threshold search (a 2**-24 bracket).
FLIP_SEARCH_ITERS = 24


def _stats_key(stats) -> tuple:
    return (stats.N, stats.SPA, stats.SSPA, stats.NPAM)


class BisectionEngine:
    """Minimal flipping-site-set search between two stored runs."""

    def __init__(
        self,
        good: StoredRun,
        bad: StoredRun,
        std_th: float | None = None,
        pam_th: float | None = None,
        state_path: str | Path | None = None,
    ):
        if good.record.num_sites != bad.record.num_sites:
            raise TriageError(
                f"runs disagree on num_sites ({good.record.num_sites} vs "
                f"{bad.record.num_sites}); bisect needs the same program")
        self.good = good
        self.bad = bad
        self.thresholds = bad.thresholds(std_th=std_th, pam_th=pam_th)
        self.state_path = Path(state_path) if state_path else None
        self.step_delay = float(os.environ.get(STEP_DELAY_ENV, "0") or 0)

        self._good_stats = good.all_stats()
        self._bad_stats = bad.all_stats()
        self._mode = self._pick_mode()
        self._decisions: dict[str, bool] = {}
        self.evals = 0
        self.cached_evals = 0
        self.resumed = False
        self._load_state()

        self.base_good = self._verdict(frozenset(self._universe()))
        self.base_bad = self._verdict(frozenset())

    # -- hybrid construction -------------------------------------------

    def _universe(self) -> set[int]:
        return set(self._good_stats) | set(self._bad_stats)

    def _pick_mode(self) -> str:
        """``coupled`` only when integer counts reproduce both stored
        accuracy lines bit-for-bit — the endpoint-consistency guard."""
        if not (self.good.record.has_counts and self.bad.record.has_counts):
            return "decoupled"
        for run in (self.good, self.bad):
            exec_counts, correct_counts = run.counts()
            total = int(np.sum(exec_counts))
            if total == 0:
                return "decoupled"
            ratio = float(int(np.sum(correct_counts)) / total)
            if ratio != run.record.overall_accuracy:
                return "decoupled"
        return "coupled"

    def _hybrid_line(self, subset: frozenset) -> float:
        """The MEAN test's accuracy line for one hybrid substitution."""
        if self._mode == "decoupled":
            return self.bad.record.overall_accuracy
        good_exec, good_correct = self.good.counts()
        bad_exec, bad_correct = self.bad.counts()
        take_good = np.zeros(self.bad.record.num_sites, dtype=bool)
        for site in subset:
            take_good[site] = True
        exec_total = int(np.sum(np.where(take_good, good_exec, bad_exec)))
        correct_total = int(np.sum(np.where(take_good, good_correct, bad_correct)))
        return float(correct_total / exec_total) if exec_total else 0.0

    def _verdict(self, subset: frozenset) -> frozenset:
        """Dependent-site set of the hybrid taking ``subset`` from good."""
        hybrid = dict(self._bad_stats)
        for site in subset:
            if site in self._good_stats:
                hybrid[site] = self._good_stats[site]
            else:
                hybrid.pop(site, None)
        line = self._hybrid_line(subset)
        return frozenset(
            site for site, stats in hybrid.items()
            if classify(stats, self.thresholds, line)
        )

    # -- memoized decider ----------------------------------------------

    @staticmethod
    def _subset_key(subset) -> str:
        return ",".join(str(site) for site in sorted(subset))

    def _decide(self, subset) -> bool:
        """True iff substituting ``subset`` makes the hybrid behave good."""
        key = self._subset_key(subset)
        cached = self._decisions.get(key)
        if cached is not None:
            self.cached_evals += 1
            return cached
        result = self._verdict(frozenset(subset)) == self.base_good
        self._decisions[key] = result
        self.evals += 1
        self._save_state()
        if self.step_delay:
            time.sleep(self.step_delay)
        return result

    # -- resumable state ------------------------------------------------

    def _state_key(self) -> dict:
        return {
            "good": self.good.run_id,
            "bad": self.bad.run_id,
            "good_digest": self.good.record.digest,
            "bad_digest": self.bad.record.digest,
            "mean_th": self.thresholds.mean_th,
            "std_th": self.thresholds.std_th,
            "pam_th": self.thresholds.pam_th,
            "mode": self._mode,
        }

    def _load_state(self) -> None:
        """Prime the decision cache from a prior interrupted search.

        Anything unusable — missing file, torn JSON, version or key
        mismatch — means a fresh start, never an error: resumable state
        is an optimization, not a correctness input.
        """
        if self.state_path is None or not self.state_path.exists():
            return
        try:
            doc = json.loads(self.state_path.read_text("utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict) or doc.get("version") != STATE_VERSION:
            return
        if doc.get("key") != self._state_key():
            return
        decisions = doc.get("decisions")
        if not isinstance(decisions, dict):
            return
        self._decisions = {str(k): bool(v) for k, v in decisions.items()}
        self.resumed = bool(self._decisions)

    def _save_state(self) -> None:
        if self.state_path is None:
            return
        doc = {
            "version": STATE_VERSION,
            "key": self._state_key(),
            "decisions": self._decisions,
            "evals": len(self._decisions),
        }
        atomic_write_bytes(
            self.state_path,
            json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8"),
        )

    # -- the search -----------------------------------------------------

    def candidates(self) -> list[int]:
        """Sites whose substitution could matter, canonically sorted."""
        sites = set()
        for site in self._universe():
            a = self._good_stats.get(site)
            b = self._bad_stats.get(site)
            if (a is None) != (b is None):
                sites.add(site)
            elif a is not None and _stats_key(a) != _stats_key(b):
                sites.add(site)
        if self._mode == "coupled":
            good_exec, good_correct = self.good.counts()
            bad_exec, bad_correct = self.bad.counts()
            diff = (np.asarray(good_exec) != np.asarray(bad_exec)) | (
                np.asarray(good_correct) != np.asarray(bad_correct))
            sites.update(int(s) for s in np.nonzero(diff)[0])
        return sorted(sites)

    def minimal_flipping_set(self) -> list[int]:
        """Smallest (1-minimal) site set whose substitution flips the run.

        Delta debugging over the sorted candidate list: repeatedly binary
        search the shortest prefix of the remaining candidates that,
        together with the sites already found, makes the hybrid good —
        the prefix's last element is necessary, everything after it is
        discarded.  A final pass re-checks each found site against the
        others, so the result is 1-minimal.
        """
        if self.base_good == self.base_bad:
            return []
        candidates = self.candidates()
        if not self._decide(candidates):
            raise TriageError(
                "substituting every differing site does not reproduce the "
                "good verdict; the runs disagree beyond their stored stats")
        found: list[int] = []
        remaining = list(candidates)
        while not self._decide(found):
            lo, hi = 1, len(remaining)
            while lo < hi:
                mid = (lo + hi) // 2
                if self._decide(found + remaining[:mid]):
                    hi = mid
                else:
                    lo = mid + 1
            found.append(remaining[lo - 1])
            remaining = remaining[:lo - 1]
        for site in list(found):
            trimmed = [s for s in found if s != site]
            if self._decide(trimmed):
                found = trimmed
        return sorted(found)

    # -- threshold-space search ----------------------------------------

    def threshold_flips(self) -> dict[str, dict[str, float]]:
        """Per-site critical thresholds that flip the bad run's verdict.

        For every site classified differently by the two endpoint runs,
        binary search (``FLIP_SEARCH_ITERS`` halvings — deterministic) the smallest
        ``std_th`` / ``pam_th`` under which the bad run's verdict for
        that site changes; both tests are monotone in their threshold,
        so the search is well defined.  Reuses the same stored stats and
        :func:`~repro.core.stats.classify` as the warehouse's
        ``reclassify`` — a threshold sweep with no replay.
        """
        line = self.bad.record.overall_accuracy
        flips: dict[str, dict[str, float]] = {}
        for site in sorted(self.base_good ^ self.base_bad):
            stats = self._bad_stats.get(site)
            if stats is None:
                continue

            def verdict_at(param: str, value: float) -> bool:
                return classify(stats, replace(self.thresholds, **{param: value}),
                                line)

            baseline = classify(stats, self.thresholds, line)
            entry: dict[str, float] = {}
            for param in ("std_th", "pam_th"):
                current = getattr(self.thresholds, param)
                if verdict_at(param, 1.0) != baseline:
                    lo, hi = current, 1.0        # flip lies above the current th
                elif verdict_at(param, 0.0) != baseline:
                    lo, hi = 0.0, current        # flip lies below it
                else:
                    continue                     # this test never decides the site
                for _ in range(FLIP_SEARCH_ITERS):
                    mid = (lo + hi) / 2.0
                    if verdict_at(param, mid) == verdict_at(param, lo):
                        lo = mid
                    else:
                        hi = mid
                entry[param] = (lo + hi) / 2.0
            if entry:
                flips[str(site)] = entry
        return flips

    # -- driver ----------------------------------------------------------

    def run(self, thresholds_search: bool = False) -> dict:
        """Full bisection pass; returns the report's ``bisect`` section."""
        registry = get_registry()
        start = time.perf_counter()
        with get_tracer().span("triage.bisect", cat="triage",
                               good=self.good.run_id, bad=self.bad.run_id) as sp:
            minimal = self.minimal_flipping_set()
            verified = (
                self.base_good != self.base_bad
                and bool(minimal)
                and self._decide(minimal)
            ) or self.base_good == self.base_bad
            flips = self.threshold_flips() if thresholds_search else None
            sp.set("minimal", len(minimal))
            sp.set("evals", self.evals)
        wall = time.perf_counter() - start
        registry.counter("triage_bisections_total").inc()
        registry.counter("triage_evals_total").labels(kind="fresh").inc(self.evals)
        registry.counter("triage_evals_total").labels(kind="cached").inc(self.cached_evals)
        registry.histogram("triage_bisect_steps", buckets=COUNT_BUCKETS).observe(self.evals)
        registry.histogram("triage_bisect_seconds").observe(wall)
        return {
            "mode": self._mode,
            "thresholds": {
                "mean_th": self.thresholds.mean_th,
                "std_th": self.thresholds.std_th,
                "pam_th": self.thresholds.pam_th,
            },
            "base_good": sorted(self.base_good),
            "base_bad": sorted(self.base_bad),
            "candidates": len(self.candidates()),
            "minimal_set": minimal,
            "verified": bool(verified),
            "evals": self.evals,
            "cached_evals": self.cached_evals,
            "resumed": self.resumed,
            "threshold_flips": flips,
            "wall_seconds": wall,
        }
