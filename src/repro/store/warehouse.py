"""The profile warehouse: an append-only columnar store of 2D-profiles.

:class:`ProfileWarehouse` turns profiling runs from transient in-memory
objects into a durable, queryable dataset.  Every cross-input question the
experiment suite answers by re-simulating traces (ground-truth deltas,
cross-predictor joins, threshold sweeps) can be answered from the store
with zero trace replay — see :mod:`repro.store.queries`.

Durability contract (mirrors the experiment cache's, tested in
``tests/test_store_durability.py``):

* **Commit protocol** — an ingest batch's segment arrays are fully
  written and fsynced *before* its one manifest commit, which appends
  one checksummed record to the manifest log under a flock (see
  :mod:`repro.store.manifest`).  kill -9 at any instant leaves the store
  openable, with every run of the interrupted batch absent.
* **Garbage, not corruption** — segment directories the manifest does not
  reference are leftovers of crashed ingests; :meth:`gc` sweeps them
  (and ``*.tmp`` litter).  They are never opened by queries.
* **Corruption-as-miss** — a committed run whose segment files are later
  truncated or overwritten fails validation; :meth:`find` skips it (so
  callers re-ingest) and :meth:`check` names it for ``gc --purge-corrupt``.
"""

from __future__ import annotations

import dataclasses
import logging
import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.cachefs import TMP_SUFFIX
from repro.errors import StoreError
from repro.obs import get_registry, get_tracer
from repro.store.layout import (
    MANIFEST_NAME,
    SEGMENTS_DIRNAME,
    IngestRun,
    RunRecord,
    SegmentRecord,
    config_digest,
    csr_from_series,
)
from repro.store.manifest import Manifest, ManifestFile
from repro.store.queries import StoredRun
from repro.store.segments import SegmentBuilder, SegmentReader

log = logging.getLogger(__name__)


@dataclass
class GcStats:
    """What one :meth:`ProfileWarehouse.gc` pass removed."""

    segments_removed: int = 0
    tmp_files_removed: int = 0
    runs_purged: int = 0


@dataclass
class CompactStats:
    """Outcome of one :meth:`ProfileWarehouse.compact` pass."""

    runs_rewritten: int = 0
    segments_before: int = 0
    segments_after: int = 0
    bytes_written: int = 0


class ProfileWarehouse:
    """Open (or create) the profile warehouse rooted at ``root``."""

    def __init__(self, root: str | Path, create: bool = True):
        self.root = Path(root)
        self.manifest_path = self.root / MANIFEST_NAME
        self._manifest = ManifestFile(self.manifest_path)
        self.log_path = self._manifest.log_path
        self.segments_root = self.root / SEGMENTS_DIRNAME
        if create:
            self.segments_root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"no warehouse at {self.root}")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self, runs: Iterable[IngestRun], *, dedupe: bool = True) -> list[str]:
        """Append a batch of profiling runs; returns one run id per input.

        Each :class:`~repro.store.layout.IngestRun` carries a report
        profiled with ``keep_series=True`` (the raw slice matrix is the
        stored payload); its ``config.to_dict()`` is stored with the run
        and digested into the dedupe key.  A run without ``sim`` counts
        cannot participate in ground-truth ``diff`` queries.

        The batch is all-or-nothing: every item is validated before any
        file is written, the new runs go into one segment, and one
        manifest commit makes them visible, with run ids allocated in
        input order.  With ``dedupe`` (default), a run already stored
        under the same (workload, input, predictor, config-digest, scale)
        key returns the stored id, and a repeat inside the batch returns
        the id of its first occurrence.  A batch with nothing new writes
        nothing.
        """
        items = list(runs)
        with get_tracer().span("store.ingest", cat="store", runs=len(items)) as sp:
            prepared = [self._prepare(item) for item in items]
            keys = [key for key, _config, _arrays in prepared]
            stored = self._dedupe_index(keys) if dedupe else {}
            run_ids = [stored.get(key) for key in keys]
            fresh: list[int] = []         # indices of items that get a new run
            first: dict[tuple, int] = {}  # key -> its first fresh index
            for index, key in enumerate(keys):
                if run_ids[index] is None and (not dedupe or key not in first):
                    first.setdefault(key, index)
                    fresh.append(index)
            sp.set("dedupe_hits", len(items) - len(fresh))
            if fresh:
                new_ids = self._commit([items[i] for i in fresh],
                                       [prepared[i] for i in fresh])
                for index, run_id in zip(fresh, new_ids):
                    run_ids[index] = run_id
            return [run_id or run_ids[first[key]] for run_id, key in zip(run_ids, keys)]

    @staticmethod
    def _prepare(item: IngestRun) -> tuple[tuple, dict, tuple]:
        """Validate one batch item; returns (dedupe key, config, arrays)."""
        report = item.report
        if report.series is None:
            raise StoreError(
                "ingest needs the raw slice matrix; profile with keep_series=True"
            )
        config = report.config.to_dict()
        num_sites = report.num_sites
        n_slices = int(report.series.shape[0])
        if item.sim is not None:
            exec_counts = np.asarray(item.sim.exec_counts, dtype=np.int64)
            correct_counts = np.asarray(item.sim.correct_counts, dtype=np.int64)
            if exec_counts.size != num_sites:
                raise StoreError("sim counts do not match the report's num_sites")
        else:
            exec_counts = np.zeros(num_sites, dtype=np.int64)
            correct_counts = np.zeros(num_sites, dtype=np.int64)
        overall = (
            np.asarray(report.slice_overall, dtype=np.float64)
            if report.slice_overall is not None
            else np.zeros(n_slices, dtype=np.float64)
        )
        acc, slice_idx, indptr = csr_from_series(report.series)
        key = (item.workload, item.input_name, item.predictor,
               config_digest(config), float(item.scale))
        return key, config, (acc, slice_idx, indptr, exec_counts, correct_counts, overall)

    def _dedupe_index(self, keys: list[tuple]) -> dict[tuple, str]:
        """Latest *valid* stored run id per dedupe key, from one manifest read.

        Candidates are validated exactly as :meth:`find` does: a corrupt
        run is a miss and bumps ``store_corrupt_total``.
        """
        manifest = self.manifest()
        wanted = {key[:3] for key in keys}
        candidates: dict[tuple, list[RunRecord]] = {}
        for rec in manifest.runs.values():
            if rec.key in wanted:
                candidates.setdefault(rec.key + (rec.digest, rec.scale), []).append(rec)
        index = {}
        for key in set(keys):
            rec = self._latest_valid(manifest, candidates.get(key, []))
            if rec is not None:
                index[key] = rec.run_id
        return index

    def _commit(self, items: list[IngestRun], prepared: list[tuple]) -> list[str]:
        """Write ``items`` as one segment, commit them at once; returns their ids."""
        builder = SegmentBuilder()
        offsets = [builder.add_run(*arrays) for _key, _config, arrays in prepared]
        uid = f"seg-{uuid.uuid4().hex[:12]}"
        sizes = builder.write(self.segments_root / uid)
        run_ids = []
        with self._manifest.commit() as manifest:
            manifest.add_segment(
                SegmentRecord(uid=uid, entries=builder.entries, files=sizes))
            for item, (_key, config, _arrays), run_offsets in zip(items, prepared, offsets):
                run_ids.append(manifest.allocate_run_id())
                manifest.add_run(RunRecord(
                    run_id=run_ids[-1],
                    workload=item.workload,
                    input=item.input_name,
                    predictor=item.predictor,
                    scale=float(item.scale),
                    source=item.source,
                    config=config,
                    num_sites=item.report.num_sites,
                    n_slices=int(item.report.series.shape[0]),
                    overall_accuracy=float(item.report.overall_accuracy),
                    has_counts=item.sim is not None,
                    segment=uid,
                    **run_offsets,
                ))
        self._count_ingest(len(items), builder.entries, sizes)
        return run_ids

    @staticmethod
    def _count_ingest(runs: int, rows: int, sizes: dict[str, int]) -> None:
        registry = get_registry()
        registry.counter("store_runs_total", "runs committed to the warehouse").inc(runs)
        registry.counter("store_segments_total", "segments written").inc()
        registry.counter("store_rows_total", "columnar entries committed").inc(rows)
        registry.counter("store_bytes_total", "segment bytes written").inc(sum(sizes.values()))

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def manifest(self) -> Manifest:
        """The committed manifest image, shared: callers must not change it.

        The instance caches the parsed image.  A call stats the snapshot
        and reads only the log bytes appended since the previous call; it
        re-parses the snapshot only after another writer folded it.
        """
        return self._manifest.read()

    def runs(
        self,
        workload: str | None = None,
        input_name: str | None = None,
        predictor: str | None = None,
    ) -> list[RunRecord]:
        """Committed runs matching the filters, oldest first."""
        records = [
            rec for rec in self.manifest().runs.values()
            if (workload is None or rec.workload == workload)
            and (input_name is None or rec.input == input_name)
            and (predictor is None or rec.predictor == predictor)
        ]
        return sorted(records, key=lambda rec: rec.run_id)

    def find(
        self,
        workload: str,
        input_name: str,
        predictor: str,
        digest: str | None = None,
        scale: float | None = None,
    ) -> RunRecord | None:
        """Latest *valid* run under a key; corrupt candidates are misses."""
        manifest = self.manifest()
        return self._latest_valid(manifest, [
            rec for rec in manifest.runs.values()
            if rec.key == (workload, input_name, predictor)
            and (digest is None or rec.digest == digest)
            and (scale is None or rec.scale == scale)
        ])

    def _latest_valid(self, manifest, candidates: list[RunRecord]) -> RunRecord | None:
        for rec in sorted(candidates, key=lambda rec: rec.run_id, reverse=True):
            try:
                self._reader(manifest, rec).validate()
            except StoreError as exc:
                log.warning("run %s unreadable (%s); treating as missing", rec.run_id, exc)
                get_registry().counter(
                    "store_corrupt_total", "runs skipped due to segment corruption").inc()
                continue
            return rec
        return None

    def _reader(self, manifest, record: RunRecord) -> SegmentReader:
        segment = manifest.segments.get(record.segment)
        if segment is None:
            raise StoreError(f"run {record.run_id} references unknown segment "
                             f"{record.segment}")
        return SegmentReader(self.segments_root / segment.uid, segment.files)

    def open_run(self, run: str | RunRecord) -> StoredRun:
        """A query handle over one committed run (validated, memmapped)."""
        return self.open_runs([run])[0]

    def open_runs(self, runs: Iterable[str | RunRecord]) -> list[StoredRun]:
        """Query handles over many runs, from one manifest image.

        Runs in one segment share one validated :class:`SegmentReader`,
        so each segment file is memory-mapped once.
        """
        return self._open(self.manifest(), runs)

    def _open(self, manifest, runs: Iterable[str | RunRecord]) -> list[StoredRun]:
        readers: dict[str, SegmentReader] = {}
        opened = []
        for run in runs:
            if isinstance(run, str):
                record = manifest.runs.get(run)
                if record is None:
                    raise StoreError(f"unknown run {run!r}")
            else:
                record = run
            reader = readers.get(record.segment)
            if reader is None:
                reader = readers[record.segment] = self._reader(manifest, record)
                reader.validate()
            opened.append(StoredRun(record, reader))
        return opened

    def check(self) -> list[str]:
        """Run ids whose segment data fails validation (corrupt/missing)."""
        manifest = self.manifest()
        corrupt = []
        for run_id, record in sorted(manifest.runs.items()):
            try:
                self._reader(manifest, record).validate()
            except StoreError:
                corrupt.append(run_id)
        return corrupt

    def stats(self) -> dict:
        """Catalog summary: run/segment counts, rows, bytes on disk."""
        manifest = self.manifest()
        total_bytes = sum(
            sum(seg.files.values()) for seg in manifest.segments.values())
        return {
            "runs": len(manifest.runs),
            "segments": len(manifest.segments),
            "entries": sum(seg.entries for seg in manifest.segments.values()),
            "bytes": total_bytes,
            "corrupt_runs": len(self.check()),
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def gc(self, purge_corrupt: bool = False, dry_run: bool = False) -> GcStats:
        """Sweep crash leftovers: unreferenced segment dirs and tmp files.

        With ``purge_corrupt``, committed runs whose segment data fails
        validation are also dropped from the manifest (their segments are
        then unreferenced and removed on the same pass).  With
        ``dry_run``, nothing is deleted and the manifest is untouched —
        the returned :class:`GcStats` counts what a real pass *would*
        remove (a test pins that a dry run leaves the manifest
        byte-identical).  Like :func:`repro.cachefs.sweep_tmp_files`, gc
        assumes no ingest is concurrently mid-commit.
        """
        stats = GcStats()
        with get_tracer().span("store.gc", cat="store", dry_run=dry_run):
            manifest = self.manifest()
            live = set(manifest.segments)
            if purge_corrupt:
                corrupt = set(self.check())
                if corrupt and dry_run:
                    stats.runs_purged = len(corrupt & set(manifest.runs))
                    live = {rec.segment for run_id, rec in manifest.runs.items()
                            if run_id not in corrupt}
                elif corrupt:
                    with self._manifest.commit() as manifest:
                        for run_id in corrupt:
                            if run_id in manifest.runs:
                                del manifest.runs[run_id]
                                stats.runs_purged += 1
                        self._drop_orphan_segments(manifest)
                    manifest = self.manifest()
                    live = set(manifest.segments)
            for path in sorted(self.segments_root.iterdir() if self.segments_root.is_dir() else []):
                if path.name.endswith(TMP_SUFFIX) or (path.is_file() and TMP_SUFFIX in path.name):
                    if not dry_run:
                        path.unlink(missing_ok=True)
                    stats.tmp_files_removed += 1
                elif path.is_dir() and path.name not in live:
                    if not dry_run:
                        for leftover in path.iterdir():
                            leftover.unlink(missing_ok=True)
                        path.rmdir()
                    stats.segments_removed += 1
            for leftover in self.root.glob(f"*{TMP_SUFFIX}"):
                if not dry_run:
                    leftover.unlink(missing_ok=True)
                stats.tmp_files_removed += 1
        if not dry_run and (
                stats.segments_removed or stats.tmp_files_removed or stats.runs_purged):
            log.info("store gc: removed %d segment dir(s), %d tmp file(s), "
                     "purged %d run(s)", stats.segments_removed,
                     stats.tmp_files_removed, stats.runs_purged)
        return stats

    @staticmethod
    def _drop_orphan_segments(manifest) -> list[str]:
        """Drop segments no run references; returns their uids."""
        referenced = {rec.segment for rec in manifest.runs.values()}
        dropped = [uid for uid in manifest.segments if uid not in referenced]
        for uid in dropped:
            del manifest.segments[uid]
        return dropped

    def compact(self) -> CompactStats:
        """Rewrite every live run into one consolidated segment.

        The new segment is fully written before the manifest repoints the
        runs at it, so compaction interrupted at any instant leaves either
        the old layout (plus an unreferenced new segment — gc fodder) or
        the new one.  The segments this commit supersedes are unlinked
        after it; if that is interrupted, gc finishes the job.  Other
        unreferenced directories are left alone: one may be a concurrent
        ingest's segment, written but not yet committed.
        """
        with get_tracer().span("store.compact", cat="store") as sp:
            manifest = self.manifest()
            records = sorted(manifest.runs.values(), key=lambda rec: rec.run_id)
            stats = CompactStats(segments_before=len(manifest.segments))
            if not records:
                return stats
            builder = SegmentBuilder()
            offsets_by_run: dict[str, dict[str, int]] = {}
            for run in self._open(manifest, records):
                record = run.record
                slice_idx, acc = run.reader.run_entries(record)
                indptr = run.reader.run_indptr(record)
                exec_counts, correct_counts = run.reader.run_counts(record)
                overall = run.reader.run_overall(record)
                # Rebase indptr to the run-local origin the record expects.
                offsets_by_run[record.run_id] = builder.add_run(
                    np.asarray(acc), np.asarray(slice_idx),
                    np.asarray(indptr) - int(indptr[0]),
                    np.asarray(exec_counts), np.asarray(correct_counts),
                    np.asarray(overall),
                )
            uid = f"seg-{uuid.uuid4().hex[:12]}"
            sizes = builder.write(self.segments_root / uid)
            stats.bytes_written = sum(sizes.values())

            with self._manifest.commit() as manifest:
                manifest.add_segment(
                    SegmentRecord(uid=uid, entries=builder.entries, files=sizes))
                for record in records:
                    live = manifest.runs.get(record.run_id)
                    if live is None or live.segment != record.segment:
                        continue  # changed underneath us; leave it alone
                    manifest.runs[record.run_id] = dataclasses.replace(
                        live, segment=uid, **offsets_by_run[record.run_id])
                    stats.runs_rewritten += 1
                superseded = self._drop_orphan_segments(manifest)
                stats.segments_after = len(manifest.segments)
            # Best-effort removal of superseded directories; gc can finish.
            for superseded_uid in superseded:
                shutil.rmtree(self.segments_root / superseded_uid, ignore_errors=True)
            get_registry().counter("store_compactions_total", "compaction passes").inc()
            sp.set("runs", stats.runs_rewritten)
            return stats
