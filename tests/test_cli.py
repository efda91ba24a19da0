"""Tests for the command-line driver."""

import json
import socket

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_option(self):
        args = build_parser().parse_args(["--scale", "0.5", "list"])
        assert args.scale == 0.5
        # Inputs clamp to each generator's minimum size; a tiny scale is valid.
        args = build_parser().parse_args(["--scale", "1e-9", "list"])
        assert args.scale == 1e-9

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_scale_must_be_finite_and_positive(self, value, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", value, "evaluate", "gzipish"])
        assert excinfo.value.code == 2
        assert "argument --scale" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_series_accepts_jobs(self):
        args = build_parser().parse_args(["series", "gzipish", "--jobs", "2"])
        assert args.jobs == 2

    def test_overhead_accepts_jobs_and_workloads(self):
        args = build_parser().parse_args(
            ["overhead", "gzipish", "mcfish", "--jobs", "3"]
        )
        assert args.jobs == 3
        assert args.workloads == ["gzipish", "mcfish"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7421
        assert args.host == "127.0.0.1"

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "gzipish"])
        assert args.port == 7421
        assert args.checkpoint_every == 0
        assert not args.resume


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "gzipish" in out and "eonish" in out

    def test_profile(self, capsys):
        code, out = run_cli(capsys, "--scale", "0.03", "profile", "vortexish")
        assert code == 0
        assert "predicted input-dependent" in out

    def test_evaluate(self, capsys):
        code, out = run_cli(capsys, "--scale", "0.03", "evaluate", "vortexish")
        assert code == 0
        assert "COV-dep" in out and "ACC-indep" in out

    def test_fig2_needs_no_runs(self, capsys):
        code, out = run_cli(capsys, "fig", "2")
        assert code == 0
        assert "predication" in out

    def test_fig_unknown(self, capsys):
        code = main(["fig", "99"])
        assert code == 2

    def test_series(self, capsys):
        code, out = run_cli(capsys, "--scale", "0.05", "series", "vortexish")
        assert code == 0
        assert "mean=" in out

    def test_overhead(self, capsys):
        code, out = run_cli(capsys, "--scale", "0.02", "overhead", "mcfish")
        assert code == 0
        assert "2d+gshare" in out

    def test_overhead_multiple_workloads(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.02", "overhead", "mcfish", "gzipish", "--jobs", "2"
        )
        assert code == 0
        assert "mcfish" in out and "gzipish" in out

    def test_series_with_jobs(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "0.05", "series", "vortexish", "--jobs", "2"
        )
        assert code == 0
        assert "mean=" in out


def closed_port() -> int:
    """A local port that was bound and then closed: nothing listens there."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestNoServer:
    @pytest.mark.parametrize("command", [["stats"], ["fleet", "loadgen"]])
    def test_connect_refused_is_an_error_line(self, command, capsys):
        port = closed_port()
        code = main([*command, "--port", str(port)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot connect to 127.0.0.1:{port}:")
        assert "Traceback" not in err


class TestStreamCommand:
    def test_stream_verify_and_pause_resume(self, capsys, tmp_path):
        from repro.service.server import ProfilingServer, ServerThread

        thread = ServerThread(
            ProfilingServer(checkpoint_dir=tmp_path / "ckpt")).start()
        port = str(thread.port)
        try:
            # Full stream, verified bit-identical against the offline path.
            code, out = run_cli(
                capsys, "--scale", "0.03", "stream", "mcfish",
                "--port", port, "--verify",
            )
            assert code == 0
            assert "predicted input-dependent" in out
            assert "bit-identical" in out

            # Interrupted stream pauses at a checkpoint...
            code, out = run_cli(
                capsys, "--scale", "0.03", "stream", "vortexish",
                "--port", port, "--batch", "512",
                "--stop-after-events", "1024", "--session", "paused-run",
            )
            assert code == 0
            assert "paused" in out and "--resume" in out

            # ...a resume under other thresholds is refused with an error...
            code = main(["--scale", "0.03", "stream", "vortexish", "--port", port,
                         "--session", "paused-run", "--resume", "--std-th", "0.08"])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error:") and "std_th" in err

            # ...and --resume finishes it, still matching offline exactly.
            code, out = run_cli(
                capsys, "--scale", "0.03", "stream", "vortexish",
                "--port", port, "--session", "paused-run",
                "--resume", "--verify",
            )
            assert code == 0
            assert "bit-identical" in out
        finally:
            thread.drain()

    def test_fleet_loadgen_json(self, capsys):
        from repro.service.server import ProfilingServer, ServerThread

        thread = ServerThread(ProfilingServer(port=0)).start()
        try:
            code, out = run_cli(
                capsys, "fleet", "loadgen", "--port", str(thread.port),
                "--streams", "4", "--events", "600", "--verify-sample", "1",
                "--json",
            )
        finally:
            thread.drain()
        assert code == 0
        result = json.loads(out)
        assert result["failed_streams"] == result["verify_failures"] == 0
        assert result["verified"] == 1
        assert result["events_total"] == 2400
        assert "pr" not in result


class TestExtensionCommands:
    def test_whatif(self, capsys):
        code, out = run_cli(capsys, "--scale", "0.03", "whatif", "vortexish")
        assert code == 0
        assert "aggregate" in out and "2d-aware" in out

    def test_phases(self, capsys):
        code, out = run_cli(capsys, "--scale", "0.05", "phases", "vortexish")
        assert code == 0
        assert "phase shapes" in out

    def test_report(self, capsys, tmp_path):
        out = tmp_path / "r.md"
        code, text = run_cli(capsys, "--scale", "0.03", "report", "--out", str(out))
        assert code == 0
        content = out.read_text()
        assert "Figure 10" in content and "Figure 16" not in content
        assert "Table 4" in content


class TestVersionAndThresholds:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro-2dprof 1." in capsys.readouterr().out

    def test_threshold_flags_parse(self):
        args = build_parser().parse_args(
            ["profile", "gzipish", "--std-th", "0.08", "--pam-th", "0.1"])
        assert args.std_th == 0.08 and args.pam_th == 0.1
        for command in (["evaluate", "gzipish"], ["fig", "3"],
                        ["stream", "gzipish"], ["db", "reclassify", "r000001"]):
            args = build_parser().parse_args(command + ["--std-th", "0.02"])
            assert args.std_th == 0.02

    def test_thresholds_change_classification(self, capsys):
        code, strict = run_cli(capsys, "--scale", "0.03", "profile", "vortexish",
                               "--std-th", "0.9", "--pam-th", "1.0")
        assert code == 0
        # Impossible thresholds: STD can't exceed 0.5 and PAM can't exceed 1,
        # and the PAM test is conjunctive, so nothing may be flagged.
        assert "predicted input-dependent (0)" in strict

    def test_stream_keep_series_flag(self):
        args = build_parser().parse_args(["stream", "gzipish", "--keep-series"])
        assert args.keep_series

    def test_serve_warehouse_dir_flag(self):
        args = build_parser().parse_args(["serve", "--warehouse-dir", "/tmp/x"])
        assert args.warehouse_dir == "/tmp/x"
        assert build_parser().parse_args(["serve"]).warehouse_dir is None


class TestDbCommands:
    @pytest.fixture()
    def store(self, tmp_path):
        return str(tmp_path / "wh")

    def _ingest(self, capsys, store):
        return run_cli(capsys, "--scale", "0.03", "db", "ingest", "vortexish",
                       "--inputs", "train", "ref", "--store", store)

    def test_ingest_query_diff_reclassify(self, capsys, store):
        code, out = self._ingest(capsys, store)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("r")]
        assert len(lines) == 2
        train_id, ref_id = (line.split(":")[0] for line in lines)

        code, out = run_cli(capsys, "db", "query", "--store", store)
        assert code == 0
        assert train_id in out and "2 run(s)" in out

        code, out = run_cli(capsys, "db", "query", train_id, "--store", store)
        assert code == 0
        assert "profiled branches" in out and '"std_th": 0.04' in out

        code, diff_out = run_cli(capsys, "db", "diff", train_id, ref_id,
                                 "--store", store)
        assert code == 0
        assert "input-dependent (" in diff_out and "dependent fraction:" in diff_out

        code, out = run_cli(capsys, "db", "reclassify", train_id,
                            "--std-th", "0.9", "--pam-th", "1.0", "--store", store)
        assert code == 0
        assert "input-dependent (0):" in out

        # diff straight from the store matches the live pipeline's labels.
        from repro.core.experiment import ExperimentRunner, SuiteConfig

        truth = ExperimentRunner(SuiteConfig(scale=0.03)).ground_truth(
            "vortexish", "gshare")
        expected = " ".join(map(str, sorted(truth.dependent)))
        assert f"input-dependent ({len(truth.dependent)}): {expected}" in diff_out

    def test_ingest_is_idempotent(self, capsys, store):
        _code, first = self._ingest(capsys, store)
        _code, second = self._ingest(capsys, store)
        assert first == second  # dedupe returns the same run ids

    def test_site_series_output(self, capsys, store):
        self._ingest(capsys, store)
        code, out = run_cli(capsys, "db", "query", "r000001", "--site", "0",
                            "--store", store)
        assert code == 0
        assert all(len(line.split()) == 2 for line in out.splitlines() if line)

    def test_compact_and_gc(self, capsys, store):
        self._ingest(capsys, store)  # one batch: one segment
        code, out = run_cli(capsys, "db", "query", "--store", store)
        assert "2 run(s), 1 segment(s)" in out
        code, _out = run_cli(capsys, "--scale", "0.03", "db", "ingest", "vortexish",
                             "--inputs", "train", "--predictor", "bimodal",
                             "--store", store)
        assert code == 0
        code, out = run_cli(capsys, "db", "compact", "--store", store)
        assert code == 0
        assert "2 -> 1 segment(s)" in out
        code, out = run_cli(capsys, "db", "gc", "--store", store)
        assert code == 0
        assert "gc:" in out
        code, out = run_cli(capsys, "db", "query", "--store", store)
        assert code == 0
        assert "3 run(s), 1 segment(s)" in out

    def test_gc_dry_run_previews_without_deleting(self, capsys, store):
        from pathlib import Path

        self._ingest(capsys, store)
        orphan = Path(store) / "segments" / "seg-dead"
        orphan.mkdir()
        (orphan / "acc.npy").write_bytes(b"partial")

        code, out = run_cli(capsys, "db", "gc", "--dry-run", "--store", store)
        assert code == 0
        assert "would remove" in out
        assert orphan.exists()

        code, out = run_cli(capsys, "db", "gc", "--store", store)
        assert code == 0
        assert "would remove" not in out
        assert not orphan.exists()

    def test_bisect_reports_the_regression(self, capsys, store):
        from repro.store import ProfileWarehouse
        from repro.triage import seeded_run_pair

        warehouse = ProfileWarehouse(store)
        good_id, bad_id = seeded_run_pair(warehouse, regressed=(3, 7, 11))

        code, out = run_cli(capsys, "db", "bisect", good_id, bad_id,
                            "--store", store)
        assert code == 0
        assert "[3, 7, 11]" in out
        assert "suspiciousness" in out.lower()

        # The JSON form carries the same verdict, machine readable.
        code, out = run_cli(capsys, "db", "bisect", good_id, bad_id,
                            "--json", "--store", store)
        doc = json.loads(out)
        assert code == 0
        assert doc["bisect"]["minimal_set"] == [3, 7, 11]
        assert doc["bisect"]["verified"] is True
        assert doc["bisect"]["resumed"] is True  # state survived run one

    def test_bisect_report_artifact(self, capsys, store, tmp_path):
        from repro.store import ProfileWarehouse
        from repro.triage import load_report, seeded_run_pair

        warehouse = ProfileWarehouse(store)
        good_id, bad_id = seeded_run_pair(warehouse, regressed=(5,))
        out_path = tmp_path / "report.json"
        code, _out = run_cli(capsys, "db", "bisect", good_id, bad_id,
                             "--report", str(out_path), "--store", store)
        assert code == 0
        report = load_report(out_path)
        assert report.bisect["minimal_set"] == [5]

    def test_join_runs(self, capsys, store):
        self._ingest(capsys, store)
        code, out = run_cli(capsys, "db", "join", "r000001", "r000002",
                            "--store", store)
        assert code == 0
        assert "shared branches" in out

    def test_missing_store_is_a_clean_error(self, capsys, tmp_path):
        code = main(["db", "query", "--store", str(tmp_path / "nope")])
        assert code == 1
