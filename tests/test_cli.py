"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.fluence == 1.0
        assert args.polar == 0.0

    def test_train_args(self):
        args = build_parser().parse_args(
            ["train", "--output", "x.pkl", "--exposures-per-angle", "3"]
        )
        assert args.output == "x.pkl"
        assert args.exposures_per_angle == 3

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.chunks == 4
        assert args.chunk_size == 4
        assert args.queue_limit == 256
        # The flush rule has no knobs, so batching flags are unknown
        # options rather than silently ignored ones.
        for flag in ("--deadline-ms", "--max-requests", "--max-rows"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", flag, "1"])

    def test_serve_load_defaults(self):
        args = build_parser().parse_args(
            ["serve-load", "--clients", "3", "--queue-limit", "5"]
        )
        assert args.clients == 3
        assert args.requests == 4
        assert args.queue_limit == 5
        assert not args.json


class TestCommands:
    def test_simulate_runs(self, capsys):
        rc = main(["simulate", "--fluence", "2.0", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "localization error" in out

    def test_simulate_status_goes_to_stderr(self, capsys):
        rc = main(["simulate", "--seed", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "[repro]" in captured.err
        assert "[repro]" not in captured.out

    def test_quiet_suppresses_status(self, capsys):
        rc = main(["simulate", "--seed", "3", "--quiet"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "localization error" in captured.out

    def test_localize_round_trip(self, tmp_path, tiny_models, capsys):
        from repro.io.datasets import save_pipeline

        path = tmp_path / "p.pkl"
        save_pipeline(tiny_models, path)
        rc = main(
            [
                "localize",
                "--pipeline", str(path),
                "--trials", "2",
                "--seed", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "68% containment" in out

    def test_serve_streams_chunks(self, tmp_path, tiny_models, capsys):
        from repro.io.datasets import save_pipeline

        path = tmp_path / "p.pkl"
        save_pipeline(tiny_models, path)
        rc = main(
            [
                "serve",
                "--pipeline", str(path),
                "--chunks", "2",
                "--chunk-size", "2",
                "--halt-after", "1",
                "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "chunk 1: 2 localizations" in out
        assert "chunk 2: 2 localizations" in out
        assert "served 4 requests" in out

    def test_serve_load_reports_json(self, tmp_path, tiny_models, capsys):
        import json

        from repro.io.datasets import save_pipeline

        path = tmp_path / "p.pkl"
        save_pipeline(tiny_models, path)
        rc = main(
            [
                "serve-load",
                "--pipeline", str(path),
                "--clients", "2",
                "--requests", "2",
                "--pool", "2",
                "--halt-after", "1",
                "--seed", "3",
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] == 4
        assert report["n_clients"] == 2
        assert report["req_per_s"] > 0
        assert report["p99_ms"] >= report["p50_ms"]


class TestTrace:
    def test_trace_writes_jsonl_and_disables_after(self, tmp_path, capsys):
        import repro.obs as obs

        trace_file = tmp_path / "t.jsonl"
        rc = main(["simulate", "--seed", "3", "--trace", str(trace_file)])
        assert rc == 0
        assert not obs.is_enabled()
        events = obs.load_jsonl(trace_file)
        names = {ev["name"] for ev in events if ev["type"] == "span"}
        assert "cli.simulate" in names
        assert "physics.transport" in names
        assert "localize.localize_rings" in names
        # The root span parents the instrumented pipeline stages.
        root = next(ev for ev in events if ev.get("name") == "cli.simulate")
        assert root["parent_id"] is None

    def test_traced_and_untraced_stdout_identical(self, tmp_path, capsys):
        rc = main(["simulate", "--seed", "11", "--quiet"])
        assert rc == 0
        plain = capsys.readouterr().out
        rc = main(["simulate", "--seed", "11", "--quiet",
                   "--trace", str(tmp_path / "t.jsonl")])
        assert rc == 0
        traced = capsys.readouterr().out
        assert plain == traced

    def test_trace_summary_renders_table(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        main(["simulate", "--seed", "3", "--quiet", "--trace", str(trace_file)])
        capsys.readouterr()
        rc = main(["trace-summary", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli.simulate" in out
        assert "% parent" in out

    def test_trace_summary_json(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "t.jsonl"
        main(["simulate", "--seed", "3", "--quiet", "--trace", str(trace_file)])
        capsys.readouterr()
        rc = main(["trace-summary", str(trace_file), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert "cli.simulate" in summary["stages"]
        assert set(summary) >= {"stages", "coverage", "counters",
                                "gauges", "histograms"}


class TestProfileAndMetrics:
    def test_profile_rides_the_trace_file(self, tmp_path, capsys):
        import repro.obs as obs

        trace_file = tmp_path / "t.jsonl"
        rc = main(["simulate", "--seed", "3", "--quiet",
                   "--trace", str(trace_file), "--profile",
                   "--profile-hz", "300", "--resources"])
        assert rc == 0
        assert not obs.profile.is_running()
        assert not obs.resources.is_running()
        events = obs.load_jsonl(trace_file)
        profiles = [ev for ev in events if ev["type"] == "profile"]
        assert len(profiles) == 1
        assert profiles[0]["samples"] > 0
        gauges = {ev["name"] for ev in events if ev["type"] == "gauge"}
        assert "res.rss_peak_mb" in gauges

    def test_profile_summary_renders_and_writes_folded(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        folded = tmp_path / "folded.txt"
        main(["simulate", "--seed", "3", "--quiet",
              "--trace", str(trace_file), "--profile-hz", "300"])
        capsys.readouterr()
        rc = main(["profile-summary", str(trace_file), "--top", "5",
                   "--folded", str(folded)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "samples over" in out
        assert folded.exists()
        line = folded.read_text().splitlines()[0]
        stack, count = line.rsplit(" ", 1)
        assert ";" in stack and int(count) > 0

    def test_profile_summary_without_profile_events(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        main(["simulate", "--seed", "3", "--quiet", "--trace", str(trace_file)])
        capsys.readouterr()
        rc = main(["profile-summary", str(trace_file)])
        assert rc == 0
        assert "no profile events" in capsys.readouterr().out

    def test_profile_requires_trace(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["simulate", "--profile"])
        assert "require --trace" in capsys.readouterr().err

    def test_metrics_out_streams_without_trace(self, tmp_path, capsys):
        import repro.obs as obs

        live = tmp_path / "live.jsonl"
        rc = main(["simulate", "--seed", "3", "--quiet",
                   "--metrics-out", str(live),
                   "--metrics-interval", "0.05"])
        assert rc == 0
        assert not obs.is_enabled()
        lines = obs.export.load_stream(live)
        assert lines
        assert lines[-1]["counters"]["transport.photons"] > 0
