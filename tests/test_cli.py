"""CLI tests (fast subcommands only)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_args(self):
        args = build_parser().parse_args(
            ["synth", "--pos", "0", "--neg", "1", "--backend", "cpu"]
        )
        assert args.pos == ["0"]
        assert args.backend == "cpu"


class TestSynthCommand:
    def test_success_exit_code(self, capsys):
        code = main(["synth", "--pos", "0", "00", "--neg", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status     : success" in out
        assert "regex" in out

    def test_not_found_exit_code(self, capsys):
        code = main(["synth", "--pos", "0101", "--neg", "01",
                     "--max-generated", "5"])
        assert code == 1

    def test_error_flag(self, capsys):
        code = main(["synth", "--pos", "0", "1", "--neg", "00",
                     "--error", "0.4"])
        assert code == 0

    def test_cost_flag(self, capsys):
        code = main(["synth", "--pos", "0", "--neg", "1",
                     "--cost", "(5,5,5,5,5)"])
        assert code == 0
        assert "cost       : 5" in capsys.readouterr().out


class TestCostParsing:
    @pytest.mark.parametrize("bad", ["", "abc", "1,2", "1,2,3,4,5,6",
                                     "1,,2,3,4", "(1,2,x,4,5)"])
    def test_malformed_cost_is_a_clean_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--pos", "0", "--neg", "1", "--cost", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cost" in err
        assert "Traceback" not in err

    def test_non_positive_component_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--pos", "0", "--neg", "1", "--cost", "1,0,1,1,1"])
        assert excinfo.value.code == 2

    def test_parenthesised_cost_still_accepted(self, capsys):
        assert main(["synth", "--pos", "0", "--neg", "1",
                     "--cost", "(5, 5, 5, 5, 5)"]) == 0


class TestSpecFile:
    def test_round_trips_spec_json(self, tmp_path, capsys):
        from repro.spec import Spec

        spec = Spec(["10", "100"], ["", "0", "1"])
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert main(["synth", "--spec-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status     : success" in out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--spec-file", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_invalid_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--spec-file", str(path)])
        assert excinfo.value.code == 2
        assert "invalid spec JSON" in capsys.readouterr().err

    def test_conflicts_with_pos_neg(self, tmp_path, capsys):
        from repro.spec import Spec

        path = tmp_path / "spec.json"
        path.write_text(Spec(["0"], ["1"]).to_json(), encoding="utf-8")
        code = main(["synth", "--spec-file", str(path), "--pos", "0"])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestProgressAndLimits:
    def test_progress_streams_level_lines(self, capsys):
        assert main(["synth", "--pos", "10", "100", "--neg", "", "0",
                     "--progress"]) == 0
        out = capsys.readouterr().out
        assert "level" in out

    def test_time_limit_zero_reports_cancelled(self, capsys):
        code = main(["synth", "--pos", "0101", "--neg", "01",
                     "--time-limit", "0"])
        assert code == 1
        assert "cancelled" in capsys.readouterr().out


class TestSuiteCommand:
    def test_prints_benchmarks(self, capsys):
        code = main(["suite", "--type", "2", "--count", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("T2-") == 3


class TestErrorTableCommand:
    def test_small_sweep(self, capsys):
        code = main(["error-table", "--errors", "50", "45"])
        assert code == 0
        out = capsys.readouterr().out
        assert "∅" in out


class TestBackendsCommand:
    def test_lists_engines_aliases_and_capabilities(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "scalar" in out and "vector" in out
        assert "cpu" in out and "gpu" in out
        assert "batch-serving" in out and "vectorised" in out


class TestServeAndSubmit:
    def _job_line(self, positives, negatives, **extra):
        import json

        payload = {"spec": {"positive": positives, "negative": negatives}}
        payload.update(extra)
        return json.dumps(payload)

    def test_serve_batch_mode_with_dedupe(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "\n".join([
                self._job_line(["0", "00"], ["1"]),
                self._job_line(["10", "101"], ["", "0"], priority=0),
                self._job_line(["0", "00"], ["1"]),  # duplicate
                # The same question again, its backend spelled by alias.
                self._job_line(["0", "00"], ["1"],
                               config={"backend": "gpu"}),
            ]) + "\n",
            encoding="utf-8",
        )
        store = tmp_path / "store"
        code = main(["serve", "--store", str(store), "--workers", "2",
                     "--jobs", str(jobs)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 served" in out
        assert "2 deduplicated" in out
        answers = sorted((store / "outbox").glob("*.json"))
        assert len(answers) == 2
        statuses = {json.loads(p.read_text())["status"] for p in answers}
        assert statuses == {"success"}
        # The persistent caches were populated for warm restarts.
        assert list((store / "staging").glob("*.pkl"))
        assert list((store / "results").glob("*.pkl"))

    def test_serve_requires_jobs(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--store", str(tmp_path / "store")])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_serve_batch_skips_malformed_jsonl_lines(self, tmp_path,
                                                     capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "\n".join([
                "{not valid json",
                '{"no_spec_key": true}',
                self._job_line(["0"], ["1"], config={"backend": "nope"}),
                self._job_line(["0", "00"], ["1"]),
            ]) + "\n",
            encoding="utf-8",
        )
        store = tmp_path / "store"
        code = main(["serve", "--store", str(store), "--workers", "1",
                     "--jobs", str(jobs)])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 served" in captured.out
        assert "skipping" in captured.err
        assert "line 1" in captured.err and "line 2" in captured.err
        assert "line 3" in captured.err and "unknown backend" in captured.err
        assert len(list((store / "outbox").glob("*.json"))) == 1


class TestByteBudgetParsing:
    def test_suffixes(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("500000") == 500_000
        assert _parse_bytes("64K") == 64 * 1024
        assert _parse_bytes("2m") == 2 * 1024 ** 2
        assert _parse_bytes("1G") == 1024 ** 3

    @pytest.mark.parametrize("bad", ["", "lots", "1.5M", "-3"])
    def test_malformed_is_a_usage_error(self, bad):
        import argparse

        from repro.cli import _parse_bytes

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_bytes(bad)


class TestCheckpointBudgetFlag:
    def test_serve_prunes_checkpoints_at_startup(self, tmp_path, capsys):
        from repro.service import CheckpointStore

        store = tmp_path / "store"
        checkpoints = store / "checkpoints"
        checkpoints.mkdir(parents=True)
        cp = CheckpointStore(checkpoints)
        import os

        for index in range(3):
            key = "key%d" % index
            cp._journal_path(key).write_bytes(b"x" * 1000)
            os.utime(cp._journal_path(key), (1_000 + index, 1_000 + index))
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("", encoding="utf-8")
        code = main(["serve", "--store", str(store), "--workers", "1",
                     "--jobs", str(jobs), "--checkpoint-budget", "2K"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint budget: evicted 1 key(s)" in out
        assert cp.keys() == ["key1", "key2"]  # oldest evicted


class TestServerAndClientCommands:
    @pytest.fixture()
    def running_server(self, tmp_path):
        from repro.server import SynthesisServer

        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
        ) as server:
            yield server

    def test_client_submit_status_events_health_metrics(self,
                                                        running_server,
                                                        capsys):
        address = running_server.address
        assert main(["client", "submit", "--server", address,
                     "--pos", "10", "100", "--neg", "", "0",
                     "--wait", "--timeout", "120"]) == 0
        out = capsys.readouterr().out
        job_id = next(line.split(":")[1].strip()
                      for line in out.splitlines()
                      if line.startswith("job id"))
        assert main(["client", "status", job_id, "--server", address]) == 0
        assert '"state": "done"' in capsys.readouterr().out
        assert main(["client", "events", job_id, "--server", address]) == 0
        assert "done: elapsed_s=" in capsys.readouterr().out
        assert main(["client", "health", "--server", address]) == 0
        assert '"status": "ok"' in capsys.readouterr().out
        assert main(["client", "metrics", "--server", address]) == 0
        assert "repro_queue_depth" in capsys.readouterr().out

    def test_client_cancel_of_finished_job_is_moot(self, running_server,
                                                   capsys):
        address = running_server.address
        assert main(["client", "submit", "--server", address,
                     "--pos", "0", "--neg", "1",
                     "--wait", "--timeout", "120"]) == 0
        out = capsys.readouterr().out
        job_id = next(line.split(":")[1].strip()
                      for line in out.splitlines()
                      if line.startswith("job id"))
        assert main(["client", "cancel", job_id, "--server", address]) == 0
        assert '"cancelled": false' in capsys.readouterr().out

    def test_client_status_needs_a_job_id(self, capsys):
        code = main(["client", "status", "--server", "http://127.0.0.1:1"])
        assert code == 2
        assert "needs a job id" in capsys.readouterr().err

    def test_server_refused_connection_is_a_clean_error(self, capsys):
        code = main(["client", "health",
                     "--server", "http://127.0.0.1:9"])
        assert code == 3
        assert "repro client" in capsys.readouterr().err


class TestReportCommand:
    def write_artifact(self, tmp_path):
        payload = {
            "benchmark": "widget throughput",
            "scale": "quick",
            "speedup": 2.5,
            "lanes": {"batch": 1},
            "results": [
                {"name": "a", "seconds": 0.5},
                {"name": "b", "seconds": 1.25, "extra_col": 7},
            ],
        }
        (tmp_path / "BENCH_widget.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )

    def test_renders_markdown_tables(self, tmp_path, capsys):
        self.write_artifact(tmp_path)
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# Benchmark report" in out
        assert "## BENCH_widget.json" in out
        assert "| benchmark | widget throughput |" in out
        assert "| lanes.batch | 1 |" in out
        # The records table unions the rows' columns.
        assert "| name | seconds | extra_col |" in out

    def test_out_writes_the_file(self, tmp_path, capsys):
        self.write_artifact(tmp_path)
        report = tmp_path / "report.md"
        assert main(["report", "--dir", str(tmp_path),
                     "--out", str(report)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "widget throughput" in report.read_text(encoding="utf-8")

    def test_empty_directory_is_not_an_error(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert "no BENCH_*.json artifacts" in capsys.readouterr().out

    def test_unreadable_artifact_is_reported_inline(self, tmp_path, capsys):
        (tmp_path / "BENCH_bad.json").write_text("{nope", encoding="utf-8")
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert "unreadable" in capsys.readouterr().out


class TestTraceCommand:
    def test_server_refused_connection_is_a_clean_error(self, capsys):
        code = main(["trace", "deadbeef",
                     "--server", "http://127.0.0.1:9"])
        assert code == 3
        assert "repro trace" in capsys.readouterr().err
