"""Workflow lint: every GitHub Actions file must dry-parse and keep the
jobs the repo's CI contract promises.

This is the in-repo half of the CI-of-the-CI: the YAML is parsed with a
plain ``yaml.safe_load`` (an ``act``-style dry parse — a syntax error
or a mis-indented key fails here, before a push ever reaches GitHub),
and the structural assertions pin the contract the docs describe: a
Python-version matrix for the tests, a lint job, a coverage job with a
checked-in floor, benchmark artifact uploads, and a scheduled nightly
full-scale run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS_DIR = Path(__file__).parent.parent / ".github" / "workflows"


def load(name: str) -> dict:
    data = yaml.safe_load((WORKFLOWS_DIR / name).read_text(encoding="utf-8"))
    assert isinstance(data, dict), "%s did not parse to a mapping" % name
    return data


def triggers(data: dict):
    # YAML 1.1 parses the bare key ``on`` as boolean True.
    return data.get("on", data.get(True))


def all_steps(job: dict):
    steps = job.get("steps")
    assert isinstance(steps, list) and steps, "job has no steps"
    for step in steps:
        assert isinstance(step, dict)
        assert "run" in step or "uses" in step, "step is neither run nor uses"
    return steps


class TestEveryWorkflowParses:
    def test_directory_is_not_empty(self):
        assert sorted(p.name for p in WORKFLOWS_DIR.glob("*.yml")) == [
            "ci.yml",
            "nightly.yml",
        ]

    @pytest.mark.parametrize(
        "name", [p.name for p in sorted(WORKFLOWS_DIR.glob("*.yml"))]
    )
    def test_dry_parse(self, name):
        data = load(name)
        assert triggers(data), "%s has no trigger" % name
        jobs = data.get("jobs")
        assert isinstance(jobs, dict) and jobs
        for job_name, job in jobs.items():
            assert "runs-on" in job, "%s.%s has no runs-on" % (name, job_name)
            all_steps(job)


class TestCiContract:
    def test_expected_jobs(self):
        jobs = load("ci.yml")["jobs"]
        assert set(jobs) == {
            "lint",
            "tests",
            "coverage",
            "bench-smoke",
            "service-smoke",
            "load-smoke",
            "recovery-smoke",
            "preempt-smoke",
            "obs-smoke",
            "examples-smoke",
        }

    def test_tests_job_is_a_python_matrix(self):
        tests = load("ci.yml")["jobs"]["tests"]
        versions = tests["strategy"]["matrix"]["python-version"]
        assert versions == ["3.10", "3.11", "3.12"]
        assert tests["strategy"]["fail-fast"] is False

    def test_setup_python_uses_pip_caching(self):
        jobs = load("ci.yml")["jobs"]
        for job_name, job in jobs.items():
            setup = [
                s
                for s in job["steps"]
                if str(s.get("uses", "")).startswith("actions/setup-python")
            ]
            assert setup, "%s does not set up python" % job_name
            for step in setup:
                assert step["with"].get("cache") == "pip", (
                    "%s: setup-python without pip caching" % job_name
                )

    def test_bench_jobs_stay_on_the_pinned_interpreter(self):
        jobs = load("ci.yml")["jobs"]
        for job_name in (
            "bench-smoke",
            "service-smoke",
            "load-smoke",
            "recovery-smoke",
            "preempt-smoke",
            "obs-smoke",
        ):
            setup = next(
                s
                for s in jobs[job_name]["steps"]
                if str(s.get("uses", "")).startswith("actions/setup-python")
            )
            assert setup["with"]["python-version"] == "3.11", (
                "%s must pin one interpreter so timings stay comparable"
                % job_name
            )

    def test_lint_job_runs_ruff_and_workflow_lint(self):
        runs = " && ".join(
            str(s.get("run", "")) for s in load("ci.yml")["jobs"]["lint"]["steps"]
        )
        assert "ruff check" in runs
        assert "ruff format --check" in runs
        assert "test_workflows" in runs

    def test_coverage_job_runs_pytest_cov(self):
        runs = " && ".join(
            str(s.get("run", ""))
            for s in load("ci.yml")["jobs"]["coverage"]["steps"]
        )
        assert "--cov=repro" in runs

    def test_bench_smoke_uploads_all_artifacts(self):
        steps = load("ci.yml")["jobs"]["bench-smoke"]["steps"]
        uploaded = {
            s["with"]["path"]
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        }
        assert uploaded == {
            "BENCH_kernels.json",
            "BENCH_session.json",
            "BENCH_shard.json",
        }

    def test_recovery_smoke_runs_a_traced_refine_benchmark_pass(self):
        # The checkpoint read path and the benchmark's probe names, end
        # to end: the step must fail unless every answer is correct and
        # the pass resumed journalled levels.
        runs = [
            str(s.get("run", ""))
            for s in load("ci.yml")["jobs"]["recovery-smoke"]["steps"]
        ]
        step = next(run for run in runs if "perfbench/run.py" in run)
        for part in ("--workload refine", "--seed 1", "--seconds 3",
                     "--trace 1", "tail -n 1", "'correct'", "'failed'",
                     "r['metrics']['checkpoint.resumed_levels']['value'] > 0"):
            assert part in step, part


    def test_load_smoke_runs_a_traced_interactive_benchmark_pass(self):
        # The long-poll completion path end to end: the step must fail
        # unless every answer is correct and the server stops cleanly.
        runs = [
            str(s.get("run", ""))
            for s in load("ci.yml")["jobs"]["load-smoke"]["steps"]
        ]
        step = next(run for run in runs if "perfbench/run.py" in run)
        # Group-commit checkpoints: at most one checkpoint-save per
        # request.
        for part in ("--workload interactive", "--seed 1", "--seconds 3",
                     "--trace 1", "tail -n 1", "'correct'", "'failed'",
                     "'server.unclean_stops'",
                     "r['metrics']['checkpoint.saves']['value'] <= r['attempted']"):
            assert part in step, part


class TestNightlyContract:
    def test_scheduled_and_dispatchable(self):
        trigger = triggers(load("nightly.yml"))
        assert "workflow_dispatch" in trigger
        crons = [entry["cron"] for entry in trigger["schedule"]]
        assert crons, "nightly workflow has no cron schedule"
        for cron in crons:
            assert len(cron.split()) == 5, "malformed cron %r" % cron

    def test_runs_every_bench_suite_at_full_scale(self):
        steps = load("nightly.yml")["jobs"]["full-bench"]["steps"]
        full_scale_targets = set()
        for step in steps:
            env = step.get("env") or {}
            if env.get("REPRO_BENCH_SCALE") == "full":
                full_scale_targets.add(str(step["run"]))
        joined = " && ".join(full_scale_targets)
        for suite in ("bench_kernels", "bench_session", "bench_shard",
                      "bench_service", "bench_recovery", "bench_load",
                      "bench_obs", "bench_preempt"):
            assert suite in joined, "nightly misses %s" % suite
        runs = " && ".join(str(s.get("run", "")) for s in steps)
        assert "check_perf_ceilings" in runs

    def test_uploads_every_bench_artifact(self):
        steps = load("nightly.yml")["jobs"]["full-bench"]["steps"]
        upload = next(
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        )
        assert upload["with"]["path"] == "BENCH_*.json"
        assert upload["with"]["if-no-files-found"] == "error"
        assert upload.get("if") == "always()"

    def test_renders_and_uploads_the_markdown_report(self):
        steps = load("nightly.yml")["jobs"]["full-bench"]["steps"]
        runs = " && ".join(str(s.get("run", "")) for s in steps)
        assert "repro report" in runs
        uploads = [
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        # The report upload comes after the raw-JSON upload, so the raw
        # artifacts survive even when report rendering breaks.
        report = uploads[-1]
        assert report["with"]["path"] == "BENCH-report.md"
        assert report.get("if") == "always()"


class TestObsSmokeContract:
    def test_validates_both_export_formats(self):
        steps = load("ci.yml")["jobs"]["obs-smoke"]["steps"]
        runs = " && ".join(str(s.get("run", "")) for s in steps)
        assert "repro.obs.validate trace" in runs
        assert "repro.obs.validate metrics" in runs
        assert "repro trace" in runs
        assert "test_obs" in runs
        upload = next(
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        )
        assert "trace.json" in upload["with"]["path"]
        assert "metrics.txt" in upload["with"]["path"]
        assert "BENCH_obs.json" in upload["with"]["path"]
