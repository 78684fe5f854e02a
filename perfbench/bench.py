"""Workload runners of the benchmark (see ``run.py`` for the command).

A *pass* runs one workload's seeded inputs for the measured window and
returns an :class:`Outcome`: client-observed latencies, the candidates
the answers report, every answer, and every failure.  An untraced pass
installs nothing and fetches no trace; a traced pass installs the
probes and, for HTTP jobs, fetches ``GET /jobs/<id>/trace`` after each
job with the clock paused.

HTTP workloads talk to a ``repro server`` subprocess with its default
lanes (1 interactive, 2 batch workers) on a fresh store directory under
the run's scratch directory, through one client thread and one kept-
alive connection.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import layers
import probes
import workloads
from repro import EngineConfig, Session, SynthesisRequest
from repro.server import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    HttpServiceClient,
    OverloadedError,
    ServerError,
)
from repro.server.client import POLL_BASE_S, poll_intervals
from repro.service import (
    CheckpointStore,
    ServiceClient,
    StagingStore,
    StoreBackedSession,
    WireRequest,
)
from workloads import WARMUP_SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups measured per run; ``setup_s`` is their median.  Half run
#: before the measured pass and half after it, so that the median
#: samples the host across the whole run: a set-up is mostly imports,
#: bound by the CPU, and follows the host's speed.
SETUPS = 9
#: Interactive cases run through every rung of the layer ladder.
LADDER_REQUESTS = 40
#: Poll cap of the burst collector: every outstanding job is polled on
#: the client's own backoff schedule, capped here so that completion is
#: seen within a fifth of a second of a multi-second job.
BURST_POLL_CAP_S = 0.2
REQUEST_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0

VECTOR = EngineConfig(backend="vector")
DONE_STATES = ("done", "cancelled")


# ----------------------------------------------------------------------
# Answers and their independent check
# ----------------------------------------------------------------------
def to_python_regex(text: str) -> "re.Pattern":
    """Translate the printer's syntax (``+`` union, postfix ``*``/``?``,
    ``ε``, ``∅``) to a Python pattern; precedence is the same."""
    out = []
    for char in text:
        if char == "+":
            out.append("|")
        elif char == "(":
            out.append("(?:")
        elif char in ")*?":
            out.append(char)
        elif char == "ε":
            out.append("(?:)")
        elif char == "∅":
            out.append("(?!)")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out))


def answer_of(result) -> dict:
    return {
        "status": result.status,
        "regex": result.regex_str,
        "cost": result.cost,
        "generated": result.generated,
    }


def answer_of_document(doc: dict) -> dict:
    result = doc.get("result") or {}
    return {key: result.get(key) for key in ("status", "regex", "cost", "generated")}


def wire_of(case) -> WireRequest:
    return WireRequest(
        spec=case.spec,
        cost_fn=case.cost_fn,
        max_generated=case.budget,
        config=VECTOR,
    )


def request_of(case) -> SynthesisRequest:
    return SynthesisRequest(
        spec=case.spec, cost_fn=case.cost_fn, max_generated=case.budget
    )


class Outcome:
    """What one pass observed."""

    def __init__(self, expected: Dict[str, dict]) -> None:
        self.expected = expected
        self.latencies: List[float] = []
        self.generated = 0
        self.window_s = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.problems: List[str] = []
        self.answers: Dict[str, dict] = {}
        #: Per-request layer values (traced passes only).
        self.requests: List[Dict[str, float]] = []
        #: Run-level per-layer counts.
        self.counts: Counter = Counter()

    def fail(self, kind: str, detail: str) -> None:
        self.attempted += 1
        self.failures[kind] += 1
        self.problems.append("%s: %s" % (kind, detail))

    def record(self, case, answer: dict, latency: float) -> bool:
        """Check one answer against the reference and the examples."""
        self.attempted += 1
        problem = None
        expected = self.expected.get(case.key)
        if expected is None:
            problem = "no reference answer"
        elif answer != expected:
            problem = "got %r, reference %r" % (answer, expected)
        elif answer["status"] == "success":
            pattern = to_python_regex(answer["regex"])
            if not all(pattern.fullmatch(word) for word in case.spec.positive):
                problem = "%s rejects a positive" % answer["regex"]
            elif any(pattern.fullmatch(word) for word in case.spec.negative):
                problem = "%s accepts a negative" % answer["regex"]
        if problem is not None:
            self.failures["wrong"] += 1
            self.problems.append("wrong answer for %s: %s" % (case.key, problem))
            return False
        self.answers[case.key] = answer
        self.latencies.append(latency)
        self.generated += int(answer["generated"] or 0)
        return True

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _descendants(pid: int) -> List[int]:
    """Live descendants of ``pid``, read from ``/proc``."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            parents[int(entry.name)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path("/proc/%d/stat" % pid).read_text()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"


class Server:
    """A ``repro server`` subprocess on a fresh store directory."""

    def __init__(self, workdir: str, probe_dir: Optional[str] = None) -> None:
        self.store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.stderr_path = os.path.join(self.store, "server.stderr")
        command = [sys.executable, str(HERE / "server_main.py")]
        if probe_dir is not None:
            command += ["--probe-dir", probe_dir]
        command += ["server", "--store", self.store, "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=env,
                cwd=str(ROOT), text=True,
            )
        address = None
        for line in self.process.stdout:
            if "listening on" in line:
                address = line.split("listening on", 1)[1].strip()
                break
        if address is None:
            self.process.wait(timeout=STOP_TIMEOUT_S)
            raise RuntimeError(
                "server did not start: %s" % Path(self.stderr_path).read_text()
            )
        self.client = HttpServiceClient(address, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> int:
        """Close the client connection, then SIGINT the server; 1 if the
        stop left a child process, a traceback or a hang, else 0."""
        self.client.close()
        children = _descendants(self.process.pid)
        self.process.send_signal(signal.SIGINT)
        unclean = 0
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            unclean = 1
        self.process.stdout.close()
        strays = [pid for pid in children if _alive(pid)]
        for pid in strays:
            os.kill(pid, signal.SIGKILL)
        if strays or "Traceback" in Path(self.stderr_path).read_text():
            unclean = 1
        return unclean

    def warm_up(self, klass: str) -> None:
        job = self.client.submit(
            WireRequest(spec=WARMUP_SPEC, config=VECTOR), klass=klass
        )
        if job.get("state") not in DONE_STATES:
            self.client.result(job["job_id"], timeout=REQUEST_TIMEOUT_S)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (the
    kernel carries a server's waited-for pool workers into its own)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        path = HERE / "expected" / ("%s.json" % workload)
        self.expected = json.loads(path.read_text(encoding="utf-8"))
        self.work = {key: a["generated"] for key, a in self.expected.items()}
        self.unclean_stops = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []

    def _absorb(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wrong += outcome.failures["wrong"]
        self.problems += outcome.problems
        if not outcome.latencies:
            raise RuntimeError("no request was answered correctly")

    # -- set-up ---------------------------------------------------------
    def _start_server(self, klass: str, probe_dir: Optional[str] = None):
        started = time.perf_counter()
        server = Server(self.workdir, probe_dir)
        try:
            server.warm_up(klass)
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - started

    def _setups(self, count: int, keep_last: bool):
        """``count`` set-ups; returns the last server (still running if
        ``keep_last``) and every set-up time."""
        times, server = [], None
        for index in range(count):
            server, elapsed = self._start_server(self.klass)
            times.append(elapsed)
            if not keep_last or index < count - 1:
                self.unclean_stops += server.stop()
        return server, times

    # -- passes ---------------------------------------------------------
    def _health(self, server: Server) -> Counter:
        health = server.client.healthz()
        counters = health.get("counters", {})
        return Counter(
            {
                "pool.retries": int(counters.get("retries", 0)),
                "pool.respawns": int(counters.get("respawns", 0)),
                "server.preemptions": int(counters.get("preemptions", 0)),
                "server.rejected": sum(
                    int(lane.get("rejected", 0))
                    for lane in health.get("admission", {}).values()
                ),
            }
        )

    def closed_loop(self, server: Server, cases, traced: bool,
                    probe_dir: Optional[str]) -> Outcome:
        """One request in flight at a time; latency from send to the
        final answer, polled on the client's own backoff."""
        outcome = Outcome(self.expected)
        client = server.client
        before = self._health(server)
        client_probe = None
        if traced:
            client_probe = probes.Probe(lambda record: None)
            client_probe.wrap(HttpServiceClient, "submit", "client.submit_s")
            client_probe.wrap(HttpServiceClient, "status", "client.status_s")
        answered = []
        try:
            started = time.perf_counter()
            deadline = started + self.seconds
            paused = 0.0
            for case in cases:
                if time.perf_counter() >= deadline:
                    break
                begun = time.perf_counter()
                try:
                    doc = client.submit(wire_of(case), klass=CLASS_INTERACTIVE)
                    if doc.get("state") not in DONE_STATES:
                        doc = client.result(doc["job_id"], timeout=REQUEST_TIMEOUT_S)
                except OverloadedError as exc:
                    outcome.fail("rejected", str(exc))
                    continue
                except TimeoutError as exc:
                    outcome.fail("timeout", str(exc))
                    continue
                except (ServerError, OSError, http.client.HTTPException) as exc:
                    outcome.fail("error", str(exc))
                    continue
                wall = time.perf_counter() - begun
                if not outcome.record(case, answer_of_document(doc), wall):
                    continue
                if traced:
                    submit_s = client_probe.self_s.get("client.submit_s", 0.0)
                    polls = client_probe.calls.get("client.status_s", 0)
                    client_probe.self_s, client_probe.calls = {}, {}
                    # The trace fetch is off the clock.
                    pause = time.perf_counter()
                    trace = client.trace(doc["job_id"])
                    pause = time.perf_counter() - pause
                    deadline += pause
                    paused += pause
                    answered.append((doc, wall, submit_s, polls, trace))
            outcome.window_s = time.perf_counter() - started - paused
        finally:
            if client_probe is not None:
                client_probe.uninstall()
        outcome.counts.update(self._health(server))
        outcome.counts.subtract(before)
        if traced:
            self._attribute(outcome, answered, probe_dir)
        return outcome

    def _attribute(self, outcome: Outcome, answered, probe_dir: str) -> None:
        by_trace = defaultdict(list)
        for record in probes.read_records(probe_dir):
            key = record.get("trace_id") or record.get("context")
            by_trace[key].append(record)
        for doc, wall, submit_s, polls, trace in answered:
            values = layers.span_layers(trace.get("spans") or [])
            values.update(
                layers.probe_layers(by_trace.get(trace.get("trace_id"), ()))
            )
            extra = (doc.get("result") or {}).get("extra") or {}
            values["checkpoint.resumed_levels"] = extra.get("resumed_levels", 0)
            values["client.submit_s"] = submit_s
            values["client.polls"] = polls
            values["client.notify_lag_s"] = max(0.0, wall - values.get("_job_s", 0.0))
            values["_wall_s"] = wall
            outcome.requests.append(values)

    def burst_loop(self, server: Server, bursts, traced: bool,
                   probe_dir: Optional[str]) -> Outcome:
        """Each burst submits all its jobs at once, then collects them;
        latency runs from the burst's due time to the final answer."""
        outcome = Outcome(self.expected)
        client = server.client
        before = self._health(server)
        answered = []
        for burst in bursts:
            due = time.perf_counter()
            pending = {}
            submit_s = {}
            for case in burst:
                begun = time.perf_counter()
                try:
                    job = client.submit(wire_of(case), klass=CLASS_BATCH)
                except OverloadedError as exc:
                    outcome.fail("rejected", str(exc))
                    continue
                submit_s[job["job_id"]] = time.perf_counter() - begun
                pending[job["job_id"]] = case
            delays = poll_intervals(POLL_BASE_S, BURST_POLL_CAP_S)
            done = []
            while pending:
                time.sleep(next(delays))
                for job_id, case in list(pending.items()):
                    try:
                        doc = client.status(job_id)
                    except (ServerError, OSError, http.client.HTTPException) as exc:
                        del pending[job_id]
                        outcome.fail("error", str(exc))
                        continue
                    outcome.counts["client.polls"] += 1
                    if doc.get("state") == "failed":
                        del pending[job_id]
                        outcome.fail("error", str(doc.get("error")))
                    elif doc.get("state") in DONE_STATES:
                        del pending[job_id]
                        wall = time.perf_counter() - due
                        if outcome.record(case, answer_of_document(doc), wall):
                            done.append((doc, wall, submit_s[job_id], 0))
                if time.perf_counter() - due > REQUEST_TIMEOUT_S:
                    for job_id in pending:
                        outcome.fail("timeout", job_id)
                    break
            outcome.window_s += time.perf_counter() - due
            if traced:
                for entry in done:
                    answered.append(entry + (client.trace(entry[0]["job_id"]),))
        outcome.counts.update(self._health(server))
        outcome.counts.subtract(before)
        if traced:
            self._attribute(outcome, answered, probe_dir)
        return outcome

    def http_pass(self, server: Server, traced: bool,
                  probe_dir: Optional[str]) -> Outcome:
        if self.workload == "interactive":
            cases = workloads.draw_interactive(self.seed, self.work)
            return self.closed_loop(server, cases, traced, probe_dir)
        if self.workload == "refine":
            cases = [c for s in workloads.draw_refine(self.seed) for c in s]
            return self.closed_loop(server, cases, traced, probe_dir)
        return self.burst_loop(
            server, workloads.draw_sweep(self.seed), traced, probe_dir
        )

    @property
    def klass(self) -> str:
        return CLASS_BATCH if self.workload == "sweep" else CLASS_INTERACTIVE

    def measured_pass(self, setups: int):
        """Set up ``setups`` times, running one untraced pass on the
        server of the middle set-up; returns the outcome and the set-up
        times."""
        before = (setups + 1) // 2
        server, times = self._setups(before, keep_last=True)
        try:
            outcome = self.http_pass(server, traced=False, probe_dir=None)
        finally:
            self.unclean_stops += server.stop()
        times += self._setups(setups - before, keep_last=False)[1]
        self._absorb(outcome)
        return outcome, times

    def traced_pass(self) -> Outcome:
        probe_dir = tempfile.mkdtemp(prefix="probes-", dir=self.workdir)
        server, _ = self._start_server(self.klass, probe_dir)
        try:
            outcome = self.http_pass(server, traced=True, probe_dir=probe_dir)
        finally:
            self.unclean_stops += server.stop()
        self._absorb(outcome)
        return outcome

    # -- layer ladder -----------------------------------------------------
    def ladder(self, http_latencies: List[float]) -> Dict[str, float]:
        """The interactive cases through each rung of the stack."""
        cases = workloads.draw_interactive(self.seed, self.work)[:LADDER_REQUESTS]
        outcome = Outcome(self.expected)
        rungs = {}

        def timed(synthesize, answer) -> float:
            samples = []
            for case in cases:
                begun = time.perf_counter()
                result = synthesize(case)
                wall = time.perf_counter() - begun
                outcome.record(case, answer(result), wall)
                samples.append(wall)
            return statistics.median(samples)

        session = Session(VECTOR)
        session.synthesize(WARMUP_SPEC)
        rungs["ladder.session_p50_s"] = timed(
            lambda case: session.synthesize(request_of(case)), answer_of
        )
        stores = tempfile.mkdtemp(prefix="ladder-", dir=self.workdir)
        stored = StoreBackedSession(
            VECTOR,
            staging_store=StagingStore(os.path.join(stores, "staging")),
            checkpoint_store=CheckpointStore(os.path.join(stores, "checkpoints")),
        )
        stored.synthesize(WARMUP_SPEC)
        rungs["ladder.store_session_p50_s"] = timed(
            lambda case: stored.synthesize(request_of(case)), answer_of
        )
        pool = ServiceClient(
            workers=1, config=VECTOR,
            store_dir=tempfile.mkdtemp(prefix="pool-", dir=self.workdir),
        ).start()
        try:
            pool.synthesize(WireRequest(spec=WARMUP_SPEC, config=VECTOR))
            rungs["ladder.pool_p50_s"] = timed(
                lambda case: pool.synthesize(wire_of(case)), answer_of
            )
        finally:
            pool.close()
        if multiprocessing.active_children():
            self.unclean_stops += 1
        head = http_latencies[:LADDER_REQUESTS]
        rungs["ladder.http_p50_s"] = statistics.median(head) if head else 0.0
        self._absorb(outcome)
        return rungs

    # -- entry points -----------------------------------------------------
    def end_to_end(self):
        outcome, setup_times = self.measured_pass(SETUPS)
        latencies = outcome.latencies
        window = outcome.window_s
        answered = len(latencies)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "throughput_rps": (answered / window, "req/s"),
            "cands_per_s": (outcome.generated / window, "cand/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        # In the report, not in BENCHMARK.json: the client's poll backoff
        # quantises latency to ~0.06 / 0.16 / 0.36 s, so the p90 jumps a
        # whole step when a few more jobs cross 50 ms on a slower host.
        shown = dict(metrics)
        shown["latency_p90_s"] = (layers.nearest_rank(latencies, 0.9), "s")
        shown["failed_frac"] = (self.failed / max(1, self.attempted), "ratio")
        report = layers.end_to_end_table(
            self.workload,
            {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
            {"setup_s": setup_times, "latency_p50_s": latencies},
        )
        return metrics, report

    def per_layer(self):
        untraced, _ = self.measured_pass(1)
        run_counts: Dict[str, float] = {}
        sections = []
        if self.workload == "interactive":
            rungs = self.ladder(untraced.latencies)
            run_counts.update(rungs)
            sections.append(layers.ladder_table(rungs))
        traced = self.traced_pass()
        for key, answer in traced.answers.items():
            if key in untraced.answers and untraced.answers[key] != answer:
                self.wrong += 1
                self.failed += 1
                self.problems.append("traced answer differs for %s" % key)
        run_counts.update(traced.counts)
        run_counts["server.unclean_stops"] = self.unclean_stops
        run_counts["trace.overhead_frac"] = (
            statistics.median(traced.latencies)
            / statistics.median(untraced.latencies) - 1.0
        )
        values = layers.summarize(traced.requests, run_counts)
        sections.insert(0, layers.layer_table(self.workload, traced.requests, values))
        metrics = {
            name: (values[name], layers.unit_of(name))
            for name in layers.per_layer_names()
        }
        return metrics, "\n\n".join(sections)

    def run(self, traced: bool) -> dict:
        try:
            metrics, report = self.per_layer() if traced else self.end_to_end()
        finally:
            for problem in self.problems[:20]:
                print("problem: %s" % problem, file=sys.stderr)
            if self.unclean_stops:
                print("unclean server stops: %d" % self.unclean_stops,
                      file=sys.stderr)
        print(report)
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
