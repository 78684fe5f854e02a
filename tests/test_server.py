"""Network server tests: admission, HTTP endpoints, streaming, demotion.

The headline acceptance criterion lives in :class:`TestHttpBitIdentity`:
an answer served over HTTP is bit-identical (modulo wall-clock) to the
in-process :class:`~repro.service.pool.WorkerPool` answer, on both
backends.  The scheduler classes are tested pure (no sockets, no worker
processes); the HTTP tests share one running server per module.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import repro
from repro import EngineConfig, Session, Spec
from repro.obs.validate import parse_prometheus
from repro.regex.cost import CostFunction
from repro.server import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    AdmissionController,
    HttpServiceClient,
    LatencyTracker,
    OverloadedError,
    ServerError,
    SynthesisServer,
)
from repro.server.app import _JobRecord
from repro.server.client import poll_intervals
from repro.service import WireRequest, WorkerPool
from repro.testing import faults

BACKENDS = ["scalar", "vector"]

INTRO_SPEC = Spec(
    positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
    negative=["", "0", "1", "00", "11", "010"],
)

#: Long-running workload (same recipe as test_service): a >64-word
#: universe with an expensive star keeps the sweep busy for seconds,
#: leaving a comfortable window for mid-run joins and cancellations.
SLOW_SPEC = Spec(
    positive=["0110100101", "1010010110"],
    negative=["", "0", "1", "0011001100"],
)


def wire_of(spec, backend="vector", **kwargs):
    return WireRequest(
        spec=spec, config=EngineConfig(backend=backend), **kwargs
    )


def slow_wire(star_cost=10, **kwargs):
    kwargs.setdefault("max_generated", 20_000_000)
    return WireRequest(
        spec=SLOW_SPEC,
        cost_fn=CostFunction.from_tuple((1, 1, star_cost, 1, 1)),
        config=EngineConfig(backend="vector"),
        **kwargs,
    )


# ----------------------------------------------------------------------
# Scheduler policy (pure, no sockets)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_bounded_admission_and_release(self):
        controller = AdmissionController(
            slots={CLASS_INTERACTIVE: 1, CLASS_BATCH: 1},
            max_queue={CLASS_INTERACTIVE: 1, CLASS_BATCH: 0},
        )
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        rejected = controller.try_admit(CLASS_INTERACTIVE)
        assert not rejected.admitted
        assert rejected.retry_after_s >= 1.0
        assert "queue full" in rejected.reason
        # The other class has its own budget.
        assert controller.try_admit(CLASS_BATCH).admitted
        controller.release(CLASS_INTERACTIVE)
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        snapshot = controller.depth_snapshot()
        assert snapshot[CLASS_INTERACTIVE]["rejected"] == 1
        assert snapshot[CLASS_INTERACTIVE]["live"] == 2

    def test_transfer_moves_one_live_count_past_the_target_bound(self):
        controller = AdmissionController(
            slots={CLASS_INTERACTIVE: 1, CLASS_BATCH: 1},
            max_queue={CLASS_INTERACTIVE: 0, CLASS_BATCH: 0},
        )
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        assert controller.try_admit(CLASS_BATCH).admitted
        assert not controller.try_admit(CLASS_BATCH).admitted  # full
        # A demoted job was admitted once: it moves even though the
        # batch lane is at its bound, and frees its interactive slot.
        controller.transfer(CLASS_INTERACTIVE, CLASS_BATCH)
        assert controller.live(CLASS_INTERACTIVE) == 0
        assert controller.live(CLASS_BATCH) == 2
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        assert controller.depth_snapshot()[CLASS_BATCH]["rejected"] == 1

    def test_retry_after_scales_with_backlog_and_p50(self):
        latency = LatencyTracker()
        for _ in range(10):
            latency.record(CLASS_BATCH, 2.0)
        controller = AdmissionController(
            slots={CLASS_INTERACTIVE: 1, CLASS_BATCH: 2},
            max_queue={CLASS_INTERACTIVE: 0, CLASS_BATCH: 0},
            latency=latency,
        )
        assert controller.retry_after(CLASS_BATCH, queued=4) == 4.0
        assert controller.retry_after(CLASS_BATCH, queued=0) == 1.0  # floor


class TestLatencyTracker:
    def test_percentiles_and_snapshot(self):
        tracker = LatencyTracker()
        assert tracker.percentile(CLASS_INTERACTIVE, 0.5) is None
        for value in (0.1, 0.2, 0.3, 0.4, 1.0):
            tracker.record(CLASS_INTERACTIVE, value)
        assert tracker.percentile(CLASS_INTERACTIVE, 0.5) == pytest.approx(0.3)
        assert tracker.percentile(CLASS_INTERACTIVE, 0.99) == pytest.approx(1.0)
        snapshot = tracker.snapshot()
        assert snapshot[CLASS_INTERACTIVE]["count"] == 5
        assert snapshot[CLASS_BATCH]["count"] == 0


class TestPollBackoff:
    def test_intervals_double_to_a_cap(self):
        schedule = poll_intervals(base=0.05, cap=1.0)
        values = [next(schedule) for _ in range(8)]
        assert values[0] == pytest.approx(0.05)
        assert values[1] == pytest.approx(0.10)
        assert values == sorted(values)  # monotone
        assert values[-1] == pytest.approx(1.0)
        assert next(schedule) == pytest.approx(1.0)  # stays capped


# ----------------------------------------------------------------------
# The running HTTP server (one per module; lanes of one worker each)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("server-store")
    with SynthesisServer(
        store_dir=str(store),
        interactive_workers=1,
        batch_workers=1,
        per_worker_depth=2,
    ) as running:
        yield running


@pytest.fixture()
def client(server):
    return HttpServiceClient(server.address)


def _wait(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in %.0fs" % timeout)
        time.sleep(interval)


class TestHttpBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_http_answers_match_in_process_service(self, backend, client):
        wire = wire_of(INTRO_SPEC, backend=backend)
        job = client.submit(wire)
        over_http = client.result(job["job_id"], timeout=120)["result"]
        with WorkerPool(workers=1, config=EngineConfig(backend=backend)) as pool:
            in_process = pool.synthesize(wire).to_dict()
        # The job document additionally forwards the scheduling
        # counters from ``result.extra`` (attempts, preemptions, ...)
        # that a bare ``to_dict`` does not carry.
        extra = over_http.pop("extra")
        assert extra["attempts"] == 1
        assert extra["preemptions"] == 0
        # Wall-clock is the only remaining field allowed to differ.
        for key in set(in_process) | set(over_http):
            if key == "elapsed_seconds":
                continue
            assert over_http.get(key) == in_process.get(key), key

    def test_synthesize_helper_round_trips(self, client):
        result = client.synthesize(wire_of(Spec(["0", "00"], ["1"])),
                                   timeout=120)
        assert result["status"] == "success"


class TestEventStream:
    def test_stream_replays_and_preserves_engine_clock(self, client):
        wire = wire_of(Spec(["10", "100"], ["", "0", "1"]))
        job = client.submit(wire)
        done = client.result(job["job_id"], timeout=120)
        events = list(client.events(job["job_id"]))
        assert events, "finished job must replay its event history"
        assert events[-1].done
        # The engine-side monotonic clock survived the HTTP trip.
        clocks = [event.elapsed_s for event in events]
        assert clocks == sorted(clocks)
        assert events[-1].elapsed_s > 0.0
        incumbent = events[-1].incumbent
        assert incumbent["regex"] == done["result"]["regex"]

    def test_duplicate_submit_joins_live_job(self, client, server):
        wire = slow_wire()
        first = client.submit(wire)
        assert not first.get("deduplicated")
        try:
            _wait(lambda: client.status(first["job_id"])["state"]
                  in ("queued", "running"))
            second = client.submit(wire)
            assert second["job_id"] == first["job_id"]
            assert second["deduplicated"] is True
            assert server._records[first["job_id"]].joined == 1
        finally:
            client.cancel(first["job_id"])
            client.result(first["job_id"], timeout=120)

    def test_cancel_mid_run(self, client):
        wire = slow_wire(allowed_error=0.01)
        job = client.submit(wire)
        # Wait for the first progress event so the job is on a worker.
        _wait(lambda: client.status(job["job_id"])["events"] > 0, timeout=60)
        answer = client.cancel(job["job_id"])
        assert answer["cancelled"] is True
        done = client.result(job["job_id"], timeout=120)
        assert done["state"] == "cancelled"
        assert done["result"]["status"] == "cancelled"

    def test_cancel_after_complete_returns_the_result(self, client):
        wire = wire_of(Spec(["01", "0101"], ["10", "1"]))
        job = client.submit(wire)
        client.result(job["job_id"], timeout=120)
        answer = client.cancel(job["job_id"])
        assert answer["cancelled"] is False
        assert answer["state"] == "done"
        assert answer["result"]["status"] == "success"

    def test_client_disconnect_releases_subscription(self, client, server):
        wire = slow_wire(max_cost=60)
        job = client.submit(wire)
        job_id = job["job_id"]
        try:
            _wait(lambda: client.status(job_id)["events"] > 0, timeout=60)
            record = server._records[job_id]
            stream = client.events(job_id)
            next(stream)  # subscribed (replay delivers instantly)
            _wait(lambda: len(record.subscribers) == 1, timeout=10)
            stream.close()  # closes the connection mid-stream
            _wait(lambda: len(record.subscribers) == 0, timeout=10)
        finally:
            client.cancel(job_id)
            client.result(job_id, timeout=120)

    def test_events_for_unknown_job_is_404(self, client):
        with pytest.raises(ServerError) as err:
            list(client.events("no-such-job"))
        assert err.value.status == 404


class TestEndpoints:
    def test_unknown_job_status_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client.status("deadbeef")
        assert err.value.status == 404

    def test_unknown_path_is_404_and_bad_json_is_400(self, server):
        unknown_backend = json.dumps({
            "spec": {"positive": ["0"], "negative": ["1"]},
            "config": {"backend": "nope"},
        }).encode("utf-8")
        connection_status = []
        for raw in (
            b"GET /nope HTTP/1.1\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nnot llo",
            b"GET /jobs HTTP/1.1\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(unknown_backend), unknown_backend),
        ):
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(raw)
                head = sock.recv(4096).decode("latin-1", "replace")
                connection_status.append(int(head.split()[1]))
        assert connection_status == [404, 400, 405, 400]

    def test_alias_spellings_of_one_question_join_one_job(self, client):
        payload = wire_of(Spec(["0110", "011"], ["1", "10"])).to_json_dict()
        first = client._json_call("POST", "/jobs", payload)
        payload["config"]["backend"] = "gpu"
        second = client._json_call("POST", "/jobs", payload)
        assert first["deduplicated"] is False
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        client.result(first["job_id"], timeout=120)

    def test_healthz_reports_lanes_and_quarantine(self, client, server):
        quarantine_dir = (
            __import__("pathlib").Path(server.store_dir) / "quarantine"
        )
        quarantine_dir.mkdir(exist_ok=True)
        record_path = quarantine_dir / "feedface.json"
        record_path.write_text(
            json.dumps({"fingerprint": "feedface", "job_id": "j1",
                        "attempts": 3, "error": "poison",
                        "request": {}}),
            encoding="utf-8",
        )
        try:
            health = client.healthz()
            assert health["status"] == "ok"
            for klass in (CLASS_INTERACTIVE, CLASS_BATCH):
                assert health["lanes"][klass]["alive"] >= 1
            for counter in ("retries", "respawns", "quarantined"):
                assert counter in health["counters"]
            fingerprints = [q["fingerprint"] for q in health["quarantine"]]
            assert "feedface" in fingerprints
            entry = next(q for q in health["quarantine"]
                         if q["fingerprint"] == "feedface")
            assert entry["attempts"] == 3
        finally:
            record_path.unlink()

    def test_metrics_exposition_format(self, client):
        text = client.metrics()
        for line in (
            "# TYPE repro_queue_depth gauge",
            "# TYPE repro_jobs_rejected_total counter",
            'repro_queue_depth{class="interactive"}',
            'repro_latency_seconds{class="batch",quantile="0.99"}',
            "# TYPE repro_workers_alive gauge",
        ):
            assert line in text, line

    def test_a_requested_fan_out_is_served_serially(
        self, client, server, monkeypatch
    ):
        # The pool is the service's only parallelism: a submitted
        # ``shard_workers`` is dropped, and the lane runs the job on
        # the serial engine.
        submitted = []
        for lane in server.lanes.values():
            def spy(wire, _submit=lane.submit, **kwargs):
                submitted.append(wire)
                return _submit(wire, **kwargs)
            monkeypatch.setattr(lane, "submit", spy)
        payload = wire_of(Spec(["0101", "01"], ["0", "11"])).to_json_dict()
        payload["config"]["shard_workers"] = 3
        job = client._json_call("POST", "/jobs", payload)
        assert job["deduplicated"] is False
        assert "shard_workers" not in job
        assert [wire.config.shard_workers for wire in submitted] == [1]
        done = client.result(job["job_id"], timeout=120)
        assert "shard_workers" not in done
        assert done["result"]["status"] == "success"

    def test_class_override_is_honoured(self, client):
        job = client.submit(
            wire_of(Spec(["111", "11"], ["1", ""])), klass=CLASS_BATCH
        )
        assert job["class"] == CLASS_BATCH
        client.result(job["job_id"], timeout=120)


# ----------------------------------------------------------------------
# Long poll: GET /jobs/<id>?wait=S parks until the job finishes
# ----------------------------------------------------------------------
class TestLongPoll:
    # The timed jobs below use star costs no other test in this module
    # uses, so no checkpoint written earlier can shorten them.
    def test_long_poll_answers_at_completion_not_at_the_deadline(
        self, client
    ):
        job = client.submit(slow_wire(star_cost=9, max_generated=2_000_000))
        assert job["state"] == "queued"
        asked = time.monotonic()
        done = client.status(job["job_id"], wait=25)
        answered_at = time.time()
        assert done["state"] == "done"
        assert time.monotonic() - asked < 25
        root = next(
            span for span in client.trace(job["job_id"])["spans"]
            if span["name"] == "job"
        )
        # The root span closes when the job completes on the server.
        assert answered_at - root["end_s"] < 0.05

    def test_expired_wait_answers_with_the_unfinished_document(self, client):
        job = client.submit(slow_wire(max_generated=20_000_001))
        try:
            asked = time.monotonic()
            doc = client.status(job["job_id"], wait=0.3)
            waited = time.monotonic() - asked
            assert doc["job_id"] == job["job_id"]
            assert doc["state"] in ("queued", "running")
            assert "result" not in doc
            assert 0.25 <= waited < 5.0
        finally:
            client.cancel(job["job_id"])
            client.result(job["job_id"], timeout=120)

    def test_bad_wait_is_400_and_a_plain_status_answers_at_once(
        self, client, monkeypatch
    ):
        job = client.submit(slow_wire(max_generated=20_000_002))
        job_id = job["job_id"]
        try:
            for raw in ("abc", "-1"):
                with pytest.raises(ServerError) as err:
                    client._json_call("GET", "/jobs/%s?wait=%s" % (job_id, raw))
                assert err.value.status == 400
            paths = []
            json_call = client._json_call

            def recording(method, path, body=None):
                paths.append(path)
                return json_call(method, path, body)

            monkeypatch.setattr(client, "_json_call", recording)
            asked = time.monotonic()
            doc = client.status(job_id)
            assert time.monotonic() - asked < 1.0
            assert doc["state"] in ("queued", "running")
            assert paths == ["/jobs/%s" % job_id]
        finally:
            client.cancel(job_id)
            client.result(job_id, timeout=120)

    def test_result_polls_once_for_a_job_done_within_the_wait(
        self, client, monkeypatch
    ):
        waits = []
        status = client.status

        def counting(job_id, wait=None):
            waits.append(wait)
            return status(job_id, wait=wait)

        monkeypatch.setattr(client, "status", counting)
        job = client.submit(slow_wire(star_cost=8, max_generated=1_000_000))
        asked = time.monotonic()
        done = client.result(job["job_id"], timeout=120)
        assert done["state"] == "done"
        assert len(waits) == 1 and waits[0] > 0
        # The job ran for a while and the one poll answered as it
        # ended, not when its wait ran out.
        assert done["result"]["elapsed_seconds"] > 0.1
        assert time.monotonic() - asked < 5.0

    def test_cancel_of_a_queued_job_wakes_its_long_poll(self, tmp_path):
        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
            per_worker_depth=1,
        ) as running:
            client = HttpServiceClient(running.address)
            blocker = client.submit(slow_wire(), klass=CLASS_BATCH)
            try:
                _wait(lambda: client.status(blocker["job_id"])["state"]
                      == "running", timeout=60)
                queued = client.submit(wire_of(INTRO_SPEC), klass=CLASS_BATCH)
                job_id = queued["job_id"]
                assert queued["state"] == "queued"
                answers = []

                def long_poll():
                    with HttpServiceClient(running.address) as poller:
                        answers.append(poller.status(job_id, wait=25))

                thread = threading.Thread(target=long_poll)
                thread.start()
                record = running._records[job_id]
                _wait(lambda: len(record.waiters) == 1, timeout=10)
                cancelled_at = time.monotonic()
                assert client.cancel(job_id)["cancelled"] is True
                thread.join(timeout=30)
                assert not thread.is_alive()
                assert time.monotonic() - cancelled_at < 5
                assert answers[0]["state"] == "cancelled"
                assert answers[0]["result"]["status"] == "cancelled"
            finally:
                client.cancel(blocker["job_id"])
                client.result(blocker["job_id"], timeout=120)
                client.close()


# ----------------------------------------------------------------------
# Finished records keep only what the endpoints serve
# ----------------------------------------------------------------------
#: Bytes a finished, traced record of a small spec may retain (deep
#: size; before compaction such a record held about 47 KB, most of it
#: the trace as dicts, the level stats and the live handle).
FINISHED_RECORD_BYTES = 24_000


def _deep_size(obj, seen=None) -> int:
    """``sys.getsizeof`` summed over everything ``obj`` reaches."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(
        obj, (type, types.ModuleType, types.FunctionType, types.MethodType)
    ):
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen)
                    for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(item, seen) for item in obj)
    if hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                size += _deep_size(getattr(obj, name), seen)
    return size


class TestRecordCompaction:
    def test_compaction_keeps_every_response_and_bounds_the_record(
        self, client, server, monkeypatch
    ):
        served = {}
        compact = _JobRecord.compact

        def documents(record):
            return json.loads(json.dumps({
                "job": record.status_dict(),
                "trace": server.trace_document(record),
                "events": record.events,
            }))

        def observed(record, spans):
            before = documents(record)
            compact(record, spans)
            served[record.job_id] = (before, documents(record),
                                     _deep_size(record))

        monkeypatch.setattr(_JobRecord, "compact", observed)
        job = client.submit(wire_of(Spec(["0101", "01"], ["", "1", "10"])))
        done = client.result(job["job_id"], timeout=120)
        before, after, retained = served[job["job_id"]]
        assert after == before
        assert before["trace"]["spans"], "the job was traced"
        # What the endpoints answer now is what they answered before.
        assert done == before["job"]
        assert client.trace(job["job_id"]) == before["trace"]
        events = [
            event.incumbent if event.done else event.cost
            for event in client.events(job["job_id"])
        ]
        assert events == [
            event["incumbent"] if event["done"] else event["cost"]
            for event in before["events"]
        ]
        record = server._records[job["job_id"]]
        assert record.handle is None and record.wire is None
        assert "trace" not in record.result.extra
        assert retained < FINISHED_RECORD_BYTES


# ----------------------------------------------------------------------
# Overload: a bounded queue answers 429, never hangs
# ----------------------------------------------------------------------
class TestOverload:
    def test_admission_rejects_with_retry_after(self, tmp_path):
        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
            per_worker_depth=1,
            max_queue={CLASS_INTERACTIVE: 0, CLASS_BATCH: 0},
        ) as running:
            client = HttpServiceClient(running.address)
            filler = slow_wire()
            job = client.submit(filler, klass=CLASS_INTERACTIVE)
            try:
                overflow = slow_wire(allowed_error=0.125)
                assert overflow.fingerprint() != filler.fingerprint()
                with pytest.raises(OverloadedError) as err:
                    client.submit(overflow, klass=CLASS_INTERACTIVE)
                assert err.value.retry_after_s >= 1.0
                # A duplicate of the LIVE job still joins (no new slot).
                joined = client.submit(filler, klass=CLASS_INTERACTIVE)
                assert joined["deduplicated"] is True
                # The batch lane is unaffected by interactive overload.
                batch_job = client.submit(
                    wire_of(Spec(["0"], ["1"])), klass=CLASS_BATCH
                )
                client.result(batch_job["job_id"], timeout=120)
                metrics = client.metrics()
                assert 'repro_jobs_rejected_total{class="interactive"} 1' \
                    in metrics
            finally:
                client.cancel(job["job_id"])
                client.result(job["job_id"], timeout=120)


# ----------------------------------------------------------------------
# Server-side maintenance
# ----------------------------------------------------------------------
class TestServerMaintenance:
    def test_an_old_history_file_is_left_alone(self, tmp_path):
        # Servers that routed by a persisted per-universe latency
        # history kept it here.  Its measurement would route the job to
        # batch; the server neither reads nor rewrites the file.
        wire = wire_of(INTRO_SPEC)
        store = tmp_path / "store"
        store.mkdir()
        history = store / "history.json"
        history.write_text(json.dumps({
            "version": 1,
            "profiles": {
                wire.staging_fingerprint(): {"runs": 3, "avg_elapsed_s": 30.0},
            },
        }, indent=2, sort_keys=True), encoding="utf-8")
        before = (history.read_bytes(), history.stat().st_mtime_ns)
        with SynthesisServer(
            store_dir=str(store), interactive_workers=1, batch_workers=1
        ) as running:
            with HttpServiceClient(running.address) as client:
                job = client.submit(wire)
                done = client.result(job["job_id"], timeout=120)
        assert done["result"]["status"] == "success"
        assert done["class"] == CLASS_INTERACTIVE
        assert (history.read_bytes(), history.stat().st_mtime_ns) == before

    def test_resubmit_after_cancel_starts_fresh(self, client):
        wire = slow_wire(max_generated=10_000_000)
        job = client.submit(wire)
        client.cancel(job["job_id"])
        client.result(job["job_id"], timeout=120)
        again = client.submit(wire)
        assert not again.get("deduplicated")
        client.cancel(again["job_id"])
        client.result(again["job_id"], timeout=120)


# ----------------------------------------------------------------------
# Job completion: the pool's done-callback ends every record
# ----------------------------------------------------------------------
class TestJobCompletion:
    def test_cancel_while_queued_ends_the_job_and_its_stream(self, tmp_path):
        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
            per_worker_depth=1,
        ) as running:
            client = HttpServiceClient(running.address)
            blocker = client.submit(slow_wire(), klass=CLASS_BATCH)
            try:
                _wait(lambda: client.status(blocker["job_id"])["state"]
                      == "running", timeout=60)
                queued = client.submit(wire_of(INTRO_SPEC), klass=CLASS_BATCH)
                job_id = queued["job_id"]
                assert queued["state"] == "queued"
                events = []
                stream = threading.Thread(
                    target=lambda: events.extend(
                        HttpServiceClient(running.address).events(job_id)
                    )
                )
                stream.start()
                record = running._records[job_id]
                _wait(lambda: len(record.subscribers) == 1, timeout=10)
                assert client.cancel(job_id)["cancelled"] is True
                stream.join(timeout=30)
                assert not stream.is_alive()
                assert len(events) == 1 and events[0].done
                done = client.result(job_id, timeout=30)
                assert done["state"] == "cancelled"
                assert done["result"]["status"] == "cancelled"
            finally:
                client.cancel(blocker["job_id"])
                client.result(blocker["job_id"], timeout=120)
                client.close()

    def test_resubmission_after_restart_is_answered_from_the_store(
        self, tmp_path
    ):
        wire = wire_of(Spec(["0110", "01110"], ["", "0", "11"]))
        answers = []
        for restart in range(2):
            with SynthesisServer(
                store_dir=str(tmp_path / "store"),
                interactive_workers=1,
                batch_workers=1,
            ) as running:
                client = HttpServiceClient(running.address)
                job = client.submit(wire, klass=CLASS_INTERACTIVE)
                done = client.result(job["job_id"], timeout=120)
                events = list(client.events(job["job_id"]))
                client.close()
                hits = running.lanes[CLASS_INTERACTIVE].stats["result_hits"]
            assert done["state"] == "done"
            assert events[-1].done
            assert hits == restart
            answers.append(done["result"]["regex"])
        assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# Demotion: a job without a class starts interactive and moves to the
# batch lane after one quantum
# ----------------------------------------------------------------------
#: Per backend, a job that runs well past the test quantum and ends in a
#: found answer: on the vector engine ``((10+0(01*)?1)0?)*`` at cost 17,
#: after 5.1 M candidates; a smaller universe keeps the scalar oracle's
#: run near a second.
LONG_SPECS = {
    "vector": Spec(["00111", "100", "010", "01", "10", "010011"],
                   ["01011", "0", "11", "1", "0000010", "00100"]),
    "scalar": Spec(["00111", "100", "010", "01"],
                   ["01011", "0", "11", "1", "00100"]),
}


@pytest.fixture()
def demoting_server(tmp_path, monkeypatch):
    """A server of its own, its quantum cut to 50 ms."""
    monkeypatch.setattr(repro.server.app, "DEFAULT_LATENCY_TARGET_S", 0.05)
    with SynthesisServer(
        store_dir=str(tmp_path / "store"),
        interactive_workers=1,
        batch_workers=1,
    ) as running:
        yield running


class TestDemotion:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unhinted_long_job_is_demoted_once_and_answers_bit_identically(
        self, backend, demoting_server
    ):
        wire = wire_of(LONG_SPECS[backend], backend=backend)
        events = []
        with HttpServiceClient(demoting_server.address) as client:
            job = client.submit(wire)
            assert job["class"] == CLASS_INTERACTIVE
            assert job["demotions"] == 0
            stream = threading.Thread(
                target=lambda: events.extend(
                    HttpServiceClient(demoting_server.address).events(
                        job["job_id"]
                    )
                )
            )
            stream.start()
            record = demoting_server._records[job["job_id"]]
            # Subscribed while the job is live, so the stream is live.
            _wait(lambda: len(record.subscribers) == 1, timeout=10)
            done = client.result(job["job_id"], timeout=300)
            stream.join(timeout=30)
            trace = client.trace(job["job_id"])
            metrics = client.metrics()
        assert done["state"] == "done"
        assert done["class"] == CLASS_BATCH
        assert done["demotions"] == 1
        answer = done["result"]
        # The batch attempt resumed from what the stopped one journalled.
        assert answer["extra"]["resumed_levels"] > 0
        solo = Session(EngineConfig(backend=backend)).synthesize(
            wire.to_request()
        )
        assert solo.status == "success"
        assert (
            answer["status"], answer["regex"], answer["cost"],
            answer["generated"], answer["unique_cs"],
        ) == (
            solo.status, solo.regex_str, solo.cost, solo.generated,
            solo.unique_cs,
        )
        names = [span["name"] for span in trace["spans"]]
        assert names.count("demote") == 1
        assert names.count("worker-job") == 2
        assert "repro_demotions_total 1" in metrics.splitlines()
        assert not stream.is_alive()
        assert [event.done for event in events].count(True) == 1
        assert events[-1].done

    def test_a_pinned_interactive_job_is_never_demoted(self, demoting_server):
        with HttpServiceClient(demoting_server.address) as client:
            job = client.submit(
                wire_of(LONG_SPECS["vector"]), klass=CLASS_INTERACTIVE
            )
            done = client.result(job["job_id"], timeout=300)
            metrics = client.metrics()
        assert done["state"] == "done"
        assert done["class"] == CLASS_INTERACTIVE
        assert done["demotions"] == 0
        # It ran far past the quantum on the interactive lane.
        assert done["result"]["elapsed_seconds"] > 0.05 * 4
        assert "repro_demotions_total 0" in metrics.splitlines()

    def test_a_small_unhinted_job_stays_interactive(self, demoting_server):
        with HttpServiceClient(demoting_server.address) as client:
            job = client.submit(wire_of(INTRO_SPEC))
            done = client.result(job["job_id"], timeout=120)
        assert done["result"]["status"] == "success"
        assert done["class"] == CLASS_INTERACTIVE
        assert done["demotions"] == 0

    def test_a_cancel_while_the_attempt_stops_ends_the_job(
        self, demoting_server, monkeypatch
    ):
        server = demoting_server
        batch_submits, released = _hold_completions(server, monkeypatch)
        with HttpServiceClient(server.address) as client:
            job_id = client.submit(wire_of(LONG_SPECS["vector"]))["job_id"]
            record = server._records[job_id]
            _wait(lambda: record.state == "running", timeout=60)
            server._loop.call_soon_threadsafe(server._demote, job_id)
            _wait(lambda: record.demoting is not None, timeout=10)
            answer = client.cancel(job_id)
            released.set()
            done = client.result(job_id, timeout=120)
            events = list(client.events(job_id))
        assert answer["cancelled"] is True
        assert done["state"] == "cancelled"
        assert done["result"]["status"] == "cancelled"
        assert done["class"] == CLASS_INTERACTIVE
        assert done["demotions"] == 0
        assert batch_submits == []
        assert [event.done for event in events].count(True) == 1
        assert events[-1].done

    def test_a_quantum_that_runs_out_after_a_cancel_does_not_demote(
        self, demoting_server, monkeypatch
    ):
        server = demoting_server
        batch_submits, released = _hold_completions(server, monkeypatch)
        with HttpServiceClient(server.address) as client:
            job_id = client.submit(wire_of(LONG_SPECS["vector"]))["job_id"]
            record = server._records[job_id]
            _wait(lambda: record.state == "running", timeout=60)
            answer = client.cancel(job_id)
            # The quantum runs out while the cancelled attempt stops.
            _on_loop(server, server._demote, job_id)
            demoting = record.demoting
            released.set()
            done = client.result(job_id, timeout=120)
            events = list(client.events(job_id))
        assert answer["cancelled"] is True
        assert demoting is None
        assert done["state"] == "cancelled"
        assert done["class"] == CLASS_INTERACTIVE
        assert done["demotions"] == 0
        assert batch_submits == []
        assert [event.done for event in events].count(True) == 1

    def test_a_time_limit_bounds_the_job_not_each_attempt(
        self, demoting_server, monkeypatch
    ):
        batch_submits = _spy_batch_submits(demoting_server, monkeypatch)
        wire = wire_of(LONG_SPECS["vector"], time_limit=120.0)
        with HttpServiceClient(demoting_server.address) as client:
            job = client.submit(wire)
            done = client.result(job["job_id"], timeout=300)
        assert done["state"] == "done"
        assert done["demotions"] == 1
        # The batch attempt got what the interactive one left: at least
        # one quantum less.
        [moved] = batch_submits
        assert 0 < moved.time_limit <= 120.0 - 0.05
        solo = Session(EngineConfig(backend="vector")).synthesize(
            wire.to_request()
        )
        answer = done["result"]
        assert (answer["status"], answer["regex"], answer["generated"]) == (
            solo.status, solo.regex_str, solo.generated
        )

    def test_an_attempt_stopped_by_its_deadline_is_not_demoted(
        self, demoting_server, monkeypatch
    ):
        server = demoting_server
        batch_submits, released = _hold_completions(server, monkeypatch)
        wire = wire_of(LONG_SPECS["vector"], time_limit=0.2)
        with HttpServiceClient(server.address) as client:
            job_id = client.submit(wire)["job_id"]
            record = server._records[job_id]
            _wait(lambda: record.handle.done, timeout=60)
            # The quantum runs out after the deadline stopped the run.
            _on_loop(server, server._demote, job_id)
            released.set()
            done = client.result(job_id, timeout=120)
            events = list(client.events(job_id))
        assert done["state"] == "cancelled"
        assert done["class"] == CLASS_INTERACTIVE
        assert done["demotions"] == 0
        assert batch_submits == []
        assert [event.done for event in events].count(True) == 1

    def test_only_a_pinned_interactive_admission_preempts(
        self, demoting_server, monkeypatch
    ):
        server = demoting_server
        # No quantum runs out: the unhinted jobs stay interactive.
        monkeypatch.setattr(repro.server.app, "DEFAULT_LATENCY_TARGET_S", 60.0)
        with HttpServiceClient(server.address) as client:
            batch_id = client.submit(slow_wire(), klass=CLASS_BATCH)["job_id"]
            _wait(
                lambda: server._records[batch_id].state == "running",
                timeout=60,
            )
            # Two long unhinted jobs fill the interactive lane's slots.
            job_ids = [
                client.submit(
                    wire_of(LONG_SPECS["vector"], max_generated=limit)
                )["job_id"]
                for limit in (20_000_000, 20_000_001)
            ]
            assert server.admission.interactive_saturated()
            job_ids.append(client.submit(wire_of(INTRO_SPEC))["job_id"])
            unhinted_triggers = server.preemptions_triggered
            job_ids.append(
                client.submit(
                    wire_of(INTRO_SPEC, max_generated=1_000_000),
                    klass=CLASS_INTERACTIVE,
                )["job_id"]
            )
            pinned_triggers = server.preemptions_triggered
            for job_id in [batch_id, *job_ids]:
                client.cancel(job_id)
                client.result(job_id, timeout=120)
        assert unhinted_triggers == 0
        assert pinned_triggers == 1


def _spy_batch_submits(server, monkeypatch):
    """The list each wire submitted to the batch lane is appended to."""
    batch_submits = []
    batch_lane = server.lanes[CLASS_BATCH]

    def spy(wire, _submit=batch_lane.submit, **kwargs):
        batch_submits.append(wire)
        return _submit(wire, **kwargs)

    monkeypatch.setattr(batch_lane, "submit", spy)
    return batch_submits


def _hold_completions(server, monkeypatch):
    """Make a quantum that never runs out (a test demotes by hand), spy
    on the batch lane's submissions, and hold every completion until
    the returned event is set; returns (batch submissions, event)."""
    monkeypatch.setattr(repro.server.app, "DEFAULT_LATENCY_TARGET_S", 60.0)
    batch_submits = _spy_batch_submits(server, monkeypatch)
    released = threading.Event()
    complete = server._complete

    def held(job_id, handle):
        if released.is_set():
            complete(job_id, handle)
        else:
            server._loop.call_later(0.01, held, job_id, handle)

    monkeypatch.setattr(server, "_complete", held)
    return batch_submits, released


def _on_loop(server, callback, *args):
    """Run ``callback(*args)`` on the server's loop and wait for it."""
    ran = threading.Event()

    def call():
        try:
            callback(*args)
        finally:
            ran.set()

    server._loop.call_soon_threadsafe(call)
    assert ran.wait(timeout=10)


# ----------------------------------------------------------------------
# Shutdown and fallback counters
# ----------------------------------------------------------------------
def test_stop_under_an_open_keepalive_connection_is_quiet(tmp_path):
    # A child interpreter, so whatever asyncio logs while the server
    # stops reaches a stderr the test can read.
    script = "\n".join([
        "import sys",
        "from repro.server import HttpServiceClient, SynthesisServer",
        "server = SynthesisServer(store_dir=sys.argv[1],",
        "                         interactive_workers=1, batch_workers=1)",
        "server.start()",
        "client = HttpServiceClient(server.address)",
        "client.healthz()  # leaves its keep-alive connection open",
        "server.stop()",
        "client.close()",
    ])
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""


def test_stop_with_a_long_poll_parked_on_a_running_job_is_prompt_and_quiet(
    tmp_path,
):
    script = "\n".join([
        "import sys, threading, time",
        "from repro import EngineConfig, Spec",
        "from repro.regex.cost import CostFunction",
        "from repro.server import HttpServiceClient, SynthesisServer",
        "from repro.service import WireRequest",
        "server = SynthesisServer(store_dir=sys.argv[1],",
        "                         interactive_workers=1, batch_workers=1)",
        "server.start()",
        "client = HttpServiceClient(server.address)",
        "wire = WireRequest(",
        "    spec=Spec(['0110100101', '1010010110'],",
        "              ['', '0', '1', '0011001100']),",
        "    cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1)),",
        "    config=EngineConfig(backend='vector'), max_generated=4_000_000)",
        "job_id = client.submit(wire)['job_id']",
        "while client.status(job_id)['state'] != 'running':",
        "    time.sleep(0.005)",
        "answers = []",
        "def long_poll():",
        "    with HttpServiceClient(server.address) as poller:",
        "        answers.append((poller.status(job_id, wait=25)['state'],",
        "                        time.monotonic()))",
        "thread = threading.Thread(target=long_poll)",
        "thread.start()",
        "while not server._long_polls:",
        "    time.sleep(0.005)",
        "stopping = time.monotonic()",
        "server.stop()",
        "stopped = time.monotonic()",
        "thread.join(timeout=30)",
        "client.close()",
        "state, answered = answers[0]",
        "print(state, answered - stopping, stopped - stopping)",
    ])
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    state, answered_s, stop_s = completed.stdout.split()
    # The parked poll is answered with the job's current document as
    # the stop begins, not at its 25 s deadline; the stop itself waits
    # only for the worker to finish its job.
    assert state == "running"
    assert float(answered_s) < 1.0
    assert float(stop_s) < 15.0


def test_failed_checkpoint_write_reaches_healthz_and_metrics(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(faults.ENV_FAULTS, "checkpoint.append:raise:1:once")
    monkeypatch.setenv(faults.ENV_FAULTS_DIR, str(tmp_path))
    faults.reset()  # the forked pool workers re-read the environment
    try:
        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
        ) as running:
            client = HttpServiceClient(running.address)
            job = client.submit(wire_of(INTRO_SPEC), klass=CLASS_INTERACTIVE)
            done = client.result(job["job_id"], timeout=120)
            health = client.healthz()
            metrics = client.metrics()
            client.close()
    finally:
        faults.reset()
    assert done["result"]["status"] == "success"
    assert health["counters"]["checkpoint_errors"] == 1
    samples = {
        labels["class"]: value
        for _name, labels, value in parse_prometheus(metrics)[
            "repro_checkpoint_errors_total"
        ]["samples"]
    }
    assert samples == {CLASS_INTERACTIVE: 1, CLASS_BATCH: 0}
