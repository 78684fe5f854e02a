"""Concurrent synthesis service tests: wire forms, stores, queue,
affinity scheduling, the worker pool, and the CI smoke scenario.

The headline acceptance criterion lives in
:class:`TestPoolBitIdentity`: pool answers (regex, cost, status) are
bit-identical to solo ``Session.synthesize`` on both backends.
"""

import pickle
import sys
import threading
import time

import pytest

from repro import (
    CancellationToken,
    EngineConfig,
    Session,
    SynthesisRequest,
    Spec,
    synthesize,
)
from repro.api.registry import default_registry
from repro.regex.cost import CostFunction
from repro.service import (
    JOB_CANCELLED,
    JobFailedError,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    ResultStore,
    ServiceClient,
    StagingStore,
    StoreBackedSession,
    WireRequest,
    WorkerPool,
    staging_fingerprint,
)
from repro.service.queue import JobQueue
from repro.testing import faults
from repro.language.guide_table import GuideTable
from repro.language.universe import Universe

WORDS = ("", "0", "1", "00", "10", "100", "1000", "1001", "101",
         "1010", "11", "010")

INTRO_SPEC = Spec(
    positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
    negative=["", "0", "1", "00", "11", "010"],
)

#: A deliberately long-running workload for the cancellation/robustness
#: tests: a >64-word universe with an expensive star keeps the sweep
#: busy for seconds even on the plane-resident pipeline, so there is a
#: comfortable window between the first progress event and the test's
#: intervention (cancel / kill / shutdown).
SLOW_SPEC = Spec(
    positive=["0110100101", "1010010110"],
    negative=["", "0", "1", "0011001100"],
)


def slow_request(**kwargs):
    return SynthesisRequest(
        spec=SLOW_SPEC,
        cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1)),
        max_generated=20_000_000,
        **kwargs,
    )


def partitions(count, words=WORDS):
    """``count`` *distinct* partitions of one shared word set."""
    assert count <= len(words)
    specs = []
    for k in range(count):
        positives = [w for i, w in enumerate(words) if (i + k) % count == 0]
        if not positives or len(positives) == len(words):
            positives = [words[k]]
        negatives = [w for w in words if w not in positives]
        specs.append(Spec(positives, negatives))
    assert len(set(specs)) == count
    return specs


def _key(result):
    return (result.status, result.regex_str, result.cost)


# ----------------------------------------------------------------------
# Wire forms and content addresses
# ----------------------------------------------------------------------
class TestWire:
    def test_fingerprint_is_deterministic(self):
        a = WireRequest(spec=INTRO_SPEC)
        b = WireRequest(spec=Spec(INTRO_SPEC.positive, INTRO_SPEC.negative))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_covers_the_question(self):
        base = WireRequest(spec=INTRO_SPEC)
        assert base.fingerprint() != WireRequest(
            spec=INTRO_SPEC, cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1))
        ).fingerprint()
        assert base.fingerprint() != WireRequest(
            spec=INTRO_SPEC, allowed_error=0.25).fingerprint()
        assert base.fingerprint() != WireRequest(
            spec=INTRO_SPEC, config=EngineConfig(backend="scalar")
        ).fingerprint()

    def test_alias_spellings_share_a_fingerprint(self):
        registry = default_registry()
        gpu = WireRequest.of(
            SynthesisRequest(spec=INTRO_SPEC,
                             config=EngineConfig(backend="gpu")),
            registry=registry)
        vector = WireRequest.of(
            SynthesisRequest(spec=INTRO_SPEC,
                             config=EngineConfig(backend="vector")),
            registry=registry)
        assert gpu.fingerprint() == vector.fingerprint()

    def test_staging_fingerprint_shared_by_partitions(self):
        fps = {staging_fingerprint(s) for s in partitions(4)}
        assert len(fps) == 1
        assert staging_fingerprint(Spec(["a"], ["b"])) not in fps

    def test_json_round_trip_preserves_fingerprint(self):
        wire = WireRequest(
            spec=INTRO_SPEC,
            cost_fn=CostFunction.from_tuple((2, 1, 1, 3, 1)),
            max_cost=20,
            allowed_error=0.2,
            max_generated=1000,
            config=EngineConfig(
                backend="scalar", max_cache_size=500, shard_workers=3
            ),
        )
        again = WireRequest.from_json_dict(wire.to_json_dict())
        assert again == wire
        assert again.config.shard_workers == 3
        assert again.fingerprint() == wire.fingerprint()

    def test_shard_workers_is_not_part_of_the_fingerprint(self):
        # Sharding is an execution knob with bit-identical answers, so
        # submissions differing only in fan-out must dedupe onto one
        # job/result — and stores written before the knob existed must
        # keep answering their requests.
        serial = WireRequest(spec=INTRO_SPEC)
        sharded = WireRequest(spec=INTRO_SPEC,
                              config=EngineConfig(shard_workers=4))
        assert serial.fingerprint() == sharded.fingerprint()
        assert sharded.to_json_dict()["config"]["shard_workers"] == 4

    def test_hooks_are_dropped_on_the_wire(self):
        request = SynthesisRequest(
            spec=INTRO_SPEC, on_progress=lambda e: None,
            cancel=lambda: False)
        wire = WireRequest.of(request)
        pickle.loads(pickle.dumps(wire))  # picklable without the hooks
        assert wire.to_request().on_progress is None

    def test_results_pickle(self):
        result = synthesize(INTRO_SPEC)
        again = pickle.loads(pickle.dumps(result))
        assert _key(again) == _key(result)
        assert again.spec == result.spec


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class TestStores:
    def test_staging_store_round_trip(self, tmp_path):
        store = StagingStore(tmp_path / "staging")
        universe = Universe(INTRO_SPEC.all_words,
                            alphabet=INTRO_SPEC.alphabet)
        guide = GuideTable(universe)
        key = staging_fingerprint(INTRO_SPEC)
        store.save_staging(key, universe, guide)
        assert key in store
        loaded_universe, loaded_guide = store.load_staging(key)
        assert loaded_universe.words == universe.words
        assert loaded_guide.flat.n_splits == guide.flat.n_splits
        assert store.load_staging("0" * 64) is None

    def test_result_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        wire = WireRequest(spec=INTRO_SPEC)
        result = synthesize(INTRO_SPEC)
        store.save_result(wire.fingerprint(), result)
        again = store.load_result(wire.fingerprint())
        assert _key(again) == _key(result)
        assert store.load_result("absent") is None

    def test_store_backed_session_loads_instead_of_building(self, tmp_path):
        store = StagingStore(tmp_path / "staging")
        first = StoreBackedSession(staging_store=store)
        assert first.synthesize(INTRO_SPEC).found
        assert first.store_saves == 1
        assert first.store_loads == 0

        second = StoreBackedSession(staging_store=store)
        result = second.synthesize(INTRO_SPEC)
        assert _key(result) == _key(synthesize(INTRO_SPEC))
        assert second.store_loads == 1
        assert second.stats.staging_builds == 0


# ----------------------------------------------------------------------
# Queue: priorities, dedup, cancellation (no processes involved)
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        queue = JobQueue()
        low = queue.submit(WireRequest(spec=partitions(4)[0]),
                           priority=PRIORITY_LOW)
        first = queue.submit(WireRequest(spec=partitions(4)[1]))
        second = queue.submit(WireRequest(spec=partitions(4)[2]))
        high = queue.submit(WireRequest(spec=partitions(4)[3]),
                            priority=PRIORITY_HIGH)
        order = [job.job_id for job in queue.pending_in_order()]
        assert order == [high.job_id, first.job_id, second.job_id,
                         low.job_id]

    def test_duplicate_submissions_join_one_job(self):
        queue = JobQueue()
        a = queue.submit(WireRequest(spec=INTRO_SPEC))
        b = queue.submit(WireRequest(spec=INTRO_SPEC))
        assert not a.deduplicated and b.deduplicated
        assert a.job_id == b.job_id
        assert len(queue) == 1
        assert queue.deduplicated == 1

    def test_high_priority_duplicate_escalates_the_queued_job(self):
        queue = JobQueue()
        specs = partitions(2)
        low = queue.submit(WireRequest(spec=specs[0]),
                           priority=PRIORITY_LOW)
        normal = queue.submit(WireRequest(spec=specs[1]))
        joined = queue.submit(WireRequest(spec=specs[0]),
                              priority=PRIORITY_HIGH)
        assert joined.deduplicated and joined.job_id == low.job_id
        order = [job.job_id for job in queue.pending_in_order()]
        # The join raised the shared job to the front of the queue.
        assert order == [low.job_id, normal.job_id]

    def test_low_priority_duplicate_does_not_demote(self):
        queue = JobQueue()
        specs = partitions(2)
        high = queue.submit(WireRequest(spec=specs[0]),
                            priority=PRIORITY_HIGH)
        normal = queue.submit(WireRequest(spec=specs[1]))
        queue.submit(WireRequest(spec=specs[0]), priority=PRIORITY_LOW)
        order = [job.job_id for job in queue.pending_in_order()]
        assert order == [high.job_id, normal.job_id]

    def test_stored_lookup_still_emits_the_final_progress_event(self):
        stored = synthesize(INTRO_SPEC)
        events = []
        queue = JobQueue()
        handle = queue.submit(WireRequest(spec=INTRO_SPEC),
                              on_progress=events.append,
                              stored_lookup=lambda fp: stored)
        assert handle.from_store
        assert len(events) == 1 and events[0].done
        assert events[0].incumbent is stored

    def test_cancel_queued_job_never_runs(self):
        queue = JobQueue()
        handle = queue.submit(WireRequest(spec=INTRO_SPEC))
        assert handle.cancel()
        assert handle.state == JOB_CANCELLED
        result = handle.result(timeout=0)
        assert result.status == "cancelled"
        assert len(queue) == 0
        assert not handle.cancel()  # already finished

    def test_done_callbacks_run_once_on_every_terminal_transition(self):
        queue = JobQueue()
        specs = partitions(3)
        finished, failed, cancelled = (
            queue.submit(WireRequest(spec=spec)) for spec in specs
        )
        ended = []
        for handle in (finished, failed, cancelled):
            handle.add_done_callback(ended.append)
        for handle in (finished, failed):
            assert queue.mark_running(handle._job, 0)
        queue.finish(finished._job, synthesize(specs[0]))
        queue.fail(failed._job, "worker died")
        assert cancelled.cancel()
        assert not cancelled.cancel()
        assert ended == [finished, failed, cancelled]
        # Registered on an ended job, or on one answered from the store
        # (born ended), a callback runs at once.
        stored = queue.submit(WireRequest(spec=INTRO_SPEC),
                              stored_lookup=lambda fp: synthesize(INTRO_SPEC))
        late = []
        finished.add_done_callback(late.append)
        stored.add_done_callback(late.append)
        assert late == [finished, stored]

    def test_a_job_cancelled_between_attempts_is_never_requeued(self):
        # The cancel reaches a running job whose attempt has ended (its
        # worker died or it yielded) just before its backoff timer fires:
        # the requeue must end it instead of starting another attempt.
        queue = JobQueue()
        handle = queue.submit(WireRequest(spec=INTRO_SPEC))
        ended = []
        handle.add_done_callback(ended.append)
        assert queue.mark_running(handle._job, 0)
        assert handle.cancel()
        assert not handle.done  # a running job ends through its worker
        assert not queue.requeue(handle._job)
        assert handle.state == JOB_CANCELLED
        assert handle.result(timeout=0).extra["cancelled_while"] == "backoff"
        assert queue.pending_in_order() == []
        assert ended == [handle]

    def test_stored_lookup_fast_path(self, tmp_path):
        stored = synthesize(INTRO_SPEC)
        queue = JobQueue()
        handle = queue.submit(WireRequest(spec=INTRO_SPEC),
                              stored_lookup=lambda fp: stored)
        assert handle.from_store and handle.done
        assert _key(handle.result(timeout=0)) == _key(stored)
        assert len(queue) == 0


# ----------------------------------------------------------------------
# The affinity scheduler (pure planning, deterministic)
# ----------------------------------------------------------------------
class _FakeJob:
    def __init__(self, staging_fp, slots=1):
        self.staging_fp = staging_fp
        self.slots = slots


class TestAffinityScheduling:
    def test_prefers_the_warm_worker(self):
        plan = WorkerPool.plan_assignments(
            [_FakeJob("u1")], worker_loads=[1, 0],
            worker_warm=[["u1"], []], depth=2)
        assert plan == [(0, 0, "affinity")]

    def test_steals_when_every_warm_worker_is_saturated(self):
        plan = WorkerPool.plan_assignments(
            [_FakeJob("u1")], worker_loads=[2, 0],
            worker_warm=[["u1"], []], depth=2)
        assert plan == [(0, 1, "steal")]

    def test_cold_jobs_go_to_the_least_loaded_worker(self):
        plan = WorkerPool.plan_assignments(
            [_FakeJob("u9")], worker_loads=[1, 0],
            worker_warm=[["u1"], ["u2"]], depth=2)
        assert plan == [(0, 1, "cold")]

    def test_assignments_consume_capacity_in_queue_order(self):
        jobs = [_FakeJob("u1"), _FakeJob("u1"), _FakeJob("u1"),
                _FakeJob("u2")]
        plan = WorkerPool.plan_assignments(
            jobs, worker_loads=[0, 0], worker_warm=[["u1"], []], depth=2)
        # Two u1 jobs fill the warm worker, the third spills (steal),
        # and the u2 job lands cold on the remaining capacity.
        assert plan == [(0, 0, "affinity"), (1, 0, "affinity"),
                        (2, 1, "steal"), (3, 1, "cold")]

    def test_planning_stops_when_all_workers_are_full(self):
        jobs = [_FakeJob("u1"), _FakeJob("u2"), _FakeJob("u3")]
        plan = WorkerPool.plan_assignments(
            jobs, worker_loads=[1, 1], worker_warm=[[], []], depth=1)
        assert plan == []

    def test_first_assignment_warms_the_worker_for_the_second(self):
        jobs = [_FakeJob("u1"), _FakeJob("u1")]
        plan = WorkerPool.plan_assignments(
            jobs, worker_loads=[0, 0], worker_warm=[[], []], depth=2)
        assert plan == [(0, 0, "cold"), (1, 0, "affinity")]

    def test_sharded_job_claims_its_shard_slots(self):
        # A shard_workers=2 job occupies 2 of the worker's depth-2
        # slots, so the following single-slot job must go elsewhere.
        jobs = [_FakeJob("u1", slots=2), _FakeJob("u1")]
        plan = WorkerPool.plan_assignments(
            jobs, worker_loads=[0, 0], worker_warm=[["u1"], []], depth=2)
        assert plan == [(0, 0, "affinity"), (1, 1, "steal")]

    def test_wide_job_waits_for_an_idle_worker(self):
        # A job wider than the depth is only admitted onto an idle
        # worker; while it waits it parks the least-loaded worker
        # (worker 0 here), so the narrow job behind it backfills the
        # *other* worker and the parked one drains toward idle.
        jobs = [_FakeJob("u1", slots=5), _FakeJob("u2")]
        plan = WorkerPool.plan_assignments(
            jobs, worker_loads=[1, 1], worker_warm=[[], []], depth=2)
        assert plan == [(1, 1, "cold")]
        plan = WorkerPool.plan_assignments(
            jobs, worker_loads=[0, 1], worker_warm=[[], []], depth=2)
        assert plan == [(0, 0, "cold"), (1, 1, "cold")]

    def test_parked_wide_job_cannot_be_starved_by_backfill(self):
        # Regression: sustained narrow traffic must not starve a wide
        # head-of-line job.  The wide job parks worker 0; narrow jobs
        # may only backfill worker 1, so worker 0's load can only
        # drain — simulate the drain and the wide job places.
        wide = _FakeJob("u1", slots=2)
        narrow = [_FakeJob("u2"), _FakeJob("u3"), _FakeJob("u4")]
        plan = WorkerPool.plan_assignments(
            [wide] + narrow, worker_loads=[1, 1],
            worker_warm=[[], []], depth=2)
        # Worker 0 is parked: only one narrow job fits (worker 1).
        assert plan == [(1, 1, "cold")]
        # Worker 0's job completes -> idle -> the wide job runs first.
        plan = WorkerPool.plan_assignments(
            [wide] + narrow, worker_loads=[0, 2],
            worker_warm=[[], []], depth=2)
        assert plan[0] == (0, 0, "cold")


# ----------------------------------------------------------------------
# Pool integration: the acceptance criterion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["scalar", "vector"])
class TestPoolBitIdentity:
    def test_pool_matches_solo_session(self, backend):
        specs = partitions(5)
        requests = [SynthesisRequest(spec=s) for s in specs]
        requests.append(SynthesisRequest(spec=specs[0], allowed_error=0.25))
        requests.append(SynthesisRequest(
            spec=specs[1], cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1)),
            max_generated=200_000))

        solo = Session(EngineConfig(backend=backend))
        expected = [solo.synthesize(r) for r in requests]

        with ServiceClient(workers=2,
                           config=EngineConfig(backend=backend)) as client:
            results = client.synthesize_many(requests)
        assert [_key(r) for r in results] == [_key(r) for r in expected]
        assert all(r.backend == backend for r in results)


class TestPoolBehaviour:
    def test_progress_events_cross_the_process_boundary(self):
        events = []
        with ServiceClient(workers=1) as client:
            handle = client.submit(INTRO_SPEC, on_progress=events.append)
            result = handle.result(timeout=120)
        assert result.found
        assert events, "expected forwarded progress events"
        streamed = [e for e in events if not e.done]
        assert streamed, "expected at least one per-level event"
        assert [e.cost for e in streamed] == sorted(e.cost for e in streamed)
        # The engine-side monotonic clock travelled with the events.
        elapsed = [e.elapsed_s for e in streamed]
        assert all(v >= 0.0 for v in elapsed)
        assert elapsed == sorted(elapsed)
        final = events[-1]
        assert final.done
        assert final.incumbent is result

    def test_in_flight_dedup_and_priorities(self):
        specs = partitions(4)
        done_order = []

        def tracker(tag):
            def on_event(event):
                if event.done:
                    done_order.append(tag)
            return on_event

        with ServiceClient(workers=1, per_worker_depth=1) as client:
            blocker = client.submit(specs[0], on_progress=tracker("blocker"))
            low = client.submit(specs[1], priority=PRIORITY_LOW,
                                on_progress=tracker("low"))
            high = client.submit(specs[2], priority=PRIORITY_HIGH,
                                 on_progress=tracker("high"))
            dup_a = client.submit(specs[3])
            dup_b = client.submit(specs[3])
            results = [h.result(timeout=120)
                       for h in (blocker, low, high, dup_a, dup_b)]
            stats = client.stats
        assert all(r.found for r in results)
        assert dup_b.deduplicated
        assert dup_a.job_id == dup_b.job_id
        assert _key(results[3]) == _key(results[4])
        assert stats["deduplicated"] == 1
        # With one worker at depth 1, the high-priority job must finish
        # before the low-priority one submitted earlier.
        assert done_order.index("high") < done_order.index("low")

    def test_cancel_queued_job(self):
        specs = partitions(3)
        with ServiceClient(workers=1, per_worker_depth=1) as client:
            blocker = client.submit(specs[0])
            victim = client.submit(specs[1])
            assert victim.cancel()
            cancelled = victim.result(timeout=120)
            assert blocker.result(timeout=120).found
            stats = client.stats
        assert cancelled.status == "cancelled"
        assert stats["cancelled"] == 1

    def test_cancel_running_job_via_control_byte(self):
        # A deliberately long search (expensive-star cost function and a
        # large candidate budget); the budget bounds the damage if
        # cancellation were broken, so the test fails instead of hanging.
        slow = slow_request()
        events = []
        with ServiceClient(workers=1) as client:
            handle = client.submit(slow, on_progress=events.append)
            deadline = time.monotonic() + 60
            while not events and time.monotonic() < deadline:
                time.sleep(0.005)
            assert events, "job never reported progress"
            assert handle.cancel()
            result = handle.result(timeout=120)
        assert result.status == "cancelled"

    def test_jobs_in_flight_on_a_worker_own_distinct_control_slots(self):
        slow = [slow_request(max_cost=60 + k) for k in range(2)]
        with ServiceClient(workers=1, per_worker_depth=2) as client:
            pool = client.pool
            handles = [client.submit(request) for request in slow]
            with pool._lock:
                slots = sorted(pool._slots[h.job_id] for h in handles)
                assert slots == [0, 1]
                # Both slots of the worker are owned: a third claim
                # must fail instead of sharing one.
                with pytest.raises(RuntimeError, match="no free control"):
                    pool._claim_slot(pool._workers[0])
            for handle in handles:
                handle.cancel()
            results = [h.result(timeout=120) for h in handles]
            assert not pool._slots
        assert [r.status for r in results] == ["cancelled", "cancelled"]

    def test_reused_control_slots_never_cancel_a_neighbour(self):
        # More workers than cores, each at full depth, twelve jobs
        # through six slots, and cancels racing dispatch from their own
        # threads: a slot handed on with a stale cancel bit, or shared by
        # two jobs, would cancel a job nobody cancelled.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(workers=3, per_worker_depth=2) as client:
                jobs = []
                for k in range(12):
                    running = threading.Event()
                    handle = client.submit(
                        slow_request().replace(max_generated=2_000_000 + k),
                        on_progress=lambda event, flag=running: flag.set(),
                    )
                    jobs.append((handle, running))

                def cancel_once_running(handle, running):
                    running.wait(timeout=60)
                    handle.cancel()

                cancellers = [
                    threading.Thread(target=cancel_once_running, args=job)
                    for job in jobs[::2]
                ]
                for thread in cancellers:
                    thread.start()
                for thread in cancellers:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                results = [handle.result(timeout=120) for handle, _ in jobs]
                assert not client.pool._slots
        finally:
            sys.setswitchinterval(switch)
        assert [r.status for r in results[1::2]] == ["budget"] * 6
        assert "cancelled" in [r.status for r in results[::2]]

    def test_cancel_and_preempt_reach_a_respawned_worker(self):
        events = []

        def wait_for_new_events(seen):
            deadline = time.monotonic() + 60
            while len(events) <= seen and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(events) > seen, "job never reported progress"

        with ServiceClient(workers=1, retry_backoff_s=0.01) as client:
            pool = client.pool
            handle = client.submit(slow_request(), on_progress=events.append)
            wait_for_new_events(0)
            pool._workers[0].process.kill()
            deadline = time.monotonic() + 60
            while pool.stats["respawns"] < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.stats["respawns"] == 1
            # The retried attempt runs on the replacement process, which
            # must read the same control array as the parent writes.
            wait_for_new_events(len(events))
            assert pool.preempt(handle.job_id)
            while pool.stats["preemptions"] < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.stats["preemptions"] == 1
            wait_for_new_events(len(events))  # resumed after the preempt
            assert handle.cancel()
            result = handle.result(timeout=120)
        assert result.status == "cancelled"
        assert result.extra["preemptions"] == 1

    @pytest.mark.parametrize("wait", ["retry", "preemption"])
    def test_cancel_during_a_backoff_ends_the_job_at_once(
        self, wait, monkeypatch, tmp_path
    ):
        # Between attempts a job owns no control byte: the cancel must
        # drop the backoff timer and end the job now, and the job must
        # never be dispatched again.
        backoff = 30.0
        if wait == "retry":
            monkeypatch.setenv(
                faults.ENV_FAULTS, "pool.worker.before_job:kill:1:once"
            )
            monkeypatch.setenv(faults.ENV_FAULTS_DIR, str(tmp_path))
        faults.reset()  # forked workers re-read the environment
        events = []
        try:
            with ServiceClient(
                workers=1, retry_backoff_s=backoff, retry_jitter=0.0
            ) as client:
                pool = client.pool
                handle = client.submit(
                    slow_request(), on_progress=events.append
                )
                ended = []
                handle.add_done_callback(ended.append)
                deadline = time.monotonic() + 60
                if wait == "preemption":
                    while not events and time.monotonic() < deadline:
                        time.sleep(0.005)
                    assert pool.preempt(handle.job_id)
                while not pool._retrying and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert handle.job_id in pool._retrying
                cancelled_at = time.monotonic()
                assert handle.cancel()
                result = handle.result(timeout=backoff / 3)
                waited = time.monotonic() - cancelled_at
                time.sleep(0.2)  # a dispatch would have happened by now
                stats = client.stats
        finally:
            faults.reset()
        assert result.status == "cancelled"
        assert result.extra["cancelled_while"] == "backoff"
        assert waited < backoff / 10
        dispatches = (
            stats["affinity_hits"] + stats["steals"] + stats["cold_assignments"]
        )
        assert dispatches == 1
        assert handle.state == JOB_CANCELLED
        assert ended == [handle]
        assert not pool._retrying

    def test_worker_crash_fails_only_that_job(self):
        # allowed_error=1.5 passes the wire layer (it is just JSON) but
        # makes the worker's engine constructor raise — a stand-in for
        # any worker-side failure.
        bad = WireRequest(spec=INTRO_SPEC, allowed_error=1.5)
        with ServiceClient(workers=1) as client:
            broken = client.submit(bad)
            ok = client.submit(partitions(2)[0])
            assert ok.result(timeout=120).found
            with pytest.raises(JobFailedError):
                broken.result(timeout=120)
            assert client.stats["failed"] == 1


    def test_killed_worker_fails_its_job_instead_of_hanging(self):
        # With retries exhausted (max_attempts=1) a killed worker's job
        # must fail promptly rather than hang its handle; the retry path
        # itself is covered in tests/test_recovery.py.
        slow = slow_request()
        events = []
        with ServiceClient(workers=1, retry_max_attempts=1) as client:
            handle = client.submit(slow, on_progress=events.append)
            deadline = time.monotonic() + 60
            while not events and time.monotonic() < deadline:
                time.sleep(0.005)
            assert events, "job never reported progress"
            client.pool._workers[0].process.kill()
            with pytest.raises(JobFailedError, match="died"):
                handle.result(timeout=60)
            assert client.stats["failed"] == 1
            assert client.stats["quarantined"] == 1


    def test_request_level_hooks_work_through_the_pool(self):
        # The drop-in promise: a SynthesisRequest's own cancel token
        # and on_progress keep working when served by the pool.
        token = CancellationToken()
        events = []
        slow = slow_request(cancel=token, on_progress=events.append)
        with ServiceClient(workers=1) as client:
            handle = client.submit(slow)
            deadline = time.monotonic() + 60
            while not events and time.monotonic() < deadline:
                time.sleep(0.005)
            assert events, "request's own on_progress never fired"
            token.cancel()
            result = handle.result(timeout=120)
        assert result.status == "cancelled"

    def test_shutdown_without_wait_never_leaves_handles_hanging(self):
        specs = partitions(2)
        pool = WorkerPool(workers=1, per_worker_depth=1)
        pool.start()
        handles = [pool.submit(spec) for spec in specs]
        pool.shutdown(wait=False)
        # Every handle must resolve (answered or failed) — never hang.
        for handle in handles:
            try:
                handle.result(timeout=30)
            except JobFailedError:
                pass
            assert handle.done

    def test_shutdown_returns_even_with_a_dead_worker_mid_job(self):
        import threading

        slow = slow_request()
        events = []
        client = ServiceClient(workers=1).start()
        client.submit(slow, on_progress=events.append)
        deadline = time.monotonic() + 60
        while not events and time.monotonic() < deadline:
            time.sleep(0.005)
        assert events, "job never reported progress"
        client.pool._workers[0].process.kill()
        # shutdown(wait=True) must drain the orphaned job via the
        # reaper instead of spinning on it forever.
        closer = threading.Thread(target=client.close)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive(), "shutdown hung on a dead worker"

    def test_pool_restarts_after_shutdown(self):
        spec = partitions(2)[0]
        pool = WorkerPool(workers=1)
        with pool:
            first = pool.submit(spec).result(timeout=120)
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(spec)
        # A stopped pool restarts cleanly with fresh workers.
        with pool:
            second = pool.submit(spec).result(timeout=120)
        assert _key(first) == _key(second)


class TestWarmStartAcrossRestarts:
    def test_second_pool_loads_persisted_staging(self, tmp_path):
        specs = partitions(3)
        expected = [synthesize(s) for s in specs]
        store = tmp_path / "service-state"

        with ServiceClient(workers=2, store_dir=store) as client:
            cold = client.synthesize_many(specs)
            cold_stats = client.worker_stats()
        assert [_key(r) for r in cold] == [_key(r) for r in expected]
        assert sum(w["session"].get("staging_builds", 0)
                   for w in cold_stats) >= 1

        with ServiceClient(workers=2, store_dir=store) as client:
            warm = client.synthesize_many(specs)
            warm_stats = client.worker_stats()
        assert [_key(r) for r in warm] == [_key(r) for r in expected]
        assert sum(w["session"].get("staging_builds", 0)
                   for w in warm_stats) == 0
        assert sum(w["session"].get("store_loads", 0)
                   for w in warm_stats) >= 1

    def test_reuse_results_answers_from_the_store(self, tmp_path):
        spec = partitions(2)[0]
        store = tmp_path / "service-state"
        with ServiceClient(workers=1, store_dir=store) as client:
            first = client.synthesize(spec)
        with ServiceClient(workers=1, store_dir=store,
                           reuse_results=True) as client:
            handle = client.submit(spec)
            assert handle.from_store and handle.done
            assert _key(handle.result(timeout=0)) == _key(first)
            assert client.stats["result_hits"] == 1


# ----------------------------------------------------------------------
# The CI smoke scenario (mirrors the workflow's service job)
# ----------------------------------------------------------------------
class TestServiceSmoke:
    def test_five_specs_with_duplicate_and_cancellation(self):
        """Start a pool, submit 5 specs — one a duplicate, one cancelled
        — and assert dedupe + cancellation + correct answers."""
        specs = partitions(4)
        with ServiceClient(workers=2, per_worker_depth=1) as client:
            a = client.submit(specs[0])
            b = client.submit(specs[1])
            duplicate = client.submit(specs[0])
            doomed = client.submit(specs[2])
            doomed.cancel()
            c = client.submit(specs[3])
            results = {
                "a": a.result(timeout=120),
                "b": b.result(timeout=120),
                "dup": duplicate.result(timeout=120),
                "doomed": doomed.result(timeout=120),
                "c": c.result(timeout=120),
            }
            stats = client.stats
        assert duplicate.deduplicated
        assert stats["deduplicated"] == 1
        assert stats["cancelled"] == 1
        assert results["doomed"].status == "cancelled"
        assert _key(results["a"]) == _key(results["dup"])
        for tag in ("a", "b", "c"):
            assert _key(results[tag]) == _key(
                synthesize(results[tag].spec))
