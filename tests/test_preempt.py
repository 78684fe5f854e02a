"""Preemption tests: in-level checkpoints, the preempt protocol, brownout.

The headline acceptance criteria live in
:class:`TestPartialCheckpointResume` (a run killed at *any* checkpoint
record, mid-level ones included, resumes from it and answers
**bit-identically** to an uninterrupted run, on both backends, with the
rework bounded by the checkpoint interval) and
:class:`TestPoolPreemption` (a running pool job asked to yield
checkpoints at the next safe point, requeues at its prior priority
without burning a retry attempt, and its eventual answer is
bit-identical to an unpreempted run).  The admission-layer pieces —
brownout shedding and the saturation-triggered eviction — are tested
pure in :class:`TestBrownout`, and bearer-token auth end-to-end in
:class:`TestAuth`.
"""

import time

import pytest

import repro.core.engine as engine_module
from repro import EngineConfig, Session, Spec, SynthesisRequest
from repro.core.engine import STATUS_PREEMPTED
from repro.server import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    AdmissionController,
    HttpServiceClient,
    ServerError,
    SynthesisServer,
)
from repro.service import CheckpointStore, ServiceClient, StoreBackedSession
from repro.service.pool import WorkerPool
from repro.testing import faults

#: Small but non-trivial: five full cost levels before the solution.
SPEC = Spec(positive=["00", "010", "0110"], negative=["", "11", "101"])

#: ~1.5 s on the scalar backend — long enough that the parent can
#: deterministically preempt the attempt mid-run.
SLOW_SPEC = Spec(
    positive=["00110100", "11001011"], negative=["0", "11", "1001001"]
)

BACKENDS = ("vector", "scalar")

#: Result fields that must match bit-for-bit between an unpreempted
#: run and one resumed from a partial checkpoint.
IDENTITY_FIELDS = (
    "status", "regex", "cost", "generated", "unique_cs", "levels_built",
)

#: The vector engine's emit accumulator: safe points are at most one
#: flushed batch apart, so a partial interval is honoured within this.
VECTOR_MAX_BATCH = 1 << 17


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no fault armed."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    monkeypatch.delenv(faults.ENV_FAULTS_DIR, raising=False)
    faults.reset()
    yield
    faults.reset()


def assert_identical(resumed, reference):
    for field in IDENTITY_FIELDS:
        assert getattr(resumed, field) == getattr(reference, field), field
    assert resumed.extra["level_stats"] == reference.extra["level_stats"]


def run_with_records(backend, every=7):
    """A solo run that keeps every checkpoint record: each level's end,
    plus in-level records on a cadence of ``every`` candidates."""
    engine = Session(EngineConfig(backend=backend)).make_engine(
        SynthesisRequest(spec=SPEC)
    )
    records = []
    engine.on_checkpoint = records.extend
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", every)
        status = engine.run(40)
    reference = (
        status, engine.generated, engine.levels_built, engine.level_stats,
        engine.solution, engine.solution_cost, len(engine.cache),
    )
    return records, reference


def level_ends_before(records, cost):
    """The last record of every level below ``cost`` — its end."""
    last = {record.cost: record for record in records}
    return [last[c] for c in sorted(last) if c < cost]


def in_level(records):
    """Records that are not the last of their level's records."""
    return [
        record for record, following in zip(records, records[1:])
        if following.cost == record.cost
        and following.level_progress > record.level_progress
    ]


# ----------------------------------------------------------------------
# Resume from any checkpoint record, mid-level included (the tentpole)
# ----------------------------------------------------------------------
class TestPartialCheckpointResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kill_at_every_partial_point_is_bit_identical(self, backend):
        # Simulates a SIGKILL right after each record in turn: a fresh
        # engine restores the completed levels plus that record and
        # must finish exactly as the uninterrupted run did.
        records, reference = run_with_records(backend)
        assert reference[0] == "success"
        assert in_level(records), "run produced no in-level records"
        for record in records:
            prior = level_ends_before(records, record.cost)
            engine = Session(EngineConfig(backend=backend)).make_engine(
                SynthesisRequest(spec=SPEC)
            )
            engine.restore(prior + [record])
            status = engine.run(40)
            # Every record is adopted: whole levels, or one level
            # resumed mid-way from the record's cursor.
            assert engine.resumed_levels + engine.partial_resumes == (
                len(prior) + 1
            )
            assert (
                status, engine.generated, engine.levels_built,
                engine.level_stats, engine.solution, engine.solution_cost,
                len(engine.cache),
            ) == reference, (record.cost, record.level_progress)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rework_is_bounded_by_the_checkpoint_interval(self, backend):
        # Consecutive records within one level may be at most the
        # interval plus one emit batch apart — that distance is exactly
        # the work a crash between records can lose.
        every = 7
        records, _ = run_with_records(backend, every=every)
        slack = VECTOR_MAX_BATCH if backend == "vector" else 1
        previous = {}
        for record in records:
            prior = previous.get(record.cost)
            if prior is not None:
                assert record.level_progress - prior <= every + slack
            previous[record.cost] = record.level_progress

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partials_reuse_across_backends(self, backend):
        # Enumeration is backend-independent, so a mid-level record
        # written by one backend resumes on the other.
        other = "scalar" if backend == "vector" else "vector"
        records, _ = run_with_records(backend)
        reference = Session(EngineConfig(backend=other)).synthesize(SPEC)
        record = in_level(records)[-1]
        engine = Session(EngineConfig(backend=other)).make_engine(
            SynthesisRequest(spec=SPEC)
        )
        engine.restore(level_ends_before(records, record.cost) + [record])
        assert engine.run(40) == "success"
        assert engine.partial_resumes == 1
        assert engine.solution_cost == reference.cost
        assert engine.generated == reference.generated

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preempt_probe_stops_with_a_partial(self, backend):
        session = Session(EngineConfig(backend=backend))
        engine = session.make_engine(SynthesisRequest(spec=SPEC))
        records = []
        engine.on_checkpoint = records.extend
        calls = {"n": 0}

        def preempt():
            calls["n"] += 1
            return calls["n"] > 5

        engine.preempt_check = preempt
        assert engine.run(40) == STATUS_PREEMPTED
        assert engine.solution is None
        # Mid-level preemption writes an in-level record; preemption
        # probed at a level boundary needs none (the level's end record
        # is the resume point).  Either way the last record is exactly
        # where the run stopped.
        assert records[-1].generated_total == engine.generated

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preempted_session_result_is_not_a_final_answer(self, backend):
        events = []
        calls = {"n": 0}
        result = Session(EngineConfig(backend=backend)).synthesize(
            SynthesisRequest(
                spec=SPEC,
                preempt=lambda: next_true(calls),
                on_progress=events.append,
            )
        )
        assert result.status == STATUS_PREEMPTED
        assert result.regex is None
        # The terminal done-event belongs to the attempt that finishes.
        assert not any(event.done for event in events)


def next_true(calls, after=5):
    calls["n"] += 1
    return calls["n"] > after


# ----------------------------------------------------------------------
# In-level records in the checkpoint store
# ----------------------------------------------------------------------
class TestStorePartials:
    def test_completed_level_supersedes_its_partials(self, tmp_path):
        records, _ = run_with_records("vector")
        store = CheckpointStore(tmp_path)
        # The last in-level record sits in the (never-completed)
        # solution level; supersession needs one whose level finished.
        partial = in_level(records)[0]
        level_end = [r for r in records if r.cost == partial.cost][-1]
        prior = level_ends_before(records, partial.cost)
        assert store.append("q", prior) == len(prior)
        assert store.append("q", [partial]) == 1
        assert store.load("q")[-1].level_progress == partial.level_progress
        assert store.append("q", [level_end]) == 1
        # The finished level covers everything the in-level record knew.
        assert store.load("q")[-1].level_progress == level_end.level_progress
        assert store.append("q", [partial]) == 0

    def test_newer_partial_replaces_older(self, tmp_path):
        records, _ = run_with_records("vector")
        first = in_level(records)[0]
        last = [r for r in records if r.cost == first.cost][-1]
        store = CheckpointStore(tmp_path)
        assert store.append("q", [first]) == 1
        assert store.append("q", [last]) == 1
        (loaded,) = store.load("q")
        assert (loaded.cost, loaded.level_progress) == (
            last.cost, last.level_progress
        )
        assert [e["cost"] for e in store._read_manifest("q")] == [last.cost]

    def test_corrupt_partial_heals_and_keeps_levels(self, tmp_path):
        records, _ = run_with_records("vector")
        store = CheckpointStore(tmp_path)
        partial = records[-1]
        prior = level_ends_before(records, partial.cost)
        store.append("q", prior + [partial])
        journal = store._journal_path("q")
        data = bytearray(journal.read_bytes())
        data[-3] ^= 0xFF  # flip a bit inside the last record's payload
        journal.write_bytes(bytes(data))
        restored = store.load("q")  # digest mismatch → heal
        assert [r.cost for r in restored] == [r.cost for r in prior]
        assert [e["cost"] for e in store._read_manifest("q")] == [
            r.cost for r in prior
        ]

    def test_kill_between_partial_journal_and_manifest(self, tmp_path):
        # The record's journal bytes land but the manifest never sees
        # them — the store must stay consistent and simply not know
        # about that record.
        records, _ = run_with_records("vector")
        store = CheckpointStore(tmp_path)
        partial = records[-1]
        prior = level_ends_before(records, partial.cost)
        store.append("q", prior)
        faults.inject("checkpoint.append", "raise")
        with pytest.raises(OSError):
            store.append("q", [partial])
        assert [r.cost for r in store.load("q")] == [r.cost for r in prior]
        # And a later append works normally.
        assert store.append("q", [partial]) == 1
        assert store.load("q")[-1].level_progress == partial.level_progress


# ----------------------------------------------------------------------
# Store-backed session: preempt, journal, resume
# ----------------------------------------------------------------------
class TestStoreBackedPreemption:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preempted_run_resumes_bit_identically(self, backend, tmp_path):
        config = EngineConfig(backend=backend)
        reference = Session(config).synthesize(SPEC)
        store = CheckpointStore(tmp_path)
        preempted = StoreBackedSession(config, checkpoint_store=store)
        calls = {"n": 0}
        result = preempted.synthesize(
            SynthesisRequest(spec=SPEC, preempt=lambda: next_true(calls, 8))
        )
        assert result.status == STATUS_PREEMPTED
        # One record per completed level plus the preemption's own.
        assert preempted.checkpoint_saves == result.levels_built + 1
        resumed_session = StoreBackedSession(config, checkpoint_store=store)
        resumed = resumed_session.synthesize(SPEC)
        assert resumed_session.checkpoint_loads == result.levels_built + 1
        assert resumed.extra["partial_resumes"] == 1
        assert_identical(resumed, reference)


# ----------------------------------------------------------------------
# Pool protocol: preempt, requeue, resume; jittered backoff
# ----------------------------------------------------------------------
class TestBackoffJitter:
    def test_delay_within_jitter_band(self):
        pool = WorkerPool(workers=1, retry_backoff_s=0.1, retry_jitter=0.5)
        for attempt in (1, 2, 3):
            base = 0.1 * 2 ** (attempt - 1)
            for _ in range(16):
                delay = pool._backoff_delay(attempt)
                assert base <= delay <= base * 1.5

    def test_zero_jitter_is_deterministic(self):
        pool = WorkerPool(workers=1, retry_backoff_s=0.1, retry_jitter=0.0)
        assert pool._backoff_delay(1) == pytest.approx(0.1)
        assert pool._backoff_delay(3) == pytest.approx(0.4)

    def test_negative_jitter_is_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=1, retry_jitter=-0.1)


class TestPoolPreemption:
    def arm(self, monkeypatch, tmp_path, spec):
        monkeypatch.setenv(faults.ENV_FAULTS, spec)
        monkeypatch.setenv(faults.ENV_FAULTS_DIR, str(tmp_path / "sentinels"))
        (tmp_path / "sentinels").mkdir(exist_ok=True)
        faults.reset()  # forked workers re-read the environment

    def preempt_once_running(self, client, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if client.preempt(job_id):
                return True
            time.sleep(0.01)
        return False

    def test_preempted_job_resumes_and_matches(self, tmp_path):
        config = EngineConfig(backend="scalar")
        reference = Session(config).synthesize(SLOW_SPEC)
        with ServiceClient(
            workers=1,
            config=config,
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as client:
            handle = client.submit(SLOW_SPEC)
            assert self.preempt_once_running(client, handle.job_id)
            result = handle.result(timeout=120)
            stats = client.stats
        assert result.extra["preemptions"] == 1
        # Preemption is scheduling, not failure: the retry budget is
        # untouched and nothing lands in the crash counters.
        assert result.extra["attempts"] == 1
        assert stats["preemptions"] == 1
        assert stats["retries"] == 0
        assert stats["failed"] == 0
        assert_identical(result, reference)

    def test_worker_killed_after_preempt_still_recovers(
        self, monkeypatch, tmp_path
    ):
        # The preempted result is computed, the partial is journaled,
        # and then the worker dies before reporting — the crash-retry
        # path takes over and resumes from the partial checkpoint.
        self.arm(monkeypatch, tmp_path, "pool.worker.preempt:kill:1:once")
        config = EngineConfig(backend="scalar")
        reference = Session(config).synthesize(SLOW_SPEC)
        with ServiceClient(
            workers=1,
            config=config,
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as client:
            handle = client.submit(SLOW_SPEC)
            assert self.preempt_once_running(client, handle.job_id)
            result = handle.result(timeout=120)
            stats = client.stats
        assert result.extra["attempts"] == 2
        assert stats["retries"] == 1 and stats["respawns"] == 1
        assert_identical(result, reference)

    def test_preempt_unknown_job_is_false(self, tmp_path):
        with ServiceClient(
            workers=1, store_dir=str(tmp_path / "store")
        ) as client:
            assert not client.preempt("no-such-job")
            assert client.preempt_longest_running() is None


# ----------------------------------------------------------------------
# Admission: brownout state machine (pure, injectable clock)
# ----------------------------------------------------------------------
class TestBrownout:
    def controller(self, **kwargs):
        self.now = [0.0]
        kwargs.setdefault("slots", {CLASS_INTERACTIVE: 1, CLASS_BATCH: 1})
        kwargs.setdefault("max_queue", {CLASS_INTERACTIVE: 4, CLASS_BATCH: 4})
        kwargs.setdefault("brownout_enter_after_s", 2.0)
        kwargs.setdefault("brownout_exit_after_s", 5.0)
        return AdmissionController(clock=lambda: self.now[0], **kwargs)

    def test_enters_only_after_sustained_saturation(self):
        ac = self.controller()
        assert ac.try_admit(CLASS_INTERACTIVE).admitted  # lane now full
        assert ac.interactive_saturated()
        assert ac.try_admit(CLASS_BATCH).admitted  # not sustained yet
        self.now[0] = 1.9
        assert ac.try_admit(CLASS_BATCH).admitted
        self.now[0] = 2.1
        verdict = ac.try_admit(CLASS_BATCH)
        assert not verdict.admitted and verdict.reason == "brownout"
        assert ac.brownout_snapshot() == {"active": True, "rejections": 1}

    def test_interactive_admissions_unaffected(self):
        ac = self.controller()
        assert ac.try_admit(CLASS_INTERACTIVE).admitted
        self.now[0] = 3.0
        assert not ac.try_admit(CLASS_BATCH).admitted
        assert ac.try_admit(CLASS_INTERACTIVE).admitted

    def test_exit_needs_sustained_calm(self):
        ac = self.controller()
        assert ac.try_admit(CLASS_INTERACTIVE).admitted
        self.now[0] = 3.0
        assert not ac.try_admit(CLASS_BATCH).admitted
        ac.release(CLASS_INTERACTIVE)  # calm starts at t=3
        self.now[0] = 7.0
        assert not ac.try_admit(CLASS_BATCH).admitted  # 4 s calm < 5 s
        self.now[0] = 8.1
        assert ac.try_admit(CLASS_BATCH).admitted
        assert ac.brownout_snapshot()["active"] is False

    def test_flap_resets_the_calm_clock(self):
        ac = self.controller()
        assert ac.try_admit(CLASS_INTERACTIVE).admitted
        self.now[0] = 3.0
        assert not ac.try_admit(CLASS_BATCH).admitted
        ac.release(CLASS_INTERACTIVE)
        self.now[0] = 6.0
        assert ac.try_admit(CLASS_INTERACTIVE).admitted  # saturates again
        ac.release(CLASS_INTERACTIVE)  # calm restarts at t=6
        self.now[0] = 10.0
        assert not ac.try_admit(CLASS_BATCH).admitted
        self.now[0] = 11.5
        assert ac.try_admit(CLASS_BATCH).admitted

    def test_brownout_rejection_suggests_retry_after(self):
        ac = self.controller()
        assert ac.try_admit(CLASS_INTERACTIVE).admitted
        self.now[0] = 3.0
        verdict = ac.try_admit(CLASS_BATCH)
        assert verdict.retry_after_s >= 1.0


# ----------------------------------------------------------------------
# Bearer-token auth end to end
# ----------------------------------------------------------------------
class TestAuth:
    @pytest.fixture()
    def server(self, tmp_path):
        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
            auth_token="open-sesame",
        ) as server:
            yield server

    def test_missing_or_wrong_token_is_401(self, server):
        for client in (
            HttpServiceClient(server.address),
            HttpServiceClient(server.address, auth_token="wrong"),
        ):
            with client:
                with pytest.raises(ServerError) as err:
                    client.healthz()
                assert err.value.status == 401

    def test_bearer_token_grants_access(self, server):
        with HttpServiceClient(
            server.address, auth_token="open-sesame"
        ) as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["brownout"] == {"active": False, "rejections": 0}
            result = client.synthesize(SPEC, timeout=120)
            assert result["status"] == "success"

    def test_metrics_exports_preemption_families(self, server):
        with HttpServiceClient(
            server.address, auth_token="open-sesame"
        ) as client:
            text = client.metrics()
        for family in (
            "repro_brownout_active",
            "repro_brownout_rejections_total",
            "repro_preemptions_total",
            "repro_preemption_triggers_total",
        ):
            assert family in text, family
