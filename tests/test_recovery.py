"""Crash-recovery tests: fault harness, durable checkpoints, job retry.

The headline acceptance criteria live in :class:`TestCheckpointResume`
(a query interrupted after *any* completed cost level resumes from that
level and answers **bit-identically** to an uninterrupted run, on both
backends) and :class:`TestPoolRecoverySmoke` (a job whose worker is
SIGKILLed mid-run is retried with backoff on a respawned worker and
completes, with the attempt count in the result extras; a poison job is
quarantined instead of killing the pool).
"""

import json
import pickle

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro import EngineConfig, Session, Spec, SynthesisRequest
from repro.core.cache import cache_version_fingerprint
from repro.regex.cost import CostFunction
from repro.service import (
    CheckpointStore,
    JobFailedError,
    ServiceClient,
    StoreBackedSession,
    checkpoint_key,
    staging_fingerprint,
)
from repro.service.pool import _session_stats
from repro.service.store import StagingStore, atomic_write_bytes
from repro.testing import faults
from repro.testing.faults import (
    FaultSpecError,
    corrupt_file,
    fault_point,
    inject,
    parse_spec,
    truncate_file,
)

#: Small but non-trivial: five full cost levels before the solution.
SPEC = Spec(positive=["00", "010", "0110"], negative=["", "11", "101"])

BACKENDS = ("vector", "scalar")

#: Result fields that must match bit-for-bit between an uninterrupted
#: run and a resumed one.
IDENTITY_FIELDS = (
    "status", "regex", "cost", "generated", "unique_cs", "levels_built",
)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no fault armed."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    monkeypatch.delenv(faults.ENV_FAULTS_DIR, raising=False)
    faults.reset()
    yield
    faults.reset()


def interrupted_after(session, spec, levels):
    """Run ``spec`` on ``session`` but cancel after ``levels`` levels."""
    count = {"n": 0}

    def on_progress(event):
        if not event.done:
            count["n"] += 1

    request = SynthesisRequest(
        spec=spec,
        on_progress=on_progress,
        cancel=lambda: count["n"] >= levels,
    )
    return session.synthesize(request)


def assert_identical(resumed, reference):
    for field in IDENTITY_FIELDS:
        assert getattr(resumed, field) == getattr(reference, field), field
    assert resumed.extra["level_stats"] == reference.extra["level_stats"]


# ----------------------------------------------------------------------
# The fault-injection harness itself
# ----------------------------------------------------------------------
class TestFaultHarness:
    def test_spec_grammar(self):
        table = parse_spec(
            "pool.worker.before_job:kill:2:once, checkpoint.append:raise"
        )
        fault = table["pool.worker.before_job"]
        assert (fault.action, fault.hit, fault.once) == ("kill", 2, True)
        fault = table["checkpoint.append"]
        assert (fault.action, fault.hit, fault.once) == ("raise", 1, False)

    @pytest.mark.parametrize("bad", ["justapoint", "p:frobnicate", "p:raise:x"])
    def test_malformed_specs_are_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)

    def test_unarmed_points_are_noops(self):
        fault_point("nothing.armed.here")

    def test_raise_fires_on_the_nth_arrival_then_disarms(self):
        inject("t.point", "raise", hit=3)
        fault_point("t.point")
        fault_point("t.point")
        with pytest.raises(OSError):
            fault_point("t.point")
        fault_point("t.point")  # disarmed after firing

    def test_environment_arming_and_reset(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "t.env:raise")
        faults.reset()  # next arrival re-reads the environment
        with pytest.raises(OSError):
            fault_point("t.env")
        monkeypatch.delenv(faults.ENV_FAULTS)
        faults.reset()
        fault_point("t.env")

    def test_once_sentinel_claims_across_rearms(self, monkeypatch, tmp_path):
        monkeypatch.setenv(faults.ENV_FAULTS_DIR, str(tmp_path))
        inject("t.once", "raise", once=True)
        with pytest.raises(OSError):
            fault_point("t.once")
        # A re-armed copy (as a respawned process would have) loses the
        # O_EXCL sentinel race and stays silent.
        inject("t.once", "raise", once=True)
        fault_point("t.once")

    def test_corruption_helpers(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abcdef")
        truncate_file(path, 3)
        assert path.read_bytes() == b"abc"
        corrupt_file(path, offset=1)
        assert path.read_bytes() == bytes([ord("a"), ord("b") ^ 0xFF, ord("c")])


# ----------------------------------------------------------------------
# Store satellites: atomic writes and pickle quarantine
# ----------------------------------------------------------------------
class TestAtomicWriteFaults:
    def test_failed_write_leaves_no_temp_and_keeps_old_content(self, tmp_path):
        target = tmp_path / "value.pkl"
        atomic_write_bytes(target, b"old")
        inject("store.atomic_write_bytes", "raise")
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []


class TestPickleStoreQuarantine:
    def make_store(self, tmp_path):
        store = StagingStore(tmp_path / "staging")
        store.save("k", {"payload": 1})
        return store, store._path("k")

    def test_truncated_blob_quarantines_and_misses(self, tmp_path):
        store, path = self.make_store(tmp_path)
        truncate_file(path, path.stat().st_size // 2)
        assert store.load("k") is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()
        # The address self-heals on the next save.
        store.save("k", {"payload": 2})
        assert store.load("k") == {"payload": 2}

    def test_bitrot_quarantines(self, tmp_path):
        store, path = self.make_store(tmp_path)
        corrupt_file(path, offset=path.stat().st_size // 2)
        assert store.load("k") is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_version_skew_quarantines(self, tmp_path):
        store, path = self.make_store(tmp_path)
        path.write_bytes(pickle.dumps(("repro-store", 999, {"payload": 1})))
        assert store.load("k") is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_unwrapped_legacy_blob_quarantines(self, tmp_path):
        store, path = self.make_store(tmp_path)
        path.write_bytes(pickle.dumps({"payload": 1}))
        assert store.load("k") is None
        assert path.with_name(path.name + ".corrupt").exists()


# ----------------------------------------------------------------------
# The checkpoint store
# ----------------------------------------------------------------------
def checkpoints_of(backend, spec):
    """The checkpoint records of a solo run: one per completed level
    (the run is far too small for an in-level record)."""
    session = Session(EngineConfig(backend=backend))
    engine = session.make_engine(SynthesisRequest(spec=spec))
    taken = []
    engine.on_checkpoint = taken.extend
    engine.run(40)
    assert [r.cost for r in taken] == list(range(1, engine.levels_built + 1))
    return taken


class TestCheckpointStore:
    def test_key_is_stable_and_cost_fn_sensitive(self):
        fp = staging_fingerprint(SPEC)
        uniform = checkpoint_key(fp, CostFunction.uniform())
        assert uniform == checkpoint_key(fp, CostFunction.uniform())
        other = checkpoint_key(fp, CostFunction.from_tuple((1, 1, 10, 1, 1)))
        assert uniform != other
        assert cache_version_fingerprint() != fp  # distinct namespaces

    def test_roundtrip_and_duplicate_dedupe(self, tmp_path):
        store = CheckpointStore(tmp_path)
        levels = checkpoints_of("vector", SPEC)
        assert len(levels) >= 4
        key = checkpoint_key(staging_fingerprint(SPEC), CostFunction.uniform())
        assert store.append(key, levels) == len(levels)
        assert store.append(key, levels[:1]) == 0  # already there
        # One entry kind: every record is a level up to its cursor.
        for entry in store._read_manifest(key):
            assert set(entry) == {"cost", "offset", "length", "level_progress"}
        loaded = store.load(key)
        assert [lv.cost for lv in loaded] == [lv.cost for lv in levels]
        for got, want in zip(loaded, levels):
            assert got.generated_total == want.generated_total
            assert got.level_progress == want.level_progress
            for field in ("rows", "ops", "lefts", "rights", "ordinals"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def fill(self, tmp_path):
        store = CheckpointStore(tmp_path)
        levels = checkpoints_of("vector", SPEC)
        key = checkpoint_key(staging_fingerprint(SPEC), CostFunction.uniform())
        store.append(key, levels)
        return store, key, levels

    def test_truncated_journal_serves_prefix_and_heals(self, tmp_path):
        store, key, levels = self.fill(tmp_path)
        journal = store._journal_path(key)
        truncate_file(journal, journal.stat().st_size - 25)
        loaded = store.load(key)
        assert 0 < len(loaded) == len(levels) - 1
        assert [lv.cost for lv in loaded] == [lv.cost for lv in levels[:-1]]
        # The manifest was healed down to the surviving prefix, and the
        # lost tail can be re-journalled (offsets skip the torn bytes).
        assert [e["cost"] for e in store._read_manifest(key)] == [
            lv.cost for lv in loaded
        ]
        assert store.append(key, levels[-1:]) == 1
        assert len(store.load(key)) == len(levels)

    def test_bitrot_stops_the_prefix_at_the_damaged_record(self, tmp_path):
        store, key, levels = self.fill(tmp_path)
        records = store._read_manifest(key)
        # Flip a byte inside the SECOND record's payload.
        corrupt_file(
            store._journal_path(key),
            offset=records[1]["offset"] + 60,
        )
        loaded = store.load(key)
        assert [lv.cost for lv in loaded] == [levels[0].cost]

    def test_missing_journal_or_manifest_is_empty(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("nothing") == []
        _, key, _ = self.fill(tmp_path / "full")
        full = CheckpointStore(tmp_path / "full")
        full._manifest_path(key).unlink()
        assert full.load(key) == []


# ----------------------------------------------------------------------
# Checkpoint GC: the --checkpoint-budget LRU eviction
# ----------------------------------------------------------------------
class TestCheckpointPrune:
    @staticmethod
    def seed(tmp_path, sizes, base_mtime=1_000_000.0):
        """Fabricate journals of the given sizes, oldest first."""
        import os

        store = CheckpointStore(tmp_path)
        for index, size in enumerate(sizes):
            key = "key%02d" % index
            store._journal_path(key).write_bytes(b"x" * size)
            store._manifest_path(key).write_text("{}", encoding="utf-8")
            mtime = base_mtime + index
            os.utime(store._journal_path(key), (mtime, mtime))
        return store

    def test_no_budget_is_a_noop(self, tmp_path):
        store = self.seed(tmp_path, [100, 200])
        stats = store.prune()
        assert stats["removed_keys"] == 0
        assert stats["kept_keys"] == 2
        assert sorted(store.keys()) == ["key00", "key01"]

    def test_byte_budget_evicts_oldest_first(self, tmp_path):
        store = self.seed(tmp_path, [100, 100, 100])
        # 3 keys x 102 bytes (journal + "{}" manifest); budget keeps 2.
        stats = store.prune(max_bytes=2 * 102)
        assert stats["removed_keys"] == 1
        assert stats["removed_bytes"] == 102
        assert store.keys() == ["key01", "key02"]  # key00 was oldest
        assert not store._manifest_path("key00").exists()
        assert not (tmp_path / "key00.lock").exists()

    def test_age_budget_drops_idle_keys(self, tmp_path):
        store = self.seed(tmp_path, [50, 50], base_mtime=1_000.0)
        stats = store.prune(max_age_s=100.0, now=1_100.5)
        # key00 (mtime 1000) is 100.5s idle, key01 (mtime 1001) 99.5s.
        assert stats["removed_keys"] == 1
        assert store.keys() == ["key01"]

    def test_pruned_key_recovers_as_a_cold_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        levels = checkpoints_of("vector", SPEC)
        key = checkpoint_key(staging_fingerprint(SPEC), CostFunction.uniform())
        store.append(key, levels)
        assert store.prune(max_bytes=0)["removed_keys"] == 1
        assert store.load(key) == []  # cold, not corrupt
        assert store.append(key, levels[:1]) == 1  # re-journals

    def test_size_of_counts_journal_and_manifest(self, tmp_path):
        store = self.seed(tmp_path, [64])
        assert store.size_of("key00") == 64 + 2
        assert store.size_of("missing") == 0


# ----------------------------------------------------------------------
# Checkpointed sessions: kill at every level, resume bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointResume:
    def test_resume_from_every_kill_level_is_bit_identical(
        self, backend, tmp_path
    ):
        config = EngineConfig(backend=backend)
        reference = Session(config).synthesize(SPEC)
        assert reference.status == "success"
        for kill_after in range(1, reference.levels_built + 1):
            store = CheckpointStore(tmp_path / ("kill%d" % kill_after))
            crashed = StoreBackedSession(config, checkpoint_store=store)
            partial = interrupted_after(crashed, SPEC, kill_after)
            assert partial.status == "cancelled"
            assert crashed.checkpoint_saves >= kill_after
            resumed_session = StoreBackedSession(
                config, checkpoint_store=store
            )
            resumed = resumed_session.synthesize(SPEC)
            assert resumed_session.resumed_queries == 1
            assert resumed.extra["resumed_levels"] >= kill_after
            assert_identical(resumed, reference)

    def test_completed_query_re_serves_all_levels(self, backend, tmp_path):
        config = EngineConfig(backend=backend)
        store = CheckpointStore(tmp_path)
        first_session = StoreBackedSession(config, checkpoint_store=store)
        first = first_session.synthesize(SPEC)
        again_session = StoreBackedSession(config, checkpoint_store=store)
        again = again_session.synthesize(SPEC)
        assert again.extra["resumed_levels"] == first.levels_built
        assert again_session.checkpoint_saves == 0  # nothing new to journal
        assert_identical(again, first)

    def test_cross_backend_checkpoint_reuse(self, backend, tmp_path):
        # Checkpoints are keyed by (universe, cost function, layout
        # version) only: what one backend journals, the other resumes.
        other = "scalar" if backend == "vector" else "vector"
        store = CheckpointStore(tmp_path)
        writer = StoreBackedSession(
            EngineConfig(backend=backend), checkpoint_store=store
        )
        written = writer.synthesize(SPEC)
        reader_session = StoreBackedSession(
            EngineConfig(backend=other), checkpoint_store=store
        )
        resumed = reader_session.synthesize(SPEC)
        assert reader_session.resumed_queries == 1
        assert resumed.extra["resumed_levels"] > 0
        assert_identical(resumed, written)

    def test_damaged_checkpoints_degrade_to_a_cold_run(self, backend, tmp_path):
        config = EngineConfig(backend=backend)
        store = CheckpointStore(tmp_path)
        StoreBackedSession(config, checkpoint_store=store).synthesize(SPEC)
        for journal in tmp_path.glob("*.journal"):
            corrupt_file(journal, offset=10)
        session = StoreBackedSession(config, checkpoint_store=store)
        resumed = session.synthesize(SPEC)
        reference = Session(config).synthesize(SPEC)
        assert_identical(resumed, reference)

    def test_layout_version_fingerprint_invalidates(
        self, backend, tmp_path, monkeypatch
    ):
        config = EngineConfig(backend=backend)
        store = CheckpointStore(tmp_path)
        StoreBackedSession(config, checkpoint_store=store).synthesize(SPEC)
        import repro.service.checkpoint as checkpoint_module

        monkeypatch.setattr(
            checkpoint_module,
            "cache_version_fingerprint",
            lambda: "a-new-packed-layout",
        )
        session = StoreBackedSession(config, checkpoint_store=store)
        result = session.synthesize(SPEC)
        assert session.resumed_queries == 0  # stale journals not replayed
        assert result.extra["resumed_levels"] == 0
        assert_identical(result, Session(config).synthesize(SPEC))

    def test_failed_restore_runs_cold_and_is_counted(self, backend, tmp_path):
        class BrokenLoads(CheckpointStore):
            def load(self, key):
                raise RuntimeError("unreadable checkpoint store")

        config = EngineConfig(backend=backend)
        session = StoreBackedSession(
            config, checkpoint_store=BrokenLoads(tmp_path)
        )
        result = session.synthesize(SPEC)
        assert_identical(result, Session(config).synthesize(SPEC))
        assert result.extra["resumed_levels"] == 0
        assert session.checkpoint_errors == 1
        # Pool workers report the counter with their session stats.
        assert _session_stats(session)["checkpoint_errors"] == 1

    def test_failed_write_is_skipped_and_counted(
        self, backend, tmp_path, monkeypatch
    ):
        # A short cadence, so the run journals in several rounds: the
        # second round fails, and exactly its records go missing.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", 7)
        config = EngineConfig(backend=backend)
        engine = Session(config).make_engine(SynthesisRequest(spec=SPEC))
        groups = []
        engine.on_checkpoint = groups.append
        engine.run(40)
        session = StoreBackedSession(
            config, checkpoint_store=CheckpointStore(tmp_path)
        )
        inject("checkpoint.append", "raise", hit=2)
        result = session.synthesize(SPEC)
        assert_identical(result, Session(config).synthesize(SPEC))
        assert session.checkpoint_errors == 1
        assert session.checkpoint_saves == (
            sum(len(group) for group in groups) - len(groups[1])
        )


# ----------------------------------------------------------------------
# The checkpoint cadence: one group per cadence interval, one round each
# ----------------------------------------------------------------------
#: The vector engine's emit accumulator: its safe points are at most one
#: flushed batch apart.
VECTOR_MAX_BATCH = 1 << 17


class RoundKeepingStore(CheckpointStore):
    """A checkpoint store that keeps every group its sink writes."""

    def __init__(self, root):
        super().__init__(root)
        self.rounds = []

    def append_level(self, key, records):
        self.rounds.append(list(records))
        return super().append_level(key, records)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointCadence:
    @pytest.fixture(autouse=True)
    def candidates_only(self, monkeypatch):
        # Only the candidate interval applies, so the counts below do
        # not depend on how fast this host enumerates.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_S", 1e9)

    def groups_of(self, backend):
        engine = Session(EngineConfig(backend=backend)).make_engine(
            SynthesisRequest(spec=SPEC)
        )
        groups = []
        engine.on_checkpoint = lambda group: groups.append(
            (engine.status, group)
        )
        engine.run(40)
        return engine, groups

    def test_a_run_below_the_cadence_hands_over_one_group_at_its_end(
        self, backend, tmp_path
    ):
        engine, groups = self.groups_of(backend)
        assert engine.status == "success"
        # One group, handed over once the solution was found.
        ((status, group),) = groups
        assert status == "success"
        assert [r.cost for r in group] == list(
            range(1, engine.levels_built + 1)
        )
        # Every record is its level's end.
        assert [r.level_progress for r in group[1:]] == [
            stats["generated"] for stats in engine.level_stats[:-1]
        ]
        store = RoundKeepingStore(tmp_path)
        session = StoreBackedSession(
            EngineConfig(backend=backend), checkpoint_store=store
        )
        result = session.synthesize(SPEC)
        assert [len(records) for records in store.rounds] == [
            result.levels_built
        ]
        assert session.checkpoint_saves == result.levels_built

    def test_groups_across_the_cadence_bound_the_rework(
        self, backend, monkeypatch
    ):
        every = 7
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", every)
        _, groups = self.groups_of(backend)
        records = [record for _, group in groups for record in group]
        assert len(groups) > 1
        assert any(len(group) > 1 for _, group in groups)
        assert [r.cost for r in records] == sorted(r.cost for r in records)
        slack = VECTOR_MAX_BATCH if backend == "vector" else 1
        previous = {}
        for record in records:
            prior = previous.get(record.cost, 0)
            assert 0 < record.level_progress - prior <= every + slack
            previous[record.cost] = record.level_progress

    def test_a_fully_resumed_run_journals_nothing(self, backend, tmp_path):
        config = EngineConfig(backend=backend)
        store = RoundKeepingStore(tmp_path)
        StoreBackedSession(config, checkpoint_store=store).synthesize(SPEC)
        store.rounds.clear()
        session = StoreBackedSession(config, checkpoint_store=store)
        result = session.synthesize(SPEC)
        assert result.extra["resumed_levels"] == result.levels_built
        assert store.rounds == []
        assert session.checkpoint_saves == 0

    def test_adopted_rows_do_not_trigger_an_early_group(
        self, backend, tmp_path, monkeypatch
    ):
        # Resume mid-way through level 5: the levels below it whole,
        # then an in-level record.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", 7)
        _, groups = self.groups_of(backend)
        records = [record for _, group in groups for record in group]
        partial = next(
            record for record in records
            if record.cost == 5 and record.level_progress >= 10
        )
        last = {record.cost: record for record in records}
        restored = [last[cost] for cost in range(1, 5)] + [partial]
        adopted = sum(record.level_progress for record in restored)
        store = RoundKeepingStore(tmp_path)
        key = checkpoint_key(staging_fingerprint(SPEC), CostFunction.uniform())
        assert store.append(key, restored) == 5
        # Fewer candidates than the resumed run adopts, so counting them
        # would force a group at its first safe point; more than level
        # 4's end, so the adopted levels' ends cannot restart the count.
        every = adopted - 10
        assert every > last[4].generated_total
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", every)
        result = StoreBackedSession(
            EngineConfig(backend=backend), checkpoint_store=store
        ).synthesize(SPEC)
        assert result.extra["resumed_levels"] == 4
        assert result.extra["partial_resumes"] == 1
        first = store.rounds[0][0]
        assert first.cost == 5
        assert first.generated_total - adopted >= every


def test_batched_sweeps_checkpoint_and_resume(tmp_path):
    specs = [SPEC, Spec(positive=["010", "0110"], negative=["00", "11", ""])]
    config = EngineConfig(backend="vector")
    reference = [Session(config).synthesize(s) for s in specs]
    store = CheckpointStore(tmp_path)
    first = StoreBackedSession(config, checkpoint_store=store)
    for got, want in zip(first.synthesize_many(specs), reference):
        assert (got.regex, got.cost, got.status) == (
            want.regex, want.cost, want.status)
    assert first.checkpoint_saves > 0
    second = StoreBackedSession(config, checkpoint_store=store)
    results = second.synthesize_many(specs)
    assert results[0].extra["resumed_levels"] > 0
    for got, want in zip(results, reference):
        assert (got.regex, got.cost, got.status) == (
            want.regex, want.cost, want.status)


# ----------------------------------------------------------------------
# Pool-level recovery (the CI recovery-smoke scenario)
# ----------------------------------------------------------------------
class TestPoolRecoverySmoke:
    def arm(self, monkeypatch, tmp_path, spec):
        monkeypatch.setenv(faults.ENV_FAULTS, spec)
        monkeypatch.setenv(faults.ENV_FAULTS_DIR, str(tmp_path / "sentinels"))
        (tmp_path / "sentinels").mkdir(exist_ok=True)
        faults.reset()  # forked workers re-read the environment

    def test_killed_worker_job_is_retried_and_completes(
        self, monkeypatch, tmp_path
    ):
        self.arm(monkeypatch, tmp_path, "pool.worker.before_job:kill:1:once")
        reference = Session(EngineConfig(backend="vector")).synthesize(SPEC)
        with ServiceClient(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as client:
            result = client.synthesize(SPEC, timeout=120)
            stats = client.stats
        assert result.status == "success"
        assert result.regex == reference.regex
        assert result.extra["attempts"] == 2
        assert stats["retries"] == 1
        assert stats["respawns"] == 1
        assert stats["quarantined"] == 0
        assert stats["failed"] == 0

    def test_worker_killed_mid_checkpointing_resumes_on_retry(
        self, monkeypatch, tmp_path
    ):
        # The acceptance combo: the worker dies inside its third journal
        # round (mid-append, manifest not yet updated), and the retried
        # job resumes from the last manifest-visible level instead of
        # re-enumerating from level 1 — bit-identical to a solo run.  A
        # short cadence (inherited by the forked workers) makes the
        # small job journal in several rounds.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", 7)
        self.arm(monkeypatch, tmp_path, "checkpoint.append:kill:3:once")
        reference = Session(EngineConfig(backend="vector")).synthesize(SPEC)
        with ServiceClient(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as client:
            result = client.synthesize(SPEC, timeout=120)
            stats = client.stats
        assert result.status == "success"
        assert result.extra["attempts"] == 2
        assert result.extra["resumed_levels"] >= 2
        assert result.regex == reference.regex
        assert result.cost == reference.cost
        assert result.generated == reference.generated
        assert result.extra["level_stats"] == reference.extra["level_stats"]
        assert stats["retries"] == 1 and stats["respawns"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_killed_inside_its_only_round_is_retried_cold(
        self, backend, monkeypatch, tmp_path
    ):
        # A small job journals once, when its run returns.  A SIGKILL
        # inside that round leaves the manifest untouched, so the retry
        # starts cold and still answers bit-identically.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_S", 1e9)
        self.arm(monkeypatch, tmp_path, "checkpoint.append:kill:1:once")
        config = EngineConfig(backend=backend)
        reference = Session(config).synthesize(SPEC)
        with ServiceClient(
            workers=2,
            config=config,
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as client:
            result = client.synthesize(SPEC, timeout=120)
            stats = client.stats
        assert result.extra["attempts"] == 2
        assert result.extra["resumed_levels"] == 0
        assert_identical(result, reference)
        assert stats["retries"] == 1 and stats["respawns"] == 1

    def test_poison_job_is_quarantined_with_its_error(
        self, monkeypatch, tmp_path
    ):
        # No ``once``: the job kills every worker that touches it.
        self.arm(monkeypatch, tmp_path, "pool.worker.before_job:kill")
        store_dir = tmp_path / "store"
        with ServiceClient(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=str(store_dir),
            retry_backoff_s=0.02,
            retry_max_attempts=2,
        ) as client:
            handle = client.submit(SPEC)
            with pytest.raises(JobFailedError, match="attempts=2"):
                handle.result(timeout=120)
            stats = client.stats
        assert stats["quarantined"] == 1
        records = list((store_dir / "quarantine").glob("*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["attempts"] == 2
        assert record["fingerprint"] == records[0].stem
        assert "died" in record["error"]
        assert record["request"]["spec"]["positive"] == list(SPEC.positive)


# ----------------------------------------------------------------------
# Shard-coordinator failover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_dead_shard_worker_falls_back_to_serial(backend, tmp_path, monkeypatch):
    from repro.language.guide_table import GuideTable
    from repro.language.universe import Universe
    from repro.core.scalar_engine import ScalarEngine
    from repro.core.vector_engine import VectorEngine

    engines = {"scalar": ScalarEngine, "vector": VectorEngine}
    universe = Universe(SPEC.all_words, alphabet=SPEC.alphabet)
    guide = GuideTable(universe)

    def run(shard_workers, armed):
        if armed:
            # Armed pre-fork: the forked shard workers inherit the
            # fault table and die at their first emit round; the parent
            # never visits the point.
            inject("shard.worker.emit", "kill")
        engine = engines[backend](
            SPEC, CostFunction.uniform(), universe, guide,
            shard_workers=shard_workers,
        )
        engine.shard_min_candidates = 0
        status = engine.run(40)
        faults.reset()
        return engine, status

    serial, serial_status = run(1, armed=False)
    sharded, sharded_status = run(3, armed=True)
    assert sharded.shard_failovers >= 1
    assert sharded.shard_workers == 1  # sharding disabled after failover
    assert sharded_status == serial_status
    assert sharded.generated == serial.generated
    assert sharded.levels_built == serial.levels_built
    assert sharded.level_stats == serial.level_stats
    assert sharded.solution == serial.solution
    assert sharded.solution_cost == serial.solution_cost
