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
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from _fixtures import BUDGET, RELABELLED, SPEC
import repro.core.engine as engine_module
import repro.service.checkpoint as checkpoint_module
from repro import EngineConfig, Session, Spec, SynthesisRequest
from repro.core.cache import cache_version_fingerprint
from repro.core.engine import RunControl
from repro.core.hashset import FingerprintHashSet, PackedKeySet
from repro.language.universe import Universe
from repro.regex.cost import CostFunction
from repro.service import (
    CheckpointStore,
    JobFailedError,
    StoreBackedSession,
    WorkerPool,
    checkpoint_key,
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


BACKENDS = ("vector", "scalar")

#: The universe SPEC's runs enumerate: their journal's key.
SPEC_UNIVERSE = Universe(SPEC.all_words, alphabet=SPEC.alphabet)

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
    """The checkpoint records of a solo run: one per completed level,
    then the level its solution stopped in, up to the candidate before
    the solution (the run is far too small for a cadence record)."""
    session = Session(EngineConfig(backend=backend))
    engine = session.make_engine(SynthesisRequest(spec=spec))
    taken = []
    engine.run(40, RunControl(on_checkpoint=taken.extend))
    assert [r.cost for r in taken] == list(range(1, engine.levels_built + 2))
    assert taken[-1].generated_total == engine.generated - 1
    return taken


#: Bytes before a journal record's payload: its header and digest.
RECORD_HEADER_SIZE = (
    checkpoint_module._HEADER.size + checkpoint_module._DIGEST_SIZE
)


def record_offsets(journal):
    """Where each record of a journal starts (a walk over its headers)."""
    data = journal.read_bytes()
    offsets, offset = [], 0
    while offset < len(data):
        offsets.append(offset)
        length = checkpoint_module._HEADER.unpack_from(data, offset)[-1]
        offset += RECORD_HEADER_SIZE + length
    return offsets


def race_appends(root, levels, rounds, barrier):
    """Append every level to one fresh key per round, in step."""
    store = CheckpointStore(root)
    for index in range(rounds):
        barrier.wait()
        store.append("q%d" % index, levels)


def race_loads(root, levels, rounds, barrier):
    """Load each round's key while it is being appended to."""
    store = CheckpointStore(root)
    want = [(lv.cost, lv.level_progress) for lv in levels]
    for index in range(rounds):
        barrier.wait()
        for _ in range(10):
            got = [(r.cost, r.level_progress) for r in store.load("q%d" % index)]
            assert got == want[: len(got)]


class TestCheckpointStore:
    def test_key_is_stable_and_cost_fn_sensitive(self):
        uniform = checkpoint_key(SPEC_UNIVERSE, CostFunction.uniform())
        assert uniform == checkpoint_key(
            Universe(SPEC.all_words), CostFunction.uniform()
        )
        other = checkpoint_key(
            SPEC_UNIVERSE, CostFunction.from_tuple((1, 1, 10, 1, 1))
        )
        assert uniform != other
        assert cache_version_fingerprint() != uniform  # distinct namespaces

    def test_roundtrip_and_duplicate_dedupe(self, tmp_path):
        store = CheckpointStore(tmp_path)
        levels = checkpoints_of("vector", SPEC)
        assert len(levels) >= 4
        key = checkpoint_key(SPEC_UNIVERSE, CostFunction.uniform())
        assert store.append(key, levels) == len(levels)
        assert store.append(key, levels[:1]) == 0  # already there
        # The skipped duplicate wrote nothing: one record per level.
        assert len(record_offsets(store._journal_path(key))) == len(levels)
        loaded = store.load(key)
        assert [lv.cost for lv in loaded] == [lv.cost for lv in levels]
        for got, want in zip(loaded, levels):
            assert got.generated_total == want.generated_total
            assert got.level_progress == want.level_progress
            for field in ("rows", "ordinals"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def fill(self, tmp_path):
        store = CheckpointStore(tmp_path)
        levels = checkpoints_of("vector", SPEC)
        key = checkpoint_key(SPEC_UNIVERSE, CostFunction.uniform())
        store.append(key, levels)
        return store, key, levels

    @pytest.mark.parametrize("torn_in", ["header", "digest", "payload"])
    def test_truncated_journal_serves_prefix_and_heals(self, tmp_path, torn_in):
        store, key, levels = self.fill(tmp_path)
        journal = store._journal_path(key)
        last = record_offsets(journal)[-1]
        cut = {
            "header": last + RECORD_HEADER_SIZE // 2,
            "digest": last + RECORD_HEADER_SIZE + 10,
            "payload": journal.stat().st_size - 25,
        }[torn_in]
        truncate_file(journal, cut)
        torn = journal.read_bytes()
        loaded = store.load(key)
        assert 0 < len(loaded) == len(levels) - 1
        assert [lv.cost for lv in loaded] == [lv.cost for lv in levels[:-1]]
        # Healed by truncation down to the surviving prefix, and the
        # lost tail can be re-journalled.
        assert journal.stat().st_size == last
        assert store.append(key, levels[-1:]) == 1
        assert len(store.load(key)) == len(levels)
        # Without a load in between, the next append drops the torn
        # bytes itself before it writes.
        journal.write_bytes(torn)
        assert store.append(key, levels) == 1
        assert record_offsets(journal)[-1] == last
        assert len(store.load(key)) == len(levels)

    def test_bitrot_stops_the_prefix_at_the_damaged_record(self, tmp_path):
        store, key, levels = self.fill(tmp_path)
        journal = store._journal_path(key)
        # Flip a byte inside the SECOND record's payload.
        corrupt_file(journal, offset=record_offsets(journal)[1] + 80)
        loaded = store.load(key)
        assert [lv.cost for lv in loaded] == [levels[0].cost]
        # The heal cut the journal at the damaged record, so the next
        # run re-journals every level from it on.
        assert store.append(key, levels) == len(levels) - 1
        assert [lv.cost for lv in store.load(key)] == [lv.cost for lv in levels]

    def test_missing_journal_is_empty(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("nothing") == []
        _, key, _ = self.fill(tmp_path / "full")
        full = CheckpointStore(tmp_path / "full")
        full._journal_path(key).unlink()
        assert full.load(key) == []

    def test_a_key_is_one_journal_file(self, tmp_path):
        store, key, levels = self.fill(tmp_path / "checkpoints")
        store.append("other", levels[:2])
        store.append("other", levels[2:])
        store.append("pruned", levels[:1])
        os.utime(store._journal_path("pruned"), (1_000, 1_000))
        assert len(store.load("other")) == len(levels)
        corrupt_file(store._journal_path(key), offset=RECORD_HEADER_SIZE + 40)
        assert store.load(key) == []  # healed: the first record was damaged
        assert store.prune(max_age_s=3600.0)["removed_keys"] == 1
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == [
            "%s.journal" % name for name in sorted((key, "other"))
        ]

    def test_a_round_makes_one_fsync_and_a_new_journal_two(
        self, tmp_path, monkeypatch
    ):
        levels = checkpoints_of("vector", SPEC)
        store = CheckpointStore(tmp_path)
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        assert store.append("q", levels[:2]) == 2
        assert len(synced) == 2  # the journal and its directory entry
        del synced[:]
        assert store.append("q", levels[2:]) == len(levels) - 2
        assert len(synced) == 1  # the journal only
        del synced[:]
        assert store.append("q", levels) == 0
        assert synced == []  # nothing to journal, nothing written

    def test_racing_appenders_journal_each_level_once(self, tmp_path):
        # More appender processes than cores race on one fresh key per
        # round, with readers alongside: a lost update under the flock
        # journals a level twice, and a heal that cut an in-flight round
        # loses one.
        levels = checkpoints_of("vector", SPEC)
        rounds, appenders, loaders = 200, 4, 2
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(appenders + loaders, timeout=30)
        procs = [
            context.Process(
                target=race, args=(tmp_path, levels, rounds, barrier)
            )
            for race in [race_appends] * appenders + [race_loads] * loaders
        ]
        try:
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
        assert [proc.exitcode for proc in procs] == [0] * len(procs)
        store = CheckpointStore(tmp_path)
        for index in range(rounds):
            key = "q%d" % index
            assert len(record_offsets(store._journal_path(key))) == len(levels)
            assert [r.cost for r in store.load(key)] == [
                lv.cost for lv in levels
            ]

    def test_append_after_a_racing_prune_lands_in_a_fresh_journal(
        self, tmp_path, monkeypatch
    ):
        store, key, levels = self.fill(tmp_path)
        real_flock = checkpoint_module.fcntl.flock
        armed = {"prune": True}
        pruned = {}

        def flock(fd, operation):
            # The append has opened the journal and is about to wait
            # for its lock; a prune gets there first and unlinks it.
            if armed.pop("prune", False):
                pruned.update(store.prune(max_bytes=0))
            real_flock(fd, operation)

        monkeypatch.setattr(checkpoint_module.fcntl, "flock", flock)
        assert store.append(key, levels) == len(levels)
        assert pruned["removed_keys"] == 1
        assert [lv.cost for lv in store.load(key)] == [lv.cost for lv in levels]


# ----------------------------------------------------------------------
# Checkpoint GC: the --checkpoint-budget LRU eviction
# ----------------------------------------------------------------------
class TestCheckpointPrune:
    @staticmethod
    def seed(tmp_path, sizes, base_mtime=1_000_000.0):
        """Fabricate journals of the given sizes, oldest first."""
        store = CheckpointStore(tmp_path)
        for index, size in enumerate(sizes):
            key = "key%02d" % index
            store._journal_path(key).write_bytes(b"x" * size)
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
        # 3 keys x 100 bytes; the budget keeps 2.
        stats = store.prune(max_bytes=2 * 100)
        assert stats["removed_keys"] == 1
        assert stats["removed_bytes"] == 100
        assert store.keys() == ["key01", "key02"]  # key00 was oldest
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "key01.journal", "key02.journal",
        ]

    def test_age_budget_drops_idle_keys(self, tmp_path):
        store = self.seed(tmp_path, [50, 50], base_mtime=1_000.0)
        stats = store.prune(max_age_s=100.0, now=1_100.5)
        # key00 (mtime 1000) is 100.5s idle, key01 (mtime 1001) 99.5s.
        assert stats["removed_keys"] == 1
        assert store.keys() == ["key01"]

    def test_pruned_key_recovers_as_a_cold_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        levels = checkpoints_of("vector", SPEC)
        key = checkpoint_key(SPEC_UNIVERSE, CostFunction.uniform())
        store.append(key, levels)
        assert store.prune(max_bytes=0)["removed_keys"] == 1
        assert store.load(key) == []  # cold, not corrupt
        assert store.append(key, levels[:1]) == 1  # re-journals

    def test_size_of_counts_the_journal(self, tmp_path):
        store = self.seed(tmp_path, [64])
        assert store.size_of("key00") == 64
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

    @pytest.mark.parametrize("fires_at", [3, 4, 6, 9])
    def test_resume_after_a_cancel_inside_a_level_is_bit_identical(
        self, backend, tmp_path, fires_at
    ):
        # A cancel stops at the next safe point and journals an
        # in-level record there, which the next run resumes from.
        config = EngineConfig(backend=backend)
        reference = Session(config).synthesize(SPEC)
        store = CheckpointStore(tmp_path)
        polls = {"n": 0}

        def cancel():
            polls["n"] += 1
            return polls["n"] >= fires_at

        stopped = StoreBackedSession(config, checkpoint_store=store).synthesize(
            SynthesisRequest(spec=SPEC, cancel=cancel)
        )
        assert stopped.status == "cancelled"
        resumed = StoreBackedSession(config, checkpoint_store=store).synthesize(SPEC)
        assert resumed.extra["partial_resumes"] == 1
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
        import repro.core.cache as cache_module

        monkeypatch.setattr(
            cache_module,
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
        engine.run(40, RunControl(on_checkpoint=groups.append))
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
        engine.run(
            40,
            RunControl(
                on_checkpoint=lambda group: groups.append((engine.status, group))
            ),
        )
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
            range(1, engine.levels_built + 2)
        )
        # Every record but the last is its level's end; the last holds
        # the solved level up to the candidate before the solution.
        assert [r.level_progress for r in group[1:]] == [
            stats["generated"] for stats in engine.level_stats
        ][:-1] + [engine.level_stats[-1]["generated"] - 1]
        assert group[-1].generated_total == engine.generated - 1
        store = RoundKeepingStore(tmp_path)
        session = StoreBackedSession(
            EngineConfig(backend=backend), checkpoint_store=store
        )
        result = session.synthesize(SPEC)
        assert [len(records) for records in store.rounds] == [
            result.levels_built + 1
        ]
        assert session.checkpoint_saves == result.levels_built + 1

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
        key = checkpoint_key(SPEC_UNIVERSE, CostFunction.uniform())
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


# ----------------------------------------------------------------------
# The seen-set is filled from the cache only when a resumed run enumerates
# ----------------------------------------------------------------------
#: SPEC with "" moved to the positives: solved at candidate 80, inside
#: cost level 5, which a run of SPEC journals whole.
SOLVED_IN_REPLAY = Spec(
    positive=["", "00", "010", "0110"], negative=["11", "101"]
)


def run_engine(backend, spec, restored=(), budget=None):
    """A fresh engine run of ``spec`` that adopts ``restored``; returns
    the engine and its outcome."""
    engine = Session(EngineConfig(backend=backend)).make_engine(
        SynthesisRequest(spec=spec, max_generated=budget)
    )
    engine.run(40, RunControl(restored=restored))
    return engine, (
        engine.status, engine.generated, engine.levels_built,
        engine.level_stats, engine.solution, engine.solution_cost,
        len(engine.cache),
    )


def group_of(backend, spec, budget=None):
    """The one group a small run hands over, at its end: every level it
    built, and the level its budget or solution stopped in."""
    engine = Session(EngineConfig(backend=backend)).make_engine(
        SynthesisRequest(spec=spec, max_generated=budget)
    )
    groups = []
    engine.run(40, RunControl(on_checkpoint=groups.append))
    (group,) = groups
    return group


@pytest.fixture
def seen_inserts(monkeypatch):
    """Every seen-set insert, in call order, as ``(method, keys)``."""
    log = []

    def spy(owner, name):
        original = getattr(owner, name)

        def logged(self, keys):
            if isinstance(keys, np.ndarray):
                keys = keys.copy()
            log.append((name, keys))
            return original(self, keys)

        monkeypatch.setattr(owner, name, logged)

    spy(PackedKeySet, "insert_novel_batch")
    spy(PackedKeySet, "insert_batch")
    spy(FingerprintHashSet, "insert")
    return log


@pytest.mark.parametrize("backend", BACKENDS)
class TestOnDemandSeenSet:
    def test_a_replay_that_ends_at_the_budget_inserts_nothing(
        self, backend, seen_inserts
    ):
        records = group_of(backend, SPEC, BUDGET)
        _, cold = run_engine(backend, RELABELLED, budget=BUDGET)
        seen_inserts.clear()
        engine, resumed = run_engine(backend, RELABELLED, records, BUDGET)
        assert engine.status == "budget"
        assert seen_inserts == []
        assert resumed == cold

    def test_a_replay_that_ends_on_a_restored_solution_inserts_nothing(
        self, backend, seen_inserts
    ):
        records = group_of(backend, SPEC)
        _, cold = run_engine(backend, SOLVED_IN_REPLAY)
        seen_inserts.clear()
        engine, resumed = run_engine(backend, SOLVED_IN_REPLAY, records)
        assert engine.status == "success"
        # Solved inside the cost-5 record, before the replay reached
        # SPEC's solved level.
        assert engine.solution_cost == records[-2].cost == 5
        assert records[-1].cost == 6
        assert seen_inserts == []
        assert resumed == cold

    def test_enumeration_after_a_replay_fills_the_seen_set_once(
        self, backend, seen_inserts
    ):
        records = group_of(backend, SPEC, BUDGET)
        adopted = np.concatenate([record.rows for record in records])
        larger = BUDGET + 40
        _, cold = run_engine(backend, RELABELLED, budget=larger)
        seen_inserts.clear()
        engine, resumed = run_engine(backend, RELABELLED, records, larger)
        assert engine.partial_resumes == 1
        assert resumed == cold
        # A budget stop stores every novel candidate, so at the end the
        # seen-set holds exactly the cache's rows.
        if backend == "vector":
            names = [name for name, _ in seen_inserts]
            assert names[0] == "insert_novel_batch"
            assert names.count("insert_novel_batch") == 1
            assert np.array_equal(seen_inserts[0][1], adopted)
            assert np.array_equal(
                engine._seen.keys(), engine.cache.rows(0, len(engine.cache))
            )
        else:
            cs_list = engine.cache.cs_list
            filled = seen_inserts[: len(adopted)]
            assert filled == [("insert", cs) for cs in cs_list[: len(adopted)]]
            assert sorted(engine._seen) == sorted(cs_list)


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
        with WorkerPool(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as pool:
            result = pool.synthesize(SPEC, timeout=120)
            stats = pool.stats
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
        # round, before that round's records reach the journal, and the
        # retried job resumes from the levels the first two rounds
        # journalled instead of re-enumerating from level 1 —
        # bit-identical to a solo run.  A short cadence (inherited by
        # the forked workers) makes the small job journal in several
        # rounds.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", 7)
        self.arm(monkeypatch, tmp_path, "checkpoint.append:kill:3:once")
        reference = Session(EngineConfig(backend="vector")).synthesize(SPEC)
        with WorkerPool(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as pool:
            result = pool.synthesize(SPEC, timeout=120)
            stats = pool.stats
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
        # inside that round lands before its records reach the journal,
        # so the journal holds nothing for the retry to resume from: it
        # starts cold and still answers bit-identically.
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_S", 1e9)
        self.arm(monkeypatch, tmp_path, "checkpoint.append:kill:1:once")
        config = EngineConfig(backend=backend)
        reference = Session(config).synthesize(SPEC)
        with WorkerPool(
            workers=2,
            config=config,
            store_dir=str(tmp_path / "store"),
            retry_backoff_s=0.02,
        ) as pool:
            result = pool.synthesize(SPEC, timeout=120)
            stats = pool.stats
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
        with WorkerPool(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=str(store_dir),
            retry_backoff_s=0.02,
            retry_max_attempts=2,
        ) as pool:
            handle = pool.submit(SPEC)
            with pytest.raises(JobFailedError, match="attempts=2"):
                handle.result(timeout=120)
            stats = pool.stats
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


# ----------------------------------------------------------------------
# A journal is keyed by the universe the engine enumerated
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_superset_universe_journals_under_its_own_key(backend, tmp_path):
    # After a removal the incremental synthesizer searches the 19-word
    # universe of the original examples; a key taken from the smaller
    # spec's 15 words would let a fresh session replay those rows as
    # the 15-word enumeration and answer 1+(01*)*, which rejects 1011.
    from repro.core.incremental import IncrementalSynthesizer

    config = EngineConfig(backend=backend)
    store = CheckpointStore(tmp_path)
    incremental = IncrementalSynthesizer(
        Spec(["1", "1011"], ["10", "11", "01101", "10011"]),
        backend=backend,
        session=StoreBackedSession(config, checkpoint_store=store),
    )
    relaxed = incremental.remove_example("01101")
    assert relaxed.universe_size == 19
    spec = incremental.spec
    replayed = StoreBackedSession(config, checkpoint_store=store).synthesize(spec)
    cold = Session(config).synthesize(spec)
    assert cold.universe_size == 15
    assert (cold.regex_str, cold.cost) == ("1(011)?", 8)
    assert_identical(replayed, cold)
    assert spec.is_satisfied_by(replayed.regex)
