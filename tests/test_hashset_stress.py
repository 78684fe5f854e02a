"""Stress and property tests for ``PackedKeySet`` under service-like
lifetimes.

The one-shot synthesis path fills a set and throws it away; the service
keeps worker sessions (and their engines' dedupe sets) alive for hours,
so the set must stay correct at high load factors, across many resize
generations, and under duplicate-heavy, multi-lane batches.  Every test
checks the one contract the engines rely on: ``insert_batch`` returns
the *first-occurrence* novelty mask — exactly what sequential inserts
into a Python ``set`` would report — regardless of table pressure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashset import _LANE_MIX, FingerprintHashSet, PackedKeySet


def reference_mask(rows):
    """First-occurrence novelty of each row, via a Python set."""
    seen = set()
    mask = []
    for row in rows:
        key = tuple(int(v) for v in row)
        mask.append(key not in seen)
        seen.add(key)
    return np.array(mask, dtype=bool)


def insert_all(key_set, rows, batch_size):
    """Feed ``rows`` through ``insert_batch`` in ``batch_size`` chunks."""
    masks = []
    for start in range(0, rows.shape[0], batch_size):
        masks.append(key_set.insert_batch(rows[start:start + batch_size]))
    return np.concatenate(masks) if masks else np.zeros(0, dtype=bool)


class TestHighLoadFactor:
    @pytest.mark.parametrize("max_load", [0.5, 0.75, 0.9, 0.99])
    def test_novelty_mask_correct_near_the_load_limit(self, max_load):
        rng = np.random.default_rng(int(max_load * 100))
        key_set = PackedKeySet(lanes=1, initial_capacity=2,
                               max_load=max_load)
        # Heavy duplication: keys drawn from a small universe, so the
        # table sits at its load limit while batches keep probing.
        rows = rng.integers(0, 500, size=(4000, 1), dtype=np.uint64)
        mask = insert_all(key_set, rows, batch_size=256)
        assert (mask == reference_mask(rows)).all()
        assert len(key_set) == len({int(v) for v in rows[:, 0]})
        assert len(key_set) <= max_load * key_set.capacity

    def test_sustained_growth_over_many_resize_generations(self):
        rng = np.random.default_rng(11)
        key_set = PackedKeySet(lanes=2, initial_capacity=2, max_load=0.6)
        seen = set()
        generations = 0
        # Under 4x growth, 60 rounds cross 5 resize generations.
        for round_index in range(60):
            capacity_before = key_set.capacity
            rows = rng.integers(0, 1 << 62, size=(257, 2), dtype=np.uint64)
            # Re-insert some already-present keys alongside fresh ones.
            if seen:
                old = np.array(list(seen)[: len(seen) // 2],
                               dtype=np.uint64).reshape(-1, 2)
                rows = np.concatenate([rows, old])
            mask = key_set.insert_batch(rows)
            expected = []
            for row in rows:
                key = (int(row[0]), int(row[1]))
                expected.append(key not in seen)
                seen.add(key)
            assert (mask == np.array(expected)).all()
            if key_set.capacity != capacity_before:
                generations += 1
        assert generations >= 5, "the test must actually cross resizes"
        assert len(key_set) == len(seen)

    def test_growth_re_places_under_0_6x_of_a_sweep_jobs_keys(self,
                                                              monkeypatch):
        """A 6 M-candidate job stores 1.6 M distinct 2-lane keys through
        131,072-row batches: the refs its rehashes re-place must stay
        below 0.6x the final size (doubling re-places 1.31x).  The ratio
        depends on where the stream ends against a power of two, so the
        stream keeps this job's size."""
        re_placed = []
        rehash = PackedKeySet._rehash

        def counting_rehash(self, new_capacity):
            re_placed.append(len(self))
            rehash(self, new_capacity)

        monkeypatch.setattr(PackedKeySet, "_rehash", counting_rehash)
        total = 1_600_000
        batch = 131_072
        key_set = PackedKeySet(lanes=2, initial_capacity=1 << 12)
        for start in range(0, total, batch):
            ids = np.arange(start, min(start + batch, total), dtype=np.uint64)
            rows = np.stack([ids, ids ^ np.uint64(0x5DEECE66D)], axis=1)
            assert key_set.insert_batch(rows).all()
        assert len(key_set) == total
        assert re_placed, "the stream must cross resizes"
        assert sum(re_placed) <= 0.6 * total

    def test_resize_preserves_membership(self):
        key_set = PackedKeySet(lanes=1, initial_capacity=2, max_load=0.6)
        first = np.arange(100, dtype=np.uint64).reshape(-1, 1)
        assert key_set.insert_batch(first).all()
        # A large batch forces an immediate multi-doubling reserve; all
        # old keys must survive the rehash (re-inserting reports them
        # as duplicates).
        big = np.arange(5000, dtype=np.uint64).reshape(-1, 1)
        mask = key_set.insert_batch(big)
        assert not mask[:100].any()
        assert mask[100:].all()
        assert len(key_set) == 5000


def colliding_rows(count, constant=0xDEADBEEF):
    """``count`` *distinct* 2-lane keys engineered to share one
    fingerprint (and hence one home slot and probe step).

    The two-tier set folds lanes as ``acc = l0 ^ l1 * M1`` before the
    splitmix64 finaliser, so every row ``(C ^ y * M1, y)`` hashes to the
    fingerprint of ``C`` — the worst case for fingerprint-first probing:
    tier 1 reports a hit for every pair, and only the full-key fallback
    can tell the keys apart.
    """
    y = np.arange(1, count + 1, dtype=np.uint64)
    l0 = np.uint64(constant) ^ (y * _LANE_MIX[0])
    return np.stack([l0, y], axis=1)


class TestEngineeredFingerprintCollisions:
    def test_all_rows_share_a_fingerprint(self):
        key_set = PackedKeySet(lanes=2)
        rows = colliding_rows(50)
        fps = key_set._fingerprints(rows)
        assert len(set(fps.tolist())) == 1
        assert len(set(map(tuple, rows.tolist()))) == 50

    def test_full_key_fallback_keeps_the_novelty_mask_exact(self):
        key_set = PackedKeySet(lanes=2, initial_capacity=4)
        distinct = colliding_rows(120)
        # Interleave duplicates between fresh colliding keys, in one
        # batch and across batches.
        rows = np.concatenate([
            distinct[:40],
            distinct[10:50],   # 30 duplicates + 10 fresh
            distinct[:120],    # 50 duplicates + 70 fresh
        ])
        mask = insert_all(key_set, rows, batch_size=64)
        assert (mask == reference_mask(rows)).all()
        assert len(key_set) == 120

    def test_collisions_survive_rehash(self):
        """Growing the table re-homes every colliding key through the
        no-novelty rehash; membership answers must be unchanged."""
        key_set = PackedKeySet(lanes=2, initial_capacity=2, max_load=0.5)
        distinct = colliding_rows(300)
        assert key_set.insert_batch(distinct[:20]).all()
        capacity_before = key_set.capacity
        assert key_set.insert_batch(distinct).sum() == 280
        assert key_set.capacity > capacity_before
        assert not key_set.insert_batch(distinct).any()
        assert len(key_set) == 300

    def test_collisions_mixed_with_random_keys(self):
        rng = np.random.default_rng(7)
        key_set = PackedKeySet(lanes=2, initial_capacity=4)
        rows = np.concatenate([
            colliding_rows(100),
            rng.integers(0, 1 << 60, size=(400, 2), dtype=np.uint64),
            colliding_rows(100),  # all duplicates
        ])
        mask = insert_all(key_set, rows, batch_size=128)
        assert (mask == reference_mask(rows)).all()


class TestAdversarialBatches:
    def test_single_batch_entirely_duplicates(self):
        key_set = PackedKeySet(lanes=1, initial_capacity=4)
        rows = np.zeros((64, 1), dtype=np.uint64)
        mask = key_set.insert_batch(rows)
        assert mask[0] and not mask[1:].any()
        assert len(key_set) == 1

    def test_contended_slots_resolve_in_batch_order(self):
        # Keys engineered to collide modulo the tiny table: every probe
        # round contends for the same slots, exercising the
        # lowest-batch-index-wins arbitration.
        key_set = PackedKeySet(lanes=1, initial_capacity=4, max_load=0.9)
        rows = np.array([[v] for v in (0, 0, 1, 1, 2, 2, 0, 3)],
                        dtype=np.uint64)
        mask = key_set.insert_batch(rows)
        assert (mask == reference_mask(rows)).all()

    def test_empty_batch_is_a_no_op(self):
        key_set = PackedKeySet(lanes=3)
        mask = key_set.insert_batch(np.zeros((0, 3), dtype=np.uint64))
        assert mask.shape == (0,)
        assert len(key_set) == 0

    def test_wrong_shape_rejected(self):
        key_set = PackedKeySet(lanes=2)
        with pytest.raises(ValueError):
            key_set.insert_batch(np.zeros((4, 3), dtype=np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=30), min_size=0, max_size=300
    ),
    lanes=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=64),
    max_load=st.floats(min_value=0.3, max_value=0.95),
)
def test_property_matches_python_set(values, lanes, batch_size, max_load):
    """insert_batch ≡ sequential Python-set inserts, for any chunking,
    lane width, and load limit (duplicate-heavy by construction)."""
    rows = np.zeros((len(values), lanes), dtype=np.uint64)
    for i, value in enumerate(values):
        # Spread the small value across lanes so every lane matters.
        for lane in range(lanes):
            rows[i, lane] = (value * (lane + 7) + lane) & ((1 << 64) - 1)
    key_set = PackedKeySet(lanes=lanes, initial_capacity=2,
                           max_load=max_load)
    mask = insert_all(key_set, rows, batch_size)
    assert (mask == reference_mask(rows)).all()
    assert len(key_set) == len(set(values))


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=(1 << 200)),
        min_size=0, max_size=200,
    )
)
def test_property_fingerprint_set_matches_python_set(keys):
    """The scalar set stays correct for arbitrary-width (wide) keys —
    the long-lived scalar-engine counterpart."""
    hash_set = FingerprintHashSet(initial_capacity=2, max_load=0.6)
    seen = set()
    for key in keys:
        assert hash_set.insert(key) == (key not in seen)
        seen.add(key)
    assert len(hash_set) == len(seen)
    for key in seen:
        assert key in hash_set


class TestContainsBatch:
    """The shard workers' read-only membership probe."""

    def test_never_mutates(self):
        rng = np.random.RandomState(11)
        stored = rng.randint(0, 1 << 16, size=(400, 2)).astype(np.uint64)
        probes = rng.randint(0, 1 << 16, size=(300, 2)).astype(np.uint64)
        key_set = PackedKeySet(2, initial_capacity=4)
        key_set.insert_batch(stored)
        size_before = len(key_set)
        present = key_set.contains_batch(probes)
        assert len(key_set) == size_before
        model = {tuple(int(v) for v in row) for row in stored}
        for row, flag in zip(probes, present):
            assert bool(flag) == (tuple(int(v) for v in row) in model)

    def test_within_batch_duplicates_stay_absent(self):
        key_set = PackedKeySet(1)
        rows = np.array([[7], [7], [7]], dtype=np.uint64)
        assert not key_set.contains_batch(rows).any()

    def test_empty_set_and_empty_batch(self):
        key_set = PackedKeySet(2)
        rows = np.zeros((0, 2), dtype=np.uint64)
        assert key_set.contains_batch(rows).shape == (0,)
        probe = np.arange(8, dtype=np.uint64).reshape(4, 2)
        assert not key_set.contains_batch(probe).any()

    def test_engineered_fingerprint_collisions(self):
        # Two lanes whose mixed fingerprints collide must still compare
        # as distinct full keys in tier 2.
        key_set = PackedKeySet(2, initial_capacity=4)
        mix = int(_LANE_MIX[0])
        base = np.array([[5, 9]], dtype=np.uint64)
        twin_first = (5 ^ (9 * mix) ^ (11 * mix)) & ((1 << 64) - 1)
        twin = np.array([[twin_first, 11]], dtype=np.uint64)
        key_set.insert_batch(base)
        assert key_set.contains_batch(base).all()
        assert not key_set.contains_batch(twin).any()

    def test_wrong_shape_rejected(self):
        key_set = PackedKeySet(3)
        with pytest.raises(ValueError):
            key_set.contains_batch(np.zeros((4, 2), dtype=np.uint64))


class TestInsertNovelBatch:
    """Bulk adoption of pre-filtered novel keys (the shard workers'
    confirmed-set sync path)."""

    def test_equivalent_to_insert_batch(self):
        rng = np.random.RandomState(5)
        rows = np.unique(
            rng.randint(0, 1 << 20, size=(600, 2)).astype(np.uint64), axis=0
        )
        rng.shuffle(rows)
        reference = PackedKeySet(2, initial_capacity=4)
        reference.insert_batch(rows)
        bulk = PackedKeySet(2, initial_capacity=4)
        for start in range(0, rows.shape[0], 97):
            bulk.insert_novel_batch(rows[start:start + 97])
        assert len(bulk) == len(reference) == rows.shape[0]
        # The dense logs may order contended keys differently (bulk
        # adoption appends in batch order; insert_batch appends in
        # claim-resolution order) — membership must agree exactly.
        assert np.array_equal(
            np.sort(bulk.keys(), axis=0), np.sort(reference.keys(), axis=0)
        )
        probes = np.concatenate(
            [rows, rng.randint(1 << 21, 1 << 22, size=(50, 2)).astype(np.uint64)]
        )
        assert np.array_equal(
            bulk.contains_batch(probes), reference.contains_batch(probes)
        )
        # The adopted keys also dedupe exactly through insert_batch.
        assert not bulk.insert_batch(rows[:100]).any()

    def test_triggers_growth(self):
        rows = np.arange(4096, dtype=np.uint64).reshape(-1, 1)
        key_set = PackedKeySet(1, initial_capacity=4)
        key_set.insert_novel_batch(rows)
        assert len(key_set) == 4096
        assert key_set.contains_batch(rows).all()
        assert key_set.capacity >= 4096 / 0.6

    def test_empty_and_wrong_shape(self):
        key_set = PackedKeySet(2)
        key_set.insert_novel_batch(np.zeros((0, 2), dtype=np.uint64))
        assert len(key_set) == 0
        with pytest.raises(ValueError):
            key_set.insert_novel_batch(np.zeros((1, 3), dtype=np.uint64))
