"""WarpCore-style open-addressing hash sets for uniqueness checking.

The paper's GPU implementation checks uniqueness of freshly-built CSs by
inserting them into a modified WarpCore hash set (Jünger et al. 2020):
open addressing over a power-of-two table of machine words.  This module
reproduces that structure twice:

* :class:`FingerprintHashSet` — the scalar engine's per-candidate set
  (splitmix64 fingerprint mixing, linear probing, amortised growth, an
  ``insert`` that reports whether the key was new — the single
  operation Algorithm 2, line 15, needs);
* :class:`PackedKeySet` — the vectorised engine's batched *two-tier*
  set: one packed fingerprint+ref word per slot probed with double
  hashing, full multi-lane key compares only on fingerprint hits, and
  keys stored once in an append-only dense log.

Both are property-tested against Python's built-in ``set``
(``tests/test_hashset*.py``), including engineered fingerprint
collisions for the two-tier fallback path.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np


_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """The splitmix64 finaliser — WarpCore's default hasher family."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def fingerprint(key: int) -> int:
    """64-bit fingerprint of an arbitrary-width int key.

    Wide keys (CSs longer than 64 bits) are folded lane-by-lane, mixing
    each 64-bit lane through splitmix64 — the same chunked treatment
    WarpCore applies to multi-word keys.
    """
    if key < 0:
        raise ValueError("keys must be non-negative")
    acc = splitmix64(key & _MASK64)
    key >>= 64
    while key:
        acc = splitmix64(acc ^ (key & _MASK64))
        key >>= 64
    return acc


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a uint64 array.

    uint64 arithmetic wraps modulo 2⁶⁴, so this is bit-identical to the
    scalar finaliser applied element-wise (property-tested).
    """
    v = values.astype(np.uint64, copy=True)
    v += _SM_GAMMA
    v = (v ^ (v >> np.uint64(30))) * _SM_MUL1
    v = (v ^ (v >> np.uint64(27))) * _SM_MUL2
    return v ^ (v >> np.uint64(31))


#: Odd multipliers for the per-lane fingerprint fold (splitmix64 of the
#: lane number, forced odd).
_LANE_MIX = tuple(
    np.uint64(splitmix64(lane) | 1) for lane in range(1, 9)
)

_SM_S30 = np.uint64(30)
_SM_S27 = np.uint64(27)
_SM_S31 = np.uint64(31)


def _splitmix64_inplace(v: np.ndarray) -> np.ndarray:
    """:func:`splitmix64_array` mutating ``v`` (uint64) in place.

    Bit-identical to the copying variant (uint64 arithmetic wraps the
    same way); one scratch allocation instead of five.
    """
    t = np.empty_like(v)
    v += _SM_GAMMA
    np.right_shift(v, _SM_S30, out=t)
    v ^= t
    v *= _SM_MUL1
    np.right_shift(v, _SM_S27, out=t)
    v ^= t
    v *= _SM_MUL2
    np.right_shift(v, _SM_S31, out=t)
    v ^= t
    return v


#: Probe-round tail threshold: once at most this many rows are still
#: unresolved, a sequential scalar loop finishes the batch — the fixed
#: cost of a full numpy round is far larger than probing a handful of
#: rows one slot at a time.
_SCALAR_TAIL = 24

#: Largest slot-table size whose probe arithmetic still fits int32
#: (slot + step stays below 2**31); beyond it the index arrays
#: transparently switch to int64.
_INT32_SLOTS = 1 << 30

#: Slot-word layout: high 32 bits fingerprint, low 32 bits ``ref + 1``.
_FP_SHIFT = np.uint64(32)
_REF_MASK = (1 << 32) - 1

#: Slot-table growth factor per resize.  Grown to 1.6 M keys in
#: 131,072-row batches, a quadrupling set re-places 0.41× its final
#: size in rehashes, a doubling one 1.31×; the price is a table up to
#: twice as large between resizes.
_GROWTH = 4


def _rows_equal(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise equality of two ``(n, lanes)`` uint64 matrices, one lane
    at a time: at a key's few lanes this beats the boolean matrix and
    axis reduction of ``(left == right).all(axis=1)``."""
    equal = left[:, 0] == right[:, 0]
    for lane in range(1, left.shape[1]):
        equal &= left[:, lane] == right[:, lane]
    return equal


class PackedKeySet:
    """Batched two-tier open-addressing set of multi-lane uint64 keys.

    The numpy-native counterpart of :class:`FingerprintHashSet` for the
    vectorised engine: keys are rows of a ``(n, lanes)`` uint64 matrix
    (packed CSs), and the one operation — :meth:`insert_batch` — checks
    and inserts a whole batch with array-level probing, no per-row
    Python loop.  This is the paper's WarpCore uniqueness check: every
    candidate probes the table "in parallel"; contended empty slots are
    claimed by the candidate with the lowest batch index, so the
    returned novelty mask marks exactly the *first* occurrence of each
    distinct key in batch order — the property the engine needs to keep
    its enumeration order bit-identical to the scalar engine's.

    Three design points make the probe loop cheap:

    * **Fingerprint-first probing.**  A probe round compares one
      machine word per candidate — the stored key's 32-bit fingerprint —
      and only the fingerprint-*equal* rows fall back to the full
      ``(lanes)``-wide key compare (tier 2).  Probe cost is independent
      of key width: WarpCore's probing-on-the-hash, generalised to
      multi-word keys.
    * **Dense key log.**  Keys live in an append-only ``(size, lanes)``
      matrix in insertion order; the hash table stores only
      fingerprint + ref.  Winning keys append *contiguously*, and
      rehashing moves slot words only — never keys.
    * **One word per slot.**  Fingerprint and ref pack into a single
      uint64 (``fp << 32 | ref + 1``; 0 = empty slot), so claiming a
      slot is one random write and probing one random read — half the
      cache misses of separate fingerprint/ref tables.
    """

    __slots__ = (
        "_lanes",
        "_table",
        "_claim",
        "_dense_keys",
        "_dense_fps",
        "_mask",
        "_size",
        "_max_load",
    )

    def __init__(
        self,
        lanes: int,
        initial_capacity: int = 1024,
        max_load: float = 0.6,
    ) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if not (0.1 <= max_load < 1.0):
            raise ValueError("max_load must be in [0.1, 1.0)")
        capacity = 2
        while capacity < initial_capacity:
            capacity <<= 1
        self._lanes = lanes
        self._allocate_slots(capacity)
        self._dense_keys = np.zeros((64, lanes), dtype=np.uint64)
        self._dense_fps = np.zeros(64, dtype=np.uint32)
        self._size = 0
        self._max_load = max_load

    def _allocate_slots(self, capacity: int) -> None:
        """Fresh (empty) slot table of ``capacity`` one-word entries.

        The zero slot word means empty, so the table allocates as
        untouched zero pages; the claim scratch may hold garbage — every
        entry is written before it is read within a probing round.
        """
        self._table = np.zeros(capacity, dtype=np.uint64)
        itype = np.int64 if capacity > _INT32_SLOTS else np.int32
        # Claim-arbitration scratch (see :meth:`_claim_won`).
        self._claim = np.empty(capacity, dtype=itype)
        self._mask = capacity - 1

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Current table size (a power of two)."""
        return self._mask + 1

    @property
    def lanes(self) -> int:
        """Number of uint64 lanes per key."""
        return self._lanes

    def keys(self) -> np.ndarray:
        """The stored keys, in first-insertion order (read-only view)."""
        return self._dense_keys[: self._size]

    def _fingerprints(self, rows: np.ndarray) -> np.ndarray:
        """32-bit fingerprint per row: mix the lanes, then one splitmix64.

        Lanes fold with per-lane odd multipliers (a multilinear hash)
        and the splitmix64 finaliser scrambles the sum — one finaliser
        pass per batch instead of one per lane.  Fingerprint equality is
        only ever a *filter* (tier 2 compares full keys), so the mixing
        quality trades against per-batch cost, not correctness.  The
        zero fingerprint is remapped to 1: slot word 0 means "empty".
        """
        acc = rows[:, 0].astype(np.uint64, copy=True)
        for lane in range(1, self._lanes):
            acc ^= rows[:, lane] * _LANE_MIX[(lane - 1) % len(_LANE_MIX)]
        acc = _splitmix64_inplace(acc)
        fps = acc.astype(np.uint32)
        fps[fps == 0] = 1
        return fps

    def _probe_start(self, fps: np.ndarray):
        """Home slot and double-hashing step per row.

        Both derive from the stored 32-bit fingerprint — the *only*
        per-key datum that survives a rehash — so insertion, lookup,
        rehash and the scalar tails all walk identical probe sequences.
        The step is forced odd (coprime with the power-of-two capacity),
        so every walk visits every slot.
        """
        wide = fps.astype(np.int64)
        itype = self._claim.dtype
        idx = (wide & self._mask).astype(itype)
        steps = (((wide >> 7) | 1) & self._mask).astype(itype)
        return idx, steps

    def _ensure_dense(self, extra: int) -> None:
        """Grow the dense key log so ``extra`` appends surely fit."""
        needed = self._size + extra
        if needed >= _REF_MASK:
            raise OverflowError(
                "PackedKeySet supports at most 2**32 - 2 stored keys"
            )
        capacity = self._dense_keys.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.zeros((capacity, self._lanes), dtype=np.uint64)
        grown[: self._size] = self._dense_keys[: self._size]
        self._dense_keys = grown
        grown_fps = np.zeros(capacity, dtype=np.uint32)
        grown_fps[: self._size] = self._dense_fps[: self._size]
        self._dense_fps = grown_fps

    def _claim_won(self, empty: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Arbitrate contended empty slots: lowest batch index wins.

        ``empty`` holds the batch indices probing an empty slot this
        round, in ascending order, and ``slots`` their probe slots;
        returns the boolean won-mask over them.  Scattering the claims
        in *descending* batch order makes the last (= lowest-index)
        write win, so arbitration costs one reversed scatter + one
        gather — no per-round sort, no ``ufunc.at``.
        """
        claim = self._claim
        claim[slots[::-1]] = empty[::-1]
        return claim.take(slots) == empty

    def _place(self, rows: np.ndarray, fps: np.ndarray, winners: np.ndarray,
               slots: np.ndarray) -> None:
        """Append the winning rows to the dense log and publish their
        packed slot words to the claimed ``slots``."""
        count = int(winners.size)
        lo = self._size
        np.take(rows, winners, axis=0, out=self._dense_keys[lo : lo + count])
        won_fps = fps.take(winners)
        self._dense_fps[lo : lo + count] = won_fps
        words = won_fps.astype(np.uint64)
        words <<= _FP_SHIFT
        words |= np.arange(lo + 1, lo + count + 1, dtype=np.uint64)
        self._table[slots] = words
        self._size = lo + count

    def _reserve(self, extra: int) -> None:
        """Grow (and vectorised-rehash) so ``extra`` keys surely fit."""
        needed = self._size + extra
        new_capacity = self.capacity
        while needed > self._max_load * new_capacity:
            new_capacity *= _GROWTH
        if new_capacity != self.capacity:
            self._rehash(new_capacity)

    def _rehash(self, new_capacity: int) -> None:
        """Dedicated no-novelty rehash into ``new_capacity`` slots.

        Stored keys are distinct by construction, so re-placement never
        compares keys or fingerprints and never derives a novelty mask:
        every pending ref either claims an empty slot or advances past
        an occupied one.  The old slot table is dropped *before* the new
        one is allocated, and the keys themselves never move (they live
        in the dense log), so peak rehash memory is the new slot table
        plus the dense log — not old table + new table + a copy of
        every key.
        """
        size = self._size
        fps = self._dense_fps[:size]
        self._allocate_slots(new_capacity)
        if size == 0:
            return
        table = self._table
        idx, steps = self._probe_start(fps)
        pending = np.arange(size, dtype=self._claim.dtype)
        while pending.size > _SCALAR_TAIL:
            slots = idx.take(pending)
            used = table.take(slots) != 0
            keep = used.copy()  # blocked refs advance and stay pending
            empty_pos = np.flatnonzero(~used)
            if empty_pos.size:
                empty = pending.take(empty_pos)
                empty_slots = slots.take(empty_pos)
                won = self._claim_won(empty, empty_slots)
                winners = empty.compress(won)
                words = fps.take(winners).astype(np.uint64)
                words <<= _FP_SHIFT
                words |= winners.astype(np.uint64) + np.uint64(1)
                table[empty_slots.compress(won)] = words
                keep[empty_pos.compress(~won)] = True  # losers re-probe
            blocked = pending.compress(used)
            idx[blocked] = (idx.take(blocked) + steps.take(blocked)) & self._mask
            pending = pending.compress(keep)
        mask = self._mask
        for p in pending:
            p = int(p)
            slot = int(idx[p])
            step = int(steps[p])
            while table[slot]:
                slot = (slot + step) & mask
            table[slot] = (int(fps[p]) << 32) | (p + 1)

    def insert_batch(self, rows: np.ndarray) -> np.ndarray:
        """Insert a ``(n, lanes)`` batch; return the novelty mask.

        ``mask[i]`` is True iff row ``i`` is the first occurrence of its
        key — not present before the call and not preceded by an equal
        row within the batch.  Equivalent to ``n`` sequential
        ``FingerprintHashSet.insert`` calls, evaluated with batched
        linear probing: per probing round every unresolved row either
        resolves against an occupied slot (duplicate), claims an empty
        slot (lowest batch index wins contended slots), or advances.

        Fingerprints are computed once for the whole batch; a probe
        round compares them against the slot words first and only the
        fingerprint-equal rows run the ``(lanes)``-wide key compare.
        Two equal rows always probe the same slot sequence in lockstep,
        so the first-occurrence property is preserved exactly: the
        earlier one wins the claim (or resolves first), the later one
        re-probes the now-decided slot and resolves as a duplicate.
        """
        if rows.ndim != 2 or rows.shape[1] != self._lanes:
            raise ValueError("rows must have shape (n, %d)" % self._lanes)
        n = rows.shape[0]
        is_new = np.zeros(n, dtype=bool)
        if n == 0:
            return is_new
        self._reserve(n)
        self._ensure_dense(n)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        fps = self._fingerprints(rows)
        wide_fps = fps.astype(np.uint64)  # pre-widened for tier-1 compares
        idx, steps = self._probe_start(fps)
        pending = np.arange(n, dtype=self._claim.dtype)
        table = self._table
        first_round = True
        if self._size == 0 and n > _SCALAR_TAIL:
            # Empty-table shortcut: every row probes an empty home slot,
            # so the first round is pure claim arbitration — no table
            # gather, no fingerprint compares — and the won-mask *is*
            # the novelty mask so far.
            won = self._claim_won(pending, idx)
            is_new = won.copy()
            winners = pending.compress(won)
            self._place(rows, fps, winners, idx.compress(won))
            pending = pending.compress(~won)
            first_round = False
        while pending.size > _SCALAR_TAIL:
            # The first round probes every row at its home slot, so the
            # ``pending`` indirection is the identity there.
            if first_round:
                slots, row_fps = idx, wide_fps
            else:
                slots = idx.take(pending)
                row_fps = wide_fps.take(pending)
            # Tier 1 reads one word per candidate: slot word 0 means
            # empty, its high half is the stored key's fingerprint.
            words = table.take(slots)
            empty_mask = words == 0
            fp_hit = (words >> _FP_SHIFT) == row_fps
            advance = ~(empty_mask | fp_hit)
            hit_pos = np.flatnonzero(fp_hit)
            if hit_pos.size:
                # Tier 2: full-key compare only on fingerprint hits;
                # engineered collisions advance like any mismatch.  The
                # ref is already in hand — the low half of the word.
                colliding = pending.take(hit_pos)
                hit_refs = (
                    words.take(hit_pos).astype(np.int64) & _REF_MASK
                ) - 1
                equal = _rows_equal(
                    self._dense_keys.take(hit_refs, axis=0),
                    rows.take(colliding, axis=0),
                )
                advance[hit_pos.compress(~equal)] = True
            keep = advance.copy()
            empty_pos = np.flatnonzero(empty_mask)
            if empty_pos.size:
                empty = pending.take(empty_pos)
                empty_slots = slots.take(empty_pos)
                won = self._claim_won(empty, empty_slots)
                winners = empty.compress(won)
                self._place(rows, fps, winners, empty_slots.compress(won))
                is_new[winners] = True
                keep[empty_pos.compress(~won)] = True  # losers re-probe
            advancing = pending.compress(advance)
            idx[advancing] = (
                idx.take(advancing) + steps.take(advancing)
            ) & self._mask
            pending = pending.compress(keep)
            first_round = False
        # Scalar tail: resolve the last few rows sequentially (ascending
        # batch order preserves first-occurrence novelty exactly).
        if pending.size:
            self._insert_tail(rows, fps, idx, steps, pending, is_new)
        return is_new

    def _insert_tail(
        self,
        rows: np.ndarray,
        fps: np.ndarray,
        idx: np.ndarray,
        steps: np.ndarray,
        pending: np.ndarray,
        is_new: np.ndarray,
    ) -> None:
        """Sequential per-row probing for the tail of a batch — the
        fixed cost of a numpy round dwarfs probing a handful of rows."""
        mask = self._mask
        table = self._table
        for p in pending:
            p = int(p)
            fp = int(fps[p])
            row = rows[p]
            row_bytes = row.tobytes()
            slot = int(idx[p])
            step = int(steps[p])
            while True:
                word = int(table[slot])
                if word == 0:
                    lo = self._size
                    self._dense_keys[lo] = row
                    self._dense_fps[lo] = fp
                    table[slot] = (fp << 32) | (lo + 1)
                    self._size = lo + 1
                    is_new[p] = True
                    break
                if (
                    (word >> 32) == fp
                    and self._dense_keys[(word & 0xFFFFFFFF) - 1].tobytes()
                    == row_bytes
                ):
                    break
                slot = (slot + step) & mask

    def contains_batch(self, rows: np.ndarray) -> np.ndarray:
        """Batched membership probe: ``mask[i]`` iff row ``i`` is stored.

        Pure lookup — the set is never mutated, so rows equal to each
        other but absent from the set all report False.  The shard
        workers use this as the phase-one filter against their mirror of
        the confirmed key set; probing follows the exact same
        fingerprint-first two-tier walk as :meth:`insert_batch`.
        """
        if rows.ndim != 2 or rows.shape[1] != self._lanes:
            raise ValueError("rows must have shape (n, %d)" % self._lanes)
        n = rows.shape[0]
        present = np.zeros(n, dtype=bool)
        if n == 0 or self._size == 0:
            return present
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        fps = self._fingerprints(rows)
        wide_fps = fps.astype(np.uint64)
        idx, steps = self._probe_start(fps)
        pending = np.arange(n, dtype=self._claim.dtype)
        table = self._table
        while pending.size > _SCALAR_TAIL:
            slots = idx.take(pending)
            words = table.take(slots)
            empty_mask = words == 0  # absent: resolves as False
            fp_hit = (words >> _FP_SHIFT) == wide_fps.take(pending)
            advance = ~(empty_mask | fp_hit)
            hit_pos = np.flatnonzero(fp_hit)
            if hit_pos.size:
                colliding = pending.take(hit_pos)
                hit_refs = (
                    words.take(hit_pos).astype(np.int64) & _REF_MASK
                ) - 1
                equal = _rows_equal(
                    self._dense_keys.take(hit_refs, axis=0),
                    rows.take(colliding, axis=0),
                )
                present[colliding.compress(equal)] = True
                advance[hit_pos.compress(~equal)] = True
            advancing = pending.compress(advance)
            idx[advancing] = (
                idx.take(advancing) + steps.take(advancing)
            ) & self._mask
            pending = pending.compress(advance)
        mask = self._mask
        for p in pending:
            p = int(p)
            fp = int(fps[p])
            row_bytes = rows[p].tobytes()
            slot = int(idx[p])
            step = int(steps[p])
            while True:
                word = int(table[slot])
                if word == 0:
                    break
                if (
                    (word >> 32) == fp
                    and self._dense_keys[(word & 0xFFFFFFFF) - 1].tobytes()
                    == row_bytes
                ):
                    present[p] = True
                    break
                slot = (slot + step) & mask
        return present

    def insert_novel_batch(self, rows: np.ndarray) -> None:
        """Bulk-insert rows known to be pairwise distinct and absent.

        The fast path for adopting *pre-filtered* novel keys (the shard
        workers' confirmed-set sync: every broadcast row already
        survived the coordinator's authoritative dedupe).  Like
        :meth:`_rehash`, placement never compares keys or fingerprints —
        every pending ref either claims an empty slot or advances past
        an occupied one — and the rows append contiguously to the dense
        log, so the set ends in the same state ``insert_batch`` would
        produce, at a fraction of the cost.  The caller's guarantee is
        *required*: inserting a duplicate corrupts the set.
        """
        if rows.ndim != 2 or rows.shape[1] != self._lanes:
            raise ValueError("rows must have shape (n, %d)" % self._lanes)
        n = rows.shape[0]
        if n == 0:
            return
        self._reserve(n)
        self._ensure_dense(n)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        fps = self._fingerprints(rows)
        lo = self._size
        self._dense_keys[lo : lo + n] = rows
        self._dense_fps[lo : lo + n] = fps
        self._size = lo + n
        table = self._table
        ref_base = np.uint64(lo + 1)
        idx, steps = self._probe_start(fps)
        pending = np.arange(n, dtype=self._claim.dtype)
        while pending.size > _SCALAR_TAIL:
            slots = idx.take(pending)
            used = table.take(slots) != 0
            keep = used.copy()  # blocked refs advance and stay pending
            empty_pos = np.flatnonzero(~used)
            if empty_pos.size:
                empty = pending.take(empty_pos)
                empty_slots = slots.take(empty_pos)
                won = self._claim_won(empty, empty_slots)
                winners = empty.compress(won)
                words = fps.take(winners).astype(np.uint64)
                words <<= _FP_SHIFT
                words |= winners.astype(np.uint64) + ref_base
                table[empty_slots.compress(won)] = words
                keep[empty_pos.compress(~won)] = True  # losers re-probe
            blocked = pending.compress(used)
            idx[blocked] = (
                idx.take(blocked) + steps.take(blocked)
            ) & self._mask
            pending = pending.compress(keep)
        mask = self._mask
        for p in pending:
            p = int(p)
            slot = int(idx[p])
            step = int(steps[p])
            while table[slot]:
                slot = (slot + step) & mask
            table[slot] = (int(fps[p]) << 32) | (lo + p + 1)


class FingerprintHashSet:
    """Open-addressing hash set of non-negative int keys.

    ``capacity`` is always a power of two; the load factor is kept below
    ``max_load`` by doubling.  ``insert`` returns True iff the key was not
    present — mirroring WarpCore's insert semantics used for CS
    uniqueness checking.
    """

    __slots__ = ("_slots", "_mask", "_size", "_max_load")

    _EMPTY: Optional[int] = None

    def __init__(self, initial_capacity: int = 1024, max_load: float = 0.6) -> None:
        if initial_capacity < 2:
            initial_capacity = 2
        capacity = 1
        while capacity < initial_capacity:
            capacity <<= 1
        if not (0.1 <= max_load < 1.0):
            raise ValueError("max_load must be in [0.1, 1.0)")
        self._slots: List[Optional[int]] = [self._EMPTY] * capacity
        self._mask = capacity - 1
        self._size = 0
        self._max_load = max_load

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Current table size (a power of two)."""
        return self._mask + 1

    def __contains__(self, key: int) -> bool:
        slots = self._slots
        index = fingerprint(key) & self._mask
        while True:
            slot = slots[index]
            if slot is self._EMPTY:
                return False
            if slot == key:
                return True
            index = (index + 1) & self._mask

    def insert(self, key: int) -> bool:
        """Insert ``key``; return True iff it was new (Algorithm 2, l.15)."""
        if (self._size + 1) > self._max_load * self.capacity:
            self._grow()
        slots = self._slots
        index = fingerprint(key) & self._mask
        while True:
            slot = slots[index]
            if slot is self._EMPTY:
                slots[index] = key
                self._size += 1
                return True
            if slot == key:
                return False
            index = (index + 1) & self._mask

    def _grow(self) -> None:
        old = self._slots
        new_capacity = self.capacity * 2
        self._slots = [self._EMPTY] * new_capacity
        self._mask = new_capacity - 1
        self._size = 0
        for key in old:
            if key is not self._EMPTY:
                self.insert(key)

    def __iter__(self) -> Iterator[int]:
        return (key for key in self._slots if key is not self._EMPTY)
