"""The vectorised ("GPU-sim") engine: batched data-parallel kernels.

This engine reproduces the *structure* of the paper's CUDA
implementation on top of numpy:

* the language cache is one contiguous, power-of-two padded
  ``(n_cs, lanes)`` uint64 bit-matrix (:class:`~repro.core.cache.PackedCache`),
* a cost level is *plane-resident*: each completed level is bit-sliced
  into word planes once (lazily, cached on the
  :class:`~repro.core.cache.PackedCache`), and every concat pairing and
  star fixpoint iteration gathers from those cached planes instead of
  re-transposing operand rows per batch,
* the concatenation kernel folds over every guide-table split with no
  data-dependent early exit (the paper folds "as fast exits are
  data-dependent branching and problematic on GPUs"): every split is
  one AND of two plane rows — 8 candidates per byte — and each word's
  splits collapse with one segmented OR-reduction,
* the Kleene-star fixpoint iterates entirely in plane form, masking out
  converged byte-columns, and un-bit-slices only the final result,
* all pairings of a cost level that share a constructor are *fused*
  into shared solution-check/dedupe/store batches, with pair indices
  generated lazily per block (no O(n²) index materialisation up front),
* uniqueness is a batched probe of a numpy-native fingerprint-first
  two-tier set (:class:`~repro.core.hashset.PackedKeySet` — the
  WarpCore check), and solution checks are evaluated on whole batches
  over only the lanes the specification masks touch.

Enumeration order matches the scalar engine exactly, so both engines
return identical expressions and identical ``generated`` counters; only
the wall-clock differs — which is precisely the comparison Table 1 of
the paper makes.  The kernel design is documented in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import CostFunction
from ..spec import Spec
from .bitops import (
    bitslice_rows,
    int_to_lanes,
    ints_to_matrix,
    plane_segment,
    unbitslice_rows,
)
from .cache import PackedCache
from .engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_QUESTION,
    OP_STAR,
    OP_UNION,
    STATUS_BUDGET,
    SearchEngine,
    SweepStopped,
    _pair_candidates,
)
from .hashset import PackedKeySet
from .shard import LaneMatcher

#: Byte budget for the concat kernel's bit-sliced gather intermediates
#: (the batch × padded-splits planes).  Word-aligned blocks of the split
#: axis are sized so the gathered planes stay within this budget.
DEFAULT_SPLIT_BLOCK_BYTES = 1 << 25

_FULL_BYTE = np.uint8(255)


class _Kernels:
    """Precompiled index/shift tables and the batched bit-kernels.

    Everything operates on the *bit-sliced* plane layout: one packed
    uint8 row per universe word, one bit per candidate, so each
    guide-table split costs a single AND of two plane rows — 8
    candidates per byte — and each word's splits collapse with one
    vectorised OR-reduction over the uniform-width padded segment.  See
    ``docs/ARCHITECTURE.md`` for why this layout beats row-layout flat
    gathers in numpy.
    """

    def __init__(
        self,
        universe: Universe,
        guide: GuideTable,
        split_block_bytes: int = DEFAULT_SPLIT_BLOCK_BYTES,
    ) -> None:
        flat = guide.flat
        self.n_words = universe.n_words
        self.lanes = universe.lanes
        self.n_splits = flat.n_splits
        self.offsets = flat.offsets
        self.left_padded = flat.left_padded
        self.right_padded = flat.right_padded
        self.pad_width = flat.max_splits_per_word
        self.split_block_bytes = split_block_bytes
        self.eps_index = universe.eps_index
        self.eps_lane = universe.eps_index >> 6
        self.eps_mask = np.uint64(1 << (universe.eps_index & 63))
        self.max_word_length = universe.max_word_length
        # Plane matrices carry 8·ceil(n_words/8) rows (whole bytes).
        self.n_planes = 8 * ((self.n_words + 7) // 8)

    # ------------------------------------------------------------------
    # Plane-level primitives
    # ------------------------------------------------------------------
    def fold_planes(
        self, left_planes: np.ndarray, right_planes: np.ndarray
    ) -> np.ndarray:
        """The concat fold on candidate-aligned planes.

        ``left_planes``/``right_planes`` hold one plane row per universe
        word over the *same* candidate columns; the result's word ``w``
        plane is the OR over ``w``'s splits ``(u, v)`` of
        ``left_planes[u] & right_planes[v]`` — Algorithm 2 with one AND
        per split and one segmented reduction per word.  The split axis
        is blocked (word-aligned) so the gathered intermediates stay
        under ``split_block_bytes``.
        """
        cols = left_planes.shape[1]
        out = np.zeros((self.n_planes, cols), dtype=np.uint8)
        if self.n_splits == 0 or cols == 0:
            return out
        pad = self.pad_width
        block_words = max(1, self.split_block_bytes // (3 * pad * cols))
        for w0 in range(0, self.n_words, block_words):
            w1 = min(w0 + block_words, self.n_words)
            gathered = (
                left_planes.take(
                    self.left_padded[w0 * pad : w1 * pad], axis=0
                )
                & right_planes.take(
                    self.right_padded[w0 * pad : w1 * pad], axis=0
                )
            )
            np.bitwise_or.reduce(
                gathered.reshape(w1 - w0, pad, cols),
                axis=1,
                out=out[w0:w1],
            )
        return out

    def star_planes(self, batch_planes: np.ndarray, m: int) -> np.ndarray:
        """Plane-resident Kleene star: fixpoint of ``res ← res | res·cs``.

        The whole fixpoint runs in plane form — no per-iteration
        transposes.  Byte-columns (groups of 8 candidates) that have
        converged are masked out, so each iteration folds only the
        still-growing remainder; the result is identical to iterating
        the whole batch until global convergence.  Un-bit-slices only
        the final planes.
        """
        cols = batch_planes.shape[1]
        result = np.zeros((self.n_planes, cols), dtype=np.uint8)
        result[self.eps_index] = _FULL_BYTE
        if m == 0 or cols == 0:
            return unbitslice_rows(result, m, self.lanes)
        active = np.arange(cols, dtype=np.int64)
        current = result
        batch_active = batch_planes
        for _ in range(self.max_word_length + 1):
            grown = self.fold_planes(current, batch_active)
            grown |= current
            changed = (grown != current).any(axis=0)
            if not changed.any():
                break
            active = active.compress(changed)
            result[:, active] = grown.compress(changed, axis=1)
            current = result.take(active, axis=1)
            batch_active = batch_planes.take(active, axis=1)
        return unbitslice_rows(result, m, self.lanes)

    def concat_pair_planes(
        self,
        left_planes: np.ndarray,
        right_planes: np.ndarray,
        i0: int,
        i1: int,
    ) -> np.ndarray:
        """Concat over a pair block: left rows ``[i0, i1)`` × all right.

        Both operands arrive as cached *level* planes; the block's batch
        planes are assembled from them with byte-level tile/repeat — the
        right level's planes tile once per left row, and each left row
        contributes a repeated 0x00/0xFF byte mask of its bit — so the
        candidate batch is never bit-sliced and no operand rows are ever
        gathered.  The fold then runs on the assembled planes with full
        batch-length contiguous rows.

        Returns ``(n_planes, (i1 - i0) * b8)`` planes of the *padded*
        pair index ``(i - i0) * b8 * 8 + j``; callers drop the phantom
        ``j >= n_b`` candidates after un-bit-slicing.
        """
        b8 = right_planes.shape[1]
        bi = i1 - i0
        if self.n_splits == 0 or bi == 0 or b8 == 0:
            return np.zeros((self.n_planes, bi * b8), dtype=np.uint8)
        ii = np.arange(i0, i1, dtype=np.int64)
        left_bits = (
            left_planes[:, ii >> 3] >> (ii & 7).astype(np.uint8)
        ) & np.uint8(1)
        left_bits *= _FULL_BYTE
        left_batch = np.repeat(left_bits, b8, axis=1)
        right_batch = (
            np.tile(right_planes, (1, bi))
            if bi > 1
            else np.ascontiguousarray(right_planes)
        )
        return self.fold_planes(left_batch, right_batch)

    # ------------------------------------------------------------------
    # Packed-row entry points (benchmarks, tests, ad-hoc callers)
    # ------------------------------------------------------------------
    def concat(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Batched Algorithm 2 on packed rows: concatenate row ``k`` of
        ``left`` with row ``k`` of ``right`` for every ``k``.

        Bit-slices both operands, folds, and un-bit-slices — the
        row-batch adapter around :meth:`fold_planes`.  The engine's
        level pipeline skips the slicing entirely (cached level planes);
        this entry point serves batches that exist only in row form.
        """
        m = left.shape[0]
        if m == 0 or self.n_splits == 0:
            return np.zeros((m, self.lanes), dtype=np.uint64)
        out = self.fold_planes(
            bitslice_rows(left, self.n_words),
            bitslice_rows(right, self.n_words),
        )
        return unbitslice_rows(out, m, self.lanes)

    def star(self, batch: np.ndarray) -> np.ndarray:
        """Batched Kleene star on packed rows (adapter around
        :meth:`star_planes`)."""
        m = batch.shape[0]
        if m == 0:
            result = np.zeros((m, self.lanes), dtype=np.uint64)
            return result
        return self.star_planes(bitslice_rows(batch, self.n_words), m)

    def question(self, batch: np.ndarray) -> np.ndarray:
        """Batched option: set the ε bit of every row."""
        out = batch.copy()
        out[:, self.eps_lane] |= self.eps_mask
        return out


class VectorEngine(SearchEngine):
    """Data-parallel bottom-up synthesis over a packed CS matrix."""

    def __init__(
        self,
        spec: Spec,
        cost_fn: CostFunction,
        universe: Universe,
        guide: GuideTable,
        max_cache_size: Optional[int] = None,
        allowed_error: float = 0.0,
        use_guide_table: bool = True,
        check_uniqueness: bool = True,
        max_generated: Optional[int] = None,
        shard_workers: int = 1,
        max_batch: int = 1 << 17,
        split_block_bytes: int = DEFAULT_SPLIT_BLOCK_BYTES,
    ) -> None:
        super().__init__(
            spec,
            cost_fn,
            universe,
            guide,
            max_cache_size=max_cache_size,
            allowed_error=allowed_error,
            use_guide_table=use_guide_table,
            check_uniqueness=check_uniqueness,
            max_generated=max_generated,
            shard_workers=shard_workers,
        )
        self._cache = PackedCache(universe.lanes, max_size=max_cache_size)
        self._seen = PackedKeySet(universe.lanes, initial_capacity=1 << 12)
        self._kernels = _Kernels(
            universe, guide, split_block_bytes=split_block_bytes
        )
        self._shard_split_block_bytes = split_block_bytes
        # Star segments slice cached level planes byte-aligned, so the
        # chunk size must be a multiple of 8.
        self._max_batch = max(8, max_batch & ~7)
        self._shard_max_batch = self._max_batch
        self._pos_lanes = int_to_lanes(self.pos_mask, universe.lanes)
        self._neg_lanes = int_to_lanes(self.neg_mask, universe.lanes)
        self._refresh_active_lanes()
        # Fused-emit accumulator: candidate blocks of the current
        # constructor, flushed to `_handle_batch` near `max_batch` rows.
        self._accum: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = []
        self._accum_rows = 0

    @property
    def cache(self) -> PackedCache:
        return self._cache

    def _refresh_active_lanes(self) -> None:
        """Rebuild the lane-restricted batch matcher (it skips the
        lanes where both spec masks are all-zero — most lanes of a wide
        spec; shard workers run the identical matcher)."""
        self._matcher = LaneMatcher(
            self._pos_lanes, self._neg_lanes, self.max_errors
        )

    def disable_solution_checks(self) -> None:
        """See :meth:`SearchEngine.disable_solution_checks`; also resets
        the precomputed lane-array masks the batched check uses."""
        super().disable_solution_checks()
        self._pos_lanes = int_to_lanes(self.pos_mask, self.universe.lanes)
        self._neg_lanes = int_to_lanes(self.neg_mask, self.universe.lanes)
        self._refresh_active_lanes()

    # ------------------------------------------------------------------
    def _solve_flags(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised ``|= (P, N)`` (error-relaxed when configured),
        restricted to the lanes where the spec masks are nonzero."""
        return self._matcher.flags(rows)

    def _handle_batch(
        self,
        op: int,
        rows: np.ndarray,
        a_idx: np.ndarray,
        b_idx: Optional[np.ndarray],
    ) -> bool:
        """Solution-check, dedupe and store a batch of candidates.

        Duplicates can never be solutions (their first occurrence was
        already solution-checked when it was constructed), so checking
        solutions before uniqueness is equivalent to Algorithm 2's order
        and keeps the check fully data-parallel.

        The candidate budget is enforced with per-candidate granularity
        (the batch is truncated to the remaining budget), so budget
        verdicts are bit-identical to the scalar engine's.
        """
        truncated = False
        if self.max_generated is not None:
            remaining = self.max_generated - self.generated
            if remaining <= 0:
                raise SweepStopped(STATUS_BUDGET)
            if rows.shape[0] > remaining:
                rows = rows[:remaining]
                a_idx = a_idx[:remaining]
                if b_idx is not None:
                    b_idx = b_idx[:remaining]
                truncated = True
        started = time.perf_counter()
        flags = self._solve_flags(rows)
        self.phase_seconds["solve"] += time.perf_counter() - started
        base = self.generated
        hits = np.flatnonzero(flags)
        if hits.size:
            first = int(hits[0])
            # Count candidates up to and including the solution, and store
            # the non-solution prefix of the batch, so the cache and the
            # ``generated`` counter match the scalar engine's sequential
            # behaviour exactly.
            self.generated = base + first + 1
            if not self.otf:
                self._store_rows(
                    op,
                    rows[:first],
                    a_idx,
                    b_idx,
                    base + 1 + np.arange(first, dtype=np.int64),
                )
            right = -1 if b_idx is None else int(b_idx[first])
            self._record_solution(op, int(a_idx[first]), right, self._current_cost)
            return True
        self.generated = base + rows.shape[0]
        if not self.otf:
            self._store_rows(
                op,
                rows,
                a_idx,
                b_idx,
                base + 1 + np.arange(rows.shape[0], dtype=np.int64),
            )
        if truncated:
            raise SweepStopped(STATUS_BUDGET)
        self._check_budget()
        # The batch is fully stored and the fused-emit accumulator is
        # empty whenever this runs (``_flush`` drains it before calling
        # in), so this is a safe point for in-level checkpoints and
        # stops.
        self._safe_point()
        return False

    def _store_rows(
        self,
        op: int,
        rows: np.ndarray,
        a_idx: np.ndarray,
        b_idx: Optional[np.ndarray],
        ordinals: np.ndarray,
    ) -> None:
        """Dedupe (order-preserving) and bulk-append a batch to the cache.

        Uniqueness is one batched probe of the packed two-tier hash set;
        its novelty mask marks exactly the first occurrence of each
        distinct key in batch order, so the surviving rows — and
        therefore the cache — are ordered identically to the scalar
        engine's sequential inserts.  No per-row Python loop anywhere.
        """
        if rows.shape[0] == 0:
            return
        contiguous = np.ascontiguousarray(rows)
        if self.check_uniqueness:
            started = time.perf_counter()
            kept = np.flatnonzero(self._seen.insert_batch(contiguous))
            self.phase_seconds["dedupe"] += time.perf_counter() - started
        else:
            kept = np.arange(rows.shape[0], dtype=np.int64)
        if kept.size == 0:
            return
        if self._cache.max_size is not None:
            space = self._cache.max_size - len(self._cache)
            if kept.size > space:
                # Capacity reached mid-batch: store the prefix that fits
                # and enter OnTheFly mode (paper §3), exactly as the
                # scalar engine does one candidate at a time.
                kept = kept[:space]
                self.otf = True
        if kept.size == 0:
            return
        started = time.perf_counter()
        lefts = a_idx[kept]
        if b_idx is None:
            rights = np.full(kept.size, -1, dtype=np.int64)
        else:
            rights = b_idx[kept]
        self._cache.append_rows(
            contiguous[kept], op, lefts, rights, ordinals[kept]
        )
        self.phase_seconds["store"] += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Fused emit accumulator
    # ------------------------------------------------------------------
    def _flush(self, op: int) -> bool:
        """Hand the accumulated candidate blocks to `_handle_batch`."""
        if not self._accum:
            return False
        if len(self._accum) == 1:
            rows, a_idx, b_idx = self._accum[0]
        else:
            rows = np.concatenate([block[0] for block in self._accum])
            a_idx = np.concatenate([block[1] for block in self._accum])
            b_idx = np.concatenate([block[2] for block in self._accum])
        self._accum.clear()
        self._accum_rows = 0
        return self._handle_batch(op, rows, a_idx, b_idx)

    def _push(
        self,
        op: int,
        rows: np.ndarray,
        a_idx: np.ndarray,
        b_idx: np.ndarray,
    ) -> bool:
        """Accumulate one candidate block; flush near the batch bound."""
        self._accum.append((rows, a_idx, b_idx))
        self._accum_rows += rows.shape[0]
        if self._accum_rows >= self._max_batch:
            return self._flush(op)
        return False

    def _emit_pair_group_serial(
        self,
        op: int,
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]],
        skip: int = 0,
    ) -> bool:
        """All same-constructor pairings of a level, fused.

        Candidate blocks stream through the shared accumulator in
        enumeration order, so dedupe/solve/store see near-``max_batch``
        batches even when individual pairings are tiny — the batched
        stages' fixed costs amortise across the whole level.  A solution
        found mid-level flushes exactly like the per-pairing emit would:
        the first satisfying candidate in order wins.  A mid-level
        resume offset skips whole pairings structurally and enters the
        pairing containing the resume point at the residual offset.
        """
        self._accum.clear()
        self._accum_rows = 0
        try:
            for pairing in pairings:
                left, right, triangular = pairing
                if skip:
                    count = _pair_candidates(pairing)
                    if skip >= count:
                        skip -= count
                        continue
                pair_skip, skip = skip, 0
                if op == OP_CONCAT:
                    if self._emit_concat_pairs(left, right, pair_skip):
                        return True
                else:
                    if self._emit_union_pairs(
                        left, right, triangular, pair_skip
                    ):
                        return True
            return self._flush(op)
        finally:
            self._accum.clear()
            self._accum_rows = 0

    # ------------------------------------------------------------------
    # Intra-query sharding hooks (see repro.core.shard)
    # ------------------------------------------------------------------
    def _shard_rows(self, start: int, end: int) -> np.ndarray:
        return self._cache.matrix[start:end]

    def _apply_shard_outcome(self, op: int, outcome) -> bool:
        """Phase two of the sharded dedupe: the locally-novel survivors
        pass through the engine's normal store path (authoritative
        seen-set insert, order-preserving), and the counters advance by
        the ordinals the partition plan fixed up front — exactly the
        serial batch semantics."""
        base = self.generated
        absolute = base + 1 + outcome.ordinals
        if outcome.hit is not None:
            ordinal, left, right = outcome.hit
            self.generated = base + ordinal + 1
            self._store_rows(
                op, outcome.rows, outcome.a_idx, outcome.b_idx, absolute
            )
            self._record_solution(op, left, right, self._current_cost)
            return True
        self.generated = base + outcome.total
        self._store_rows(
            op, outcome.rows, outcome.a_idx, outcome.b_idx, absolute
        )
        self._check_budget()
        return False

    # ------------------------------------------------------------------
    # Checkpointing (see RunControl.restored)
    # ------------------------------------------------------------------
    def _level_payload(
        self, start: int, end: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # Views, not copies: the sink runs inside the hand-over, and
        # cache rows are write-once, so a view stays valid even after
        # the cache grows into new arrays.
        return (
            self._cache.rows(start, end),
            *self._cache.provenance_arrays(start, end),
            self._cache.gen_ordinals(start, end),
        )

    def _adopt_restored(self, payload, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        rows = np.ascontiguousarray(payload.rows[lo:hi])
        if self.check_uniqueness:
            # Stored cache rows are globally distinct by construction,
            # so the cheap no-probe bulk insert applies.
            self._seen.insert_novel_batch(rows)
        self._cache.append_rows(
            rows,
            payload.ops[lo:hi],
            payload.lefts[lo:hi],
            payload.rights[lo:hi],
            payload.ordinals[lo:hi],
        )

    def _scan_restored(self, payload, limit: int) -> Optional[int]:
        if limit <= 0:
            return None
        rows = np.ascontiguousarray(payload.rows[:limit])
        hits = np.flatnonzero(self._matcher.flags(rows))
        return int(hits[0]) if hits.size else None

    # ------------------------------------------------------------------
    # Concatenation: plane-resident pair blocks
    # ------------------------------------------------------------------
    def _concat_blocks(
        self, n_a: int, n_b: int, b8: int
    ) -> Iterator[Tuple[int, int, int, int]]:
        """Lazy pair blocking: yields ``(i0, i1, c0, c1)`` — left rows
        ``[i0, i1)`` × right byte-columns ``[c0, c1)`` — in enumeration
        order, each block at most ``max_batch`` candidates."""
        if n_b <= self._max_batch:
            bi = max(1, self._max_batch // (b8 * 8))
            for i0 in range(0, n_a, bi):
                yield i0, min(i0 + bi, n_a), 0, b8
        else:
            cb = self._max_batch >> 3  # byte-columns per block
            for i0 in range(n_a):
                for c0 in range(0, b8, cb):
                    yield i0, i0 + 1, c0, min(c0 + cb, b8)

    def _emit_concat_pairs(
        self, left: Tuple[int, int], right: Tuple[int, int], skip: int = 0
    ) -> bool:
        """All concat candidates of one ``(left level, right level)``
        pairing, gathered from the levels' cached planes.

        A mid-level resume offset (``skip``) drops whole pair blocks
        without building them; only the block containing the resume
        point is assembled and sliced past the already-adopted prefix —
        rework is bounded by one block.
        """
        kernels = self._kernels
        n_a = left[1] - left[0]
        n_b = right[1] - right[0]
        n_words = kernels.n_words
        left_planes = self._cache.planes(left[0], left[1], n_words)
        right_planes = self._cache.planes(right[0], right[1], n_words)
        b8 = right_planes.shape[1]
        lanes = kernels.lanes
        right_all = None
        for i0, i1, c0, c1 in self._concat_blocks(n_a, n_b, b8):
            j_lo = c0 * 8
            j_hi = min(c1 * 8, n_b)
            width = j_hi - j_lo
            if skip >= (i1 - i0) * width:
                skip -= (i1 - i0) * width
                continue
            planes = kernels.concat_pair_planes(
                left_planes, right_planes[:, c0:c1], i0, i1
            )
            cb8 = c1 - c0
            padded = unbitslice_rows(planes, (i1 - i0) * cb8 * 8, lanes)
            rows = (
                padded.reshape(i1 - i0, cb8 * 8, lanes)[:, :width]
                .reshape(-1, lanes)
            )
            a_idx = np.repeat(
                np.arange(left[0] + i0, left[0] + i1, dtype=np.int64), width
            )
            if c0 == 0 and c1 == b8:
                if right_all is None:
                    right_all = np.arange(
                        right[0], right[0] + width, dtype=np.int64
                    )
                j_range = right_all
            else:
                j_range = np.arange(
                    right[0] + j_lo, right[0] + j_hi, dtype=np.int64
                )
            b_idx = np.tile(j_range, i1 - i0)
            if skip:
                rows = rows[skip:]
                a_idx = a_idx[skip:]
                b_idx = b_idx[skip:]
                skip = 0
            if self._push(OP_CONCAT, rows, a_idx, b_idx):
                return True
        return False

    # ------------------------------------------------------------------
    # Union: lazy pair blocks on packed rows
    # ------------------------------------------------------------------
    def _union_blocks(
        self, left: Tuple[int, int], right: Tuple[int, int], triangular: bool
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Lazy ``(a_idx, b_idx)`` blocks in enumeration order, at most
        ``max_batch`` pairs each — nothing O(n²) is ever materialised."""
        cap = self._max_batch
        if not triangular:
            n_b = right[1] - right[0]
            total = (left[1] - left[0]) * n_b
            for k0 in range(0, total, cap):
                ks = np.arange(k0, min(k0 + cap, total), dtype=np.int64)
                yield left[0] + ks // n_b, right[0] + ks % n_b
            return
        # Same level on both sides; upper triangle, diagonal excluded.
        start, end = left
        i = start
        while i < end - 1:
            count_i = end - 1 - i
            if count_i > cap:
                # One left row's pairs alone exceed a batch: chunk js.
                for j0 in range(i + 1, end, cap):
                    j1 = min(j0 + cap, end)
                    yield (
                        np.full(j1 - j0, i, dtype=np.int64),
                        np.arange(j0, j1, dtype=np.int64),
                    )
                i += 1
                continue
            total = 0
            i2 = i
            while i2 < end - 1 and total + (end - 1 - i2) <= cap:
                total += end - 1 - i2
                i2 += 1
            lefts = np.arange(i, i2, dtype=np.int64)
            counts = (end - 1) - lefts
            a_idx = np.repeat(lefts, counts)
            offsets = np.zeros(lefts.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            b_idx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets, counts)
                + np.repeat(lefts + 1, counts)
            )
            yield a_idx, b_idx
            i = i2

    def _emit_union_pairs(
        self,
        left: Tuple[int, int],
        right: Tuple[int, int],
        triangular: bool,
        skip: int = 0,
    ) -> bool:
        matrix = self._cache.matrix
        for a_idx, b_idx in self._union_blocks(left, right, triangular):
            if skip:
                # Mid-level resume: drop already-adopted pairs before
                # any rows are gathered.
                if skip >= a_idx.size:
                    skip -= a_idx.size
                    continue
                a_idx = a_idx[skip:]
                b_idx = b_idx[skip:]
                skip = 0
            rows = matrix.take(a_idx, axis=0)
            rows |= matrix.take(b_idx, axis=0)
            if self._push(OP_UNION, rows, a_idx, b_idx):
                return True
        return False

    # ------------------------------------------------------------------
    # Seeding and unary constructors
    # ------------------------------------------------------------------
    def _seed_alphabet(self) -> bool:
        universe = self.universe
        rows = ints_to_matrix(
            [universe.char_cs(symbol) for symbol in universe.alphabet],
            universe.lanes,
        )
        indices = np.arange(len(universe.alphabet), dtype=np.int64)
        return self._handle_batch(OP_CHAR, rows, indices, None)

    def _emit_unary(self, op: int, start: int, end: int) -> bool:
        kernels = self._kernels
        level_planes = (
            self._cache.planes(start, end, kernels.n_words)
            if op == OP_STAR
            else None
        )
        for lo in range(start, end, self._max_batch):
            hi = min(lo + self._max_batch, end)
            if op == OP_QUESTION:
                out = kernels.question(self._cache.rows(lo, hi))
            else:
                # Byte-aligned sub-segment of the cached level planes:
                # the star fixpoint never re-slices the operands.
                segment = plane_segment(level_planes, lo - start, hi - start)
                out = kernels.star_planes(segment, hi - lo)
            indices = np.arange(lo, hi, dtype=np.int64)
            if self._handle_batch(op, out, indices, None):
                return True
        return False
