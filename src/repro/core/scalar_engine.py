"""The scalar ("CPU") engine: one CS at a time, Python ints.

This is the reproduction of the paper's C++ CPU implementation: the same
Algorithm 1/2 structure as the vectorised engine, but candidates are
built sequentially with ordinary control flow (including the per-word
early exit that is natural on a CPU and pathological on a GPU), and
uniqueness is a single hash-set insert per candidate — the role
``std::unordered_set`` plays in the paper's CPU build, here filled by the
WarpCore-substitute :class:`~repro.core.hashset.FingerprintHashSet`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import CostFunction
from ..spec import Spec
from .bitops import concat_cs, concat_cs_naive, ints_to_matrix, star_cs
from .cache import IntCache
from .engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_QUESTION,
    SearchEngine,
)
from .hashset import FingerprintHashSet


class ScalarEngine(SearchEngine):
    """Sequential bottom-up synthesis over int-encoded CSs."""

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
        self._cache = IntCache(max_size=max_cache_size)
        self._seen = FingerprintHashSet(initial_capacity=1 << 12)

    @property
    def cache(self) -> IntCache:
        return self._cache

    # ------------------------------------------------------------------
    def _concat(self, left: int, right: int) -> int:
        if self.use_guide_table:
            return concat_cs(left, right, self.guide)
        return concat_cs_naive(left, right, self.universe)

    def _star(self, cs: int) -> int:
        if self.use_guide_table:
            return star_cs(cs, self.guide, self.universe)
        result = self.universe.eps_bit
        for _ in range(self.universe.max_word_length + 1):
            grown = result | concat_cs_naive(result, cs, self.universe)
            if grown == result:
                return result
            result = grown
        return result

    # ------------------------------------------------------------------
    def _handle(self, cs: int, op: int, left: int, right: int) -> bool:
        """Uniqueness-check, solution-check and store one candidate.

        Returns True iff ``cs`` solves the specification.  Mirrors lines
        15–19 of Algorithm 2; in OnTheFly mode the uniqueness check and
        the store are skipped (paper §3, "OnTheFly mode").
        """
        self.generated += 1
        if not self.otf and self.check_uniqueness:
            if not self._seen.insert(cs):
                self._check_budget()
                # A dedupe-rejected candidate is fully processed too —
                # counting it keeps the checkpoint interval an exact bound.
                self._safe_point()
                return False
        if self.solves_int(cs):
            self._record_solution(op, left, right, self._current_cost)
            return True
        if not self.otf:
            if self._cache.is_full:
                self.otf = True
            else:
                self._cache.append(cs, op, left, right, self.generated)
        # The budget is checked *after* the candidate was fully processed,
        # so a solution at exactly the budget boundary is still found —
        # the vectorised engine truncates batches to the same boundary.
        self._check_budget()
        # Every fully-processed candidate is a safe point here (the
        # scalar engine has no batch accumulator).
        self._safe_point()
        return False

    # ------------------------------------------------------------------
    def _seed_alphabet(self) -> bool:
        for char_index, symbol in enumerate(self.universe.alphabet):
            if self._handle(self.universe.char_cs(symbol), OP_CHAR, char_index, -1):
                return True
        return False

    def _emit_unary(self, op: int, start: int, end: int) -> bool:
        cs_list = self._cache.cs_list
        if op == OP_QUESTION:
            eps_bit = self.universe.eps_bit
            for index in range(start, end):
                if self._handle(cs_list[index] | eps_bit, op, index, -1):
                    return True
        else:  # OP_STAR
            for index in range(start, end):
                if self._handle(self._star(cs_list[index]), op, index, -1):
                    return True
        return False

    def _emit_pairs(
        self,
        op: int,
        left: Tuple[int, int],
        right: Tuple[int, int],
        triangular: bool,
        skip: int = 0,
    ) -> bool:
        # A mid-level resume offset walks whole left-operand rows off
        # ``skip`` (each row's candidate count is closed-form) and
        # enters the row containing the resume point at the residual
        # column — candidate order is untouched.
        cs_list = self._cache.cs_list
        if op == OP_CONCAT:
            for i in range(left[0], left[1]):
                if skip:
                    row = right[1] - right[0]
                    if skip >= row:
                        skip -= row
                        continue
                j_start = right[0] + skip
                skip = 0
                left_cs = cs_list[i]
                for j in range(j_start, right[1]):
                    if self._handle(self._concat(left_cs, cs_list[j]), op, i, j):
                        return True
        else:  # OP_UNION
            for i in range(left[0], left[1]):
                j_start = i + 1 if triangular else right[0]
                if skip:
                    row = right[1] - j_start
                    if skip >= row:
                        skip -= row
                        continue
                j_start += skip
                skip = 0
                left_cs = cs_list[i]
                for j in range(j_start, right[1]):
                    if self._handle(left_cs | cs_list[j], op, i, j):
                        return True
        return False

    # ------------------------------------------------------------------
    # Intra-query sharding hooks (see repro.core.shard)
    # ------------------------------------------------------------------
    def _shard_rows(self, start: int, end: int):
        return ints_to_matrix(
            self._cache.cs_list[start:end], self.universe.lanes
        )

    def _apply_shard_outcome(self, op, outcome) -> bool:
        """Reconcile a sharded emit into the scalar state.

        The workers compute candidates with the vectorised kernels; the
        engine-equivalence property (both engines build identical CSs in
        identical order) makes unpacking their survivors back to ints
        exact.  The authoritative per-candidate seen-set insert keeps
        the cache sequence identical to the serial scalar loop; the
        ``generated`` counter advances by the plan's ordinals.
        """
        base = self.generated
        rows = outcome.rows
        if rows.shape[0]:
            width = self.universe.lanes * 8
            data = rows.astype("<u8", copy=False).tobytes()
            seen = self._seen
            cache = self._cache
            for k in range(rows.shape[0]):
                cs = int.from_bytes(data[k * width : (k + 1) * width], "little")
                if seen.insert(cs):
                    cache.append(
                        cs,
                        op,
                        int(outcome.a_idx[k]),
                        int(outcome.b_idx[k]),
                        base + 1 + int(outcome.ordinals[k]),
                    )
        if outcome.hit is not None:
            ordinal, left, right = outcome.hit
            self.generated = base + ordinal + 1
            self._record_solution(op, left, right, self._current_cost)
            return True
        self.generated = base + outcome.total
        self._check_budget()
        return False

    # ------------------------------------------------------------------
    # Checkpointing (see SearchEngine.restore)
    # ------------------------------------------------------------------
    def _level_payload(self, start: int, end: int):
        rows = ints_to_matrix(
            self._cache.cs_list[start:end], self.universe.lanes
        )
        provenance = self._cache.provenance[start:end]
        return (
            rows,
            np.array([p[0] for p in provenance], dtype=np.int64),
            np.array([p[1] for p in provenance], dtype=np.int64),
            np.array([p[2] for p in provenance], dtype=np.int64),
            np.array(self._cache.ordinals[start:end], dtype=np.int64),
        )

    def _restored_ints(self, payload, lo: int, hi: int):
        """Rows ``[lo, hi)`` of a checkpoint as Python-int CSs."""
        rows = payload.rows[lo:hi]
        width = self.universe.lanes * 8
        data = np.ascontiguousarray(rows).astype("<u8", copy=False).tobytes()
        return [
            int.from_bytes(data[k * width : (k + 1) * width], "little")
            for k in range(rows.shape[0])
        ]

    def _adopt_restored(self, payload, lo: int, hi: int) -> None:
        for offset, cs in enumerate(self._restored_ints(payload, lo, hi)):
            k = lo + offset
            if self.check_uniqueness:
                self._seen.insert(cs)
            self._cache.append(
                cs,
                int(payload.ops[k]),
                int(payload.lefts[k]),
                int(payload.rights[k]),
                int(payload.ordinals[k]),
            )

    def _scan_restored(self, payload, limit: int) -> Optional[int]:
        for k, cs in enumerate(self._restored_ints(payload, 0, limit)):
            if self.solves_int(cs):
                return k
        return None
