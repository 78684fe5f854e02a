"""Intra-query sharded level construction: one query, all cores.

The paper's headline claim is *data-parallel* enumeration of a single
query; the service layer (``repro.service``) only parallelises across
queries, so one hard specification still saturates exactly one core.
This module shards the per-level pair work of a single search across a
pool of worker processes while keeping enumeration semantics —
candidate order, dedupe survivors, solution choice, ``generated``
counters — bit-identical to the serial engines.

The design (documented in ``docs/ARCHITECTURE.md``, "Sharded
enumeration"):

* **Row-granular partition plan.**  A cost level's same-constructor
  pairings flatten into *units* — one unit per left operand row, whose
  weight is the number of candidates that row contributes
  (:class:`PairGroupLayout`).  :func:`plan_shards` cuts the unit
  sequence into ``n_shards`` contiguous, weight-balanced ranges; because
  the ranges are contiguous in enumeration order, every shard owns a
  contiguous span of candidate *ordinals*.  The planner is a pure
  function, unit-tested deterministically.
* **Shared read-only state.**  Each worker holds a mirror of the
  language cache's rows, fed
  by per-level broadcasts of the reconciled novel rows, a
  :class:`~repro.core.cache.PackedCache` plane cache over it, and a
  confirmed-key :class:`~repro.core.hashset.PackedKeySet` bulk-loaded
  with the same rows (:meth:`PackedKeySet.insert_novel_batch` — stored
  rows are distinct by construction, so the load never compares keys).
* **Two-phase dedupe.**  Phase one is shard-local and lossy-free: a
  candidate is dropped iff it matches a *confirmed* key
  (:meth:`PackedKeySet.contains_batch`) or an earlier candidate of the
  same shard (a fresh local set).  Phase two is the coordinator's
  ordered reconciliation: surviving candidates are re-inserted, in
  shard (= enumeration) order, into the engine's authoritative seen-set
  via the engine's normal store path, which removes cross-shard
  duplicates.  Phase one never drops a candidate phase two would have
  kept, and phase two catches everything phase one's stale mirror
  missed, so the stored sequence is exactly the serial one.
* **Solution arbitration.**  Workers solution-check every candidate
  (before their local dedupe — a duplicate can never be a *first*
  solution, so the order does not change the answer) and report the
  first hit's global ordinal; the coordinator takes the minimum across
  shards, keeps only candidates with smaller ordinals, and the engine
  records the winner — the same candidate the serial sweep would have
  stopped at.  A shared advisory stop ordinal lets shards past a
  reported hit abandon their remaining blocks early (a pure
  optimisation: their output is discarded either way).
* **Budgets.**  ``max_generated`` truncation is exact: the coordinator
  passes the remaining budget as a hard stop ordinal, workers clamp
  block generation to it, and the engine's ``generated`` counter
  advances by ``min(group total, remaining)`` — the serial boundary.

Sharding is gated off (the engine silently serves the serial path) in
OnTheFly mode, under a bounded cache, with uniqueness checking
disabled, for groups below
:data:`repro.core.engine.DEFAULT_SHARD_MIN_CANDIDATES`, and inside
daemonic processes (which may not spawn children; the service pool's
workers are non-daemonic exactly so pooled jobs can shard);
``shard_workers=1`` never constructs a coordinator at all.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import Tracer
from ..testing.faults import fault_point
from .bitops import popcount_rows, unbitslice_rows
from .cache import PackedCache
from .engine import OP_CONCAT
from .hashset import PackedKeySet

#: Advisory stop sentinel: "no stop requested yet".
_NO_STOP = 1 << 62

Pairing = Tuple[Tuple[int, int], Tuple[int, int], bool]


# ----------------------------------------------------------------------
# Batched spec predicate
# ----------------------------------------------------------------------
class LaneMatcher:
    """Lane-restricted batched solution predicate on packed rows.

    The vectorised form of :func:`repro.core.engine.cs_solves`: checks
    only the uint64 lanes the specification masks actually touch (most
    lanes of a wide spec are all-zero in both masks), supporting the
    error-relaxed variant.  Shared by the vectorised engine's batch
    checks, its checkpoint replay scans and the shard workers, so all
    of them evaluate the exact same predicate.

    The precise check runs lane by lane: per active lane ``k`` it ANDs
    ``(col & pos[k]) == pos[k]`` and ``(col & neg[k]) == 0`` into the
    verdicts, with no ``(n, lanes)`` intermediate and no axis reduction.
    """

    __slots__ = ("max_errors", "active", "pos", "neg", "lanes", "_columns")

    def __init__(
        self,
        pos_lanes: np.ndarray,
        neg_lanes: np.ndarray,
        max_errors: int,
    ) -> None:
        self.max_errors = max_errors
        self.lanes = pos_lanes.shape[0]
        active = np.flatnonzero(pos_lanes | neg_lanes)
        self.active = None if active.size == self.lanes else active
        self.pos = pos_lanes if self.active is None else pos_lanes[self.active]
        self.neg = neg_lanes if self.active is None else neg_lanes[self.active]
        self._columns = [
            (int(lane), pos_lanes[lane], neg_lanes[lane]) for lane in active
        ]

    def flags(self, rows: np.ndarray) -> np.ndarray:
        """Per-row ``|= (P, N)`` verdicts for a ``(n, lanes)`` batch."""
        if self.max_errors == 0:
            ok = np.ones(rows.shape[0], dtype=bool)
            for lane, pos, neg in self._columns:
                col = rows[:, lane]
                ok &= (col & pos) == pos
                ok &= (col & neg) == 0
            return ok
        if self.active is not None:
            rows = rows.take(self.active, axis=1)
        mistakes = popcount_rows((rows & self.pos) ^ self.pos)
        mistakes += popcount_rows(rows & self.neg)
        return mistakes <= self.max_errors


# ----------------------------------------------------------------------
# Partition plan (pure, deterministic)
# ----------------------------------------------------------------------
class PairGroupLayout:
    """Row-granular layout of one constructor's operand pairings.

    Flattens the pairings of a cost level into *units* — one unit per
    left operand row, in enumeration order — with one weight per unit:
    the number of candidates that row contributes (``n_right`` for
    rectangular pairings, ``end - 1 - i`` for row ``i`` of a triangular
    one).  ``cum[u]`` is the candidate ordinal of unit ``u``'s first
    candidate, so any contiguous unit range maps to a contiguous,
    known-offset span of candidate ordinals.
    """

    __slots__ = ("pairings", "unit_starts", "weights", "cum", "n_units", "total")

    def __init__(self, pairings: Sequence[Pairing]) -> None:
        self.pairings: List[Pairing] = list(pairings)
        parts: List[np.ndarray] = []
        self.unit_starts: List[int] = []
        units = 0
        for (l0, l1), _right, triangular in self.pairings:
            n_a = l1 - l0
            self.unit_starts.append(units)
            if triangular:
                parts.append(np.arange(n_a - 1, -1, -1, dtype=np.int64))
            else:
                r0, r1 = _right
                parts.append(np.full(n_a, r1 - r0, dtype=np.int64))
            units += n_a
        self.n_units = units
        self.weights = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        )
        self.cum = np.zeros(self.n_units + 1, dtype=np.int64)
        np.cumsum(self.weights, out=self.cum[1:])
        self.total = int(self.cum[-1])

    def slices(
        self, unit_lo: int, unit_hi: int
    ) -> List[Tuple[int, int, int, int]]:
        """The per-pairing work of units ``[unit_lo, unit_hi)``.

        Returns ``(pairing_index, row_lo, row_hi, ordinal)`` tuples in
        enumeration order — rows are *absolute* cache indices and
        ``ordinal`` is the group-wide candidate ordinal of the slice's
        first candidate.
        """
        out: List[Tuple[int, int, int, int]] = []
        for index, (left, _right, _tri) in enumerate(self.pairings):
            p_lo = self.unit_starts[index]
            p_hi = p_lo + (left[1] - left[0])
            lo = max(unit_lo, p_lo)
            hi = min(unit_hi, p_hi)
            if lo >= hi:
                continue
            out.append(
                (
                    index,
                    left[0] + (lo - p_lo),
                    left[0] + (hi - p_lo),
                    int(self.cum[lo]),
                )
            )
        return out


@dataclass(frozen=True)
class ShardRange:
    """One shard's contiguous slice of a pair group."""

    unit_lo: int
    unit_hi: int
    ordinal_lo: int
    candidates: int


def plan_shards(weights: Sequence[int], n_shards: int) -> List[ShardRange]:
    """Cut a unit-weight sequence into ``n_shards`` contiguous ranges.

    Pure and deterministic: shard ``s`` ends at the first unit boundary
    whose cumulative weight reaches ``total * (s + 1) / n_shards``, so
    every shard's candidate count is within one unit weight of the
    ideal balance.  Always returns exactly ``n_shards`` ranges; with
    more shards than units (or an all-zero weight vector) the trailing
    ranges are empty — the documented degenerate cases.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    weights = np.asarray(weights, dtype=np.int64)
    n_units = int(weights.shape[0])
    cum = np.zeros(n_units + 1, dtype=np.int64)
    np.cumsum(weights, out=cum[1:])
    total = int(cum[-1])
    if total == 0:
        ranges = [ShardRange(0, n_units, 0, 0)]
        ranges.extend(ShardRange(n_units, n_units, 0, 0) for _ in range(n_shards - 1))
        return ranges
    bounds = [0]
    for shard in range(1, n_shards):
        target = -(-total * shard // n_shards)  # ceil(total * s / n_shards)
        bound = int(np.searchsorted(cum[1:], target, side="left")) + 1
        bounds.append(max(bound, bounds[-1]))
    bounds.append(n_units)
    return [
        ShardRange(
            unit_lo=lo,
            unit_hi=hi,
            ordinal_lo=int(cum[lo]),
            candidates=int(cum[hi] - cum[lo]),
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


# ----------------------------------------------------------------------
# Worker-side block generation (enumeration order, row sub-ranges)
# ----------------------------------------------------------------------
def _concat_shard_blocks(
    kernels,
    cache: PackedCache,
    left: Tuple[int, int],
    right: Tuple[int, int],
    row_lo: int,
    row_hi: int,
    max_batch: int,
) -> Iterator[np.ndarray]:
    """Concat candidates of left rows ``[row_lo, row_hi)`` × the whole
    right level, as row blocks in enumeration order — the same
    plane-resident kernel path as the serial engine, restricted to a row
    sub-range."""
    n_b = right[1] - right[0]
    if n_b == 0 or row_hi <= row_lo:
        return
    n_words = kernels.n_words
    lanes = kernels.lanes
    left_planes = cache.planes(left[0], left[1], n_words)
    right_planes = cache.planes(right[0], right[1], n_words)
    b8 = right_planes.shape[1]
    if n_b <= max_batch:
        per_row = max(1, max_batch // (b8 * 8))
        for i0 in range(row_lo, row_hi, per_row):
            i1 = min(i0 + per_row, row_hi)
            planes = kernels.concat_pair_planes(
                left_planes, right_planes, i0 - left[0], i1 - left[0]
            )
            padded = unbitslice_rows(planes, (i1 - i0) * b8 * 8, lanes)
            yield padded.reshape(i1 - i0, b8 * 8, lanes)[:, :n_b].reshape(
                -1, lanes
            )
    else:
        col_block = max_batch >> 3  # byte-columns per block
        for i in range(row_lo, row_hi):
            for c0 in range(0, b8, col_block):
                c1 = min(c0 + col_block, b8)
                planes = kernels.concat_pair_planes(
                    left_planes,
                    right_planes[:, c0:c1],
                    i - left[0],
                    i - left[0] + 1,
                )
                padded = unbitslice_rows(planes, (c1 - c0) * 8, lanes)
                yield padded[: min(c1 * 8, n_b) - c0 * 8]


def _union_index_blocks(
    left: Tuple[int, int],
    right: Tuple[int, int],
    triangular: bool,
    row_lo: int,
    row_hi: int,
    cap: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Union pair indices of left rows ``[row_lo, row_hi)``, in
    enumeration order, at most ``cap`` pairs per block."""
    if not triangular:
        n_b = right[1] - right[0]
        total = (row_hi - row_lo) * n_b
        for k0 in range(0, total, cap):
            ks = np.arange(k0, min(k0 + cap, total), dtype=np.int64)
            yield row_lo + ks // n_b, right[0] + ks % n_b
        return
    end = left[1]
    last = min(row_hi, end - 1)  # the final row has no j > i partner
    i = row_lo
    while i < last:
        count_i = end - 1 - i
        if count_i > cap:
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
        while i2 < last and total + (end - 1 - i2) <= cap:
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


def _union_shard_blocks(
    cache: PackedCache,
    left: Tuple[int, int],
    right: Tuple[int, int],
    triangular: bool,
    row_lo: int,
    row_hi: int,
    max_batch: int,
) -> Iterator[np.ndarray]:
    matrix = cache.matrix
    for a_idx, b_idx in _union_index_blocks(
        left, right, triangular, row_lo, row_hi, max_batch
    ):
        rows = matrix.take(a_idx, axis=0)
        rows |= matrix.take(b_idx, axis=0)
        yield rows


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _ShardWorker:
    """Process-local state and emit loop of one shard worker."""

    def __init__(
        self,
        universe,
        guide,
        pos_lanes: np.ndarray,
        neg_lanes: np.ndarray,
        max_errors: int,
        max_batch: int,
        split_block_bytes: int,
        stop_value,
    ) -> None:
        # Imported here to keep the module import acyclic: the engine
        # modules import :mod:`shard` at module level; the kernels are
        # only needed inside worker processes and coordinator calls.
        from .vector_engine import _Kernels

        self.kernels = _Kernels(universe, guide, split_block_bytes=split_block_bytes)
        self.cache = PackedCache(universe.lanes)
        self.confirmed = PackedKeySet(universe.lanes, initial_capacity=1 << 12)
        self.matcher = LaneMatcher(pos_lanes, neg_lanes, max_errors)
        self.max_batch = max(8, max_batch & ~7)
        self.stop_value = stop_value

    def append(self, rows: np.ndarray) -> None:
        """Mirror reconciled novel rows: cache matrix + confirmed keys."""
        self.cache.append_rows(rows)
        self.confirmed.insert_novel_batch(rows)

    def emit(
        self,
        op: int,
        pairings: Sequence[Pairing],
        unit_lo: int,
        unit_hi: int,
        stop_ordinal: int,
    ) -> Tuple[Optional[int], np.ndarray, np.ndarray]:
        """Build, check and locally dedupe this shard's candidates.

        Returns ``(hit, rows, ordinals)``: the group ordinal of the
        shard's first satisfying candidate (or None), and the locally
        novel candidates *before* it, in enumeration order, with their
        group ordinals.
        """
        layout = PairGroupLayout(pairings)
        local = PackedKeySet(self.cache.lanes, initial_capacity=1 << 12)
        kept_rows: List[np.ndarray] = []
        kept_ord: List[np.ndarray] = []
        hit: Optional[int] = None
        for index, row_lo, row_hi, ordinal in layout.slices(unit_lo, unit_hi):
            if ordinal >= stop_ordinal or ordinal >= self.stop_value.value:
                break
            left, right, triangular = layout.pairings[index]
            if op == OP_CONCAT:
                stream = _concat_shard_blocks(
                    self.kernels,
                    self.cache,
                    left,
                    right,
                    row_lo,
                    row_hi,
                    self.max_batch,
                )
            else:
                stream = _union_shard_blocks(
                    self.cache,
                    left,
                    right,
                    triangular,
                    row_lo,
                    row_hi,
                    self.max_batch,
                )
            for rows in stream:
                block_ordinal = ordinal
                ordinal += rows.shape[0]
                if block_ordinal >= stop_ordinal:
                    return self._reply(hit, kept_rows, kept_ord)
                if block_ordinal >= self.stop_value.value:
                    # Advisory early-out: another shard already found a
                    # solution at a smaller ordinal, so everything from
                    # here on would be discarded by the coordinator.
                    return self._reply(hit, kept_rows, kept_ord)
                if ordinal > stop_ordinal:
                    rows = rows[: stop_ordinal - block_ordinal]
                flags = self.matcher.flags(rows)
                hits = np.flatnonzero(flags)
                if hits.size:
                    first = int(hits[0])
                    hit = block_ordinal + first
                    rows = rows[:first]
                if rows.shape[0]:
                    rows = np.ascontiguousarray(rows)
                    present = self.confirmed.contains_batch(rows)
                    novel = local.insert_batch(rows)
                    keep_pos = np.flatnonzero(novel & ~present)
                    if keep_pos.size:
                        kept_rows.append(rows.take(keep_pos, axis=0))
                        kept_ord.append(block_ordinal + keep_pos)
                if hit is not None:
                    with self.stop_value.get_lock():
                        if hit + 1 < self.stop_value.value:
                            self.stop_value.value = hit + 1
                    return self._reply(hit, kept_rows, kept_ord)
        return self._reply(hit, kept_rows, kept_ord)

    def _reply(self, hit, kept_rows, kept_ord):
        if kept_rows:
            rows = np.concatenate(kept_rows)
            ordinals = np.concatenate(kept_ord).astype(np.int64, copy=False)
        else:
            rows = np.zeros((0, self.cache.lanes), dtype=np.uint64)
            ordinals = np.zeros(0, dtype=np.int64)
        return hit, rows, ordinals


def _shard_worker_main(
    conn,
    universe,
    guide,
    pos_lanes: np.ndarray,
    neg_lanes: np.ndarray,
    max_errors: int,
    max_batch: int,
    split_block_bytes: int,
    stop_value,
    shard_index: int = 0,
    trace_id: Optional[str] = None,
) -> None:
    """Worker process body: serve append/emit messages until close."""
    worker = _ShardWorker(
        universe,
        guide,
        pos_lanes,
        neg_lanes,
        max_errors,
        max_batch,
        split_block_bytes,
        stop_value,
    )
    tracer = (
        None
        if trace_id is None
        else Tracer(trace_id, process="shard-worker-%d" % shard_index)
    )
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "append":
                worker.append(message[1])
            elif tag == "emit":
                (
                    _,
                    op,
                    pairings,
                    unit_lo,
                    unit_hi,
                    stop_ordinal,
                    span_parent,
                ) = message
                fault_point("shard.worker.emit")
                if tracer is not None and span_parent is not None:
                    span = tracer.start(
                        "shard-emit",
                        parent_id=span_parent,
                        shard=shard_index,
                        units=unit_hi - unit_lo,
                    )
                    reply = worker.emit(
                        op, pairings, unit_lo, unit_hi, stop_ordinal
                    )
                    tracer.finish(span, kept=int(reply[1].shape[0]))
                    reply = reply + (tracer.drain(),)
                else:
                    reply = worker.emit(
                        op, pairings, unit_lo, unit_hi, stop_ordinal
                    ) + ([],)
                conn.send(reply)
            else:  # "close"
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return  # coordinator gone; exit quietly
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ShardWorkerDied(RuntimeError):
    """A shard worker's pipe broke mid-round (the process crashed).

    Raised by the coordinator in place of the low-level pipe errors so
    the engine can fall back to serial re-execution of the group — safe
    because a round mutates no engine state until its outcome is
    reconciled.
    """


@dataclass
class ShardOutcome:
    """The merged result of one sharded pair-group emit.

    ``total`` is the number of candidates the group *generated* under
    the budget stop (``min(group candidates, remaining budget)``);
    ``rows`` are the locally-novel survivors in enumeration order, still
    subject to the engine's authoritative dedupe, and ``ordinals`` their
    0-based group-relative generation ordinals (what the engine turns
    into absolute ordinals); ``hit`` is the winning solution's group
    ordinal, or None.  ``spans`` are the wire-form trace spans the workers
    recorded during the round (empty on an untraced run) — timing
    metadata only, reconciled into the engine's tracer, never into
    enumeration state.
    """

    total: int
    hit: Optional[int]
    rows: np.ndarray
    ordinals: np.ndarray
    spans: List[dict] = field(default_factory=list)


class ShardCoordinator:
    """Owns the shard worker processes of one engine run.

    Workers share the run's staging (universe + guide table) and spec
    masks, mirror the language cache through :meth:`sync_rows`
    broadcasts, and serve synchronous :meth:`emit_pair_group` rounds.
    All communication is over per-worker pipes; rounds are strictly
    sequential, so no message interleaving is possible.
    """

    def __init__(
        self,
        universe,
        guide,
        pos_lanes: np.ndarray,
        neg_lanes: np.ndarray,
        max_errors: int,
        n_shards: int,
        max_batch: int = 1 << 17,
        split_block_bytes: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        if n_shards < 2:
            raise ValueError("a shard coordinator needs >= 2 shards")
        from .vector_engine import DEFAULT_SPLIT_BLOCK_BYTES

        if split_block_bytes is None:
            split_block_bytes = DEFAULT_SPLIT_BLOCK_BYTES
        self.n_shards = n_shards
        self.lanes = universe.lanes
        context = multiprocessing.get_context()
        self._stop_value = context.Value("q", _NO_STOP)
        self._conns = []
        self._processes = []
        for shard in range(n_shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    universe,
                    guide,
                    pos_lanes,
                    neg_lanes,
                    max_errors,
                    max_batch,
                    split_block_bytes,
                    self._stop_value,
                    shard,
                    trace_id,
                ),
                daemon=True,
                name="repro-shard-%d" % shard,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._synced_rows = 0
        self._closed = False

    # ------------------------------------------------------------------
    def sync_rows(
        self, fetch: Callable[[int, int], np.ndarray], upto: int
    ) -> None:
        """Broadcast cache rows ``[synced, upto)`` to every worker.

        ``fetch(lo, hi)`` must return the rows as a ``(hi - lo, lanes)``
        uint64 matrix; the engine passes a view of its packed cache (the
        scalar engine packs its int CSs on the fly).  Rows are appended
        worker-side to both the mirror cache and the confirmed key set.
        """
        if upto <= self._synced_rows:
            return
        rows = np.ascontiguousarray(fetch(self._synced_rows, upto))
        for conn in self._conns:
            self._send(conn, ("append", rows))
        self._synced_rows = upto

    def _send(self, conn, message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError) as exc:
            raise ShardWorkerDied("shard worker pipe broke on send") from exc

    def _recv(self, conn):
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise ShardWorkerDied("shard worker died before replying") from exc

    def emit_pair_group(
        self,
        op: int,
        pairings: Sequence[Pairing],
        remaining_budget: Optional[int],
        span_parent: Optional[str] = None,
    ) -> ShardOutcome:
        """One synchronous sharded emit round; see :class:`ShardOutcome`.

        ``span_parent`` is the engine-side fan-out span id a traced
        round's worker spans should hang off (None disables worker-side
        span recording for the round).
        """
        layout = PairGroupLayout(pairings)
        total = layout.total
        stop = (
            total
            if remaining_budget is None
            else min(total, max(0, remaining_budget))
        )
        with self._stop_value.get_lock():
            self._stop_value.value = stop if stop < total else _NO_STOP
        plan = plan_shards(layout.weights, self.n_shards)
        for shard_range, conn in zip(plan, self._conns):
            self._send(
                conn,
                (
                    "emit",
                    op,
                    layout.pairings,
                    shard_range.unit_lo,
                    shard_range.unit_hi,
                    stop,
                    span_parent,
                ),
            )
        replies = [self._recv(conn) for conn in self._conns]
        return self._merge(replies, stop)

    def _merge(self, replies, stop: int) -> ShardOutcome:
        """Ordered reconciliation of the shard replies (phase two's
        input): pick the minimum-ordinal hit, keep every shard before
        it whole and the hit shard's pre-hit survivors, drop the rest."""
        # Spans are harvested from *every* reply before the hit
        # truncation below: a dropped shard's work still happened, and
        # its timing is exactly what the timeline must show.
        spans: List[dict] = []
        for reply in replies:
            spans.extend(reply[3])
        best_hit = None
        hit_shard = None
        for shard, reply in enumerate(replies):
            hit = reply[0]
            if hit is not None and (best_hit is None or hit < best_hit):
                best_hit = hit
                hit_shard = shard
        if best_hit is not None:
            replies = replies[: hit_shard + 1]
        kept = [reply for reply in replies if reply[1].shape[0]]
        if kept:
            merged_rows = np.concatenate([reply[1] for reply in kept])
            merged_ord = np.concatenate([reply[2] for reply in kept])
        else:
            merged_rows = np.zeros((0, self.lanes), dtype=np.uint64)
            merged_ord = np.zeros(0, dtype=np.int64)
        return ShardOutcome(
            total=stop,
            hit=best_hit,
            rows=merged_rows,
            ordinals=merged_ord,
            spans=spans,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - safety net
                process.terminate()
                process.join(timeout=1)
        self._conns = []
        self._processes = []

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
