"""The cost-sweep search loop shared by both engines (Algorithm 1).

:class:`SearchEngine` owns everything that is identical between the
scalar ("CPU") and vectorised ("GPU-sim") implementations: the trivial
``∅``/``ε`` checks, alphabet seeding order, the sweep over cost levels,
the per-level constructor order (``?``, ``*``, ``·``, ``+`` — line 12 of
Algorithm 1), operand-level pairing, the OnTheFly/out-of-memory policy,
and solution bookkeeping.  Subclasses provide only the data
representation and the batch kernels.

Enumeration order is fully deterministic and identical across engines,
so both return the same regular expression for the same input — a
property the test-suite asserts.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import CostFunction
from ..spec import Spec
from .bitops import int_to_lanes, popcount

# Provenance opcodes.  EMPTY/EPSILON occur only as solutions of trivial
# specifications; CHAR's ``left`` field is an index into the alphabet.
# A candidate's ``(op, left, right)`` triple is never stored: it is a
# function of its generation ordinal (:meth:`SearchEngine._decode`).
OP_EMPTY = 0
OP_EPSILON = 1
OP_CHAR = 2
OP_QUESTION = 3
OP_STAR = 4
OP_CONCAT = 5
OP_UNION = 6

#: Below this many candidates in a pair group, a sharded emit's fixed
#: coordinator round-trip costs more than it saves; smaller groups take
#: the serial path (bit-identical either way).
DEFAULT_SHARD_MIN_CANDIDATES = 1 << 15

#: Status verdicts of a search run.
STATUS_SUCCESS = "success"
STATUS_NOT_FOUND = "not_found"
STATUS_OOM = "oom"
STATUS_BUDGET = "budget"
STATUS_CANCELLED = "cancelled"
STATUS_PREEMPTED = "preempted"


#: The checkpoint cadence, the only two settings of when records are
#: written.  The engine queues a record at the end of every level it
#: builds and hands the whole queue to :attr:`RunControl.on_checkpoint`
#: as one group once this many candidates — or this many seconds — of
#: enumerated work have passed since the last group, when the run stops
#: and when it returns.  The check runs at level ends and at emit-loop
#: safe points; a safe point that finds it due adds an in-level record
#: of the level being built.  One rule covers every way a run can end
#: inside a level past the seed level — a stop, its budget or a
#: solution: it queues a record of that level up to the last candidate
#: it stored or counted (the one before a solution), unless the record
#: would hold no candidate the run did not adopt
#: (:meth:`SearchEngine._queue_stop_record`).  Candidates adopted from
#: restored records are not work and do not count.  A small job
#: therefore hands over one group, when its run returns, and a SIGKILL
#: loses at most one interval of unjournalled enumeration, whether
#: inside one wide level or across many small ones.
CHECKPOINT_EVERY_CANDIDATES = 250_000
CHECKPOINT_EVERY_S = 2.0


@dataclass
class Checkpoint:
    """A cost level's progress in replayable form.

    Enumeration is a deterministic sequence over a staged universe, so
    any point in it is a prefix of completed levels plus a cursor inside
    the next one.  A record holds everything a fresh engine needs to
    adopt one level up to its cursor without re-enumerating it: the rows
    the level stored (packed uint64, the cross-backend interchange
    format), each row's 1-based absolute generation ordinal, the
    engine's cumulative ``generated`` counter at the snapshot, and
    ``level_progress`` — the number of candidates the level had
    generated by then.  A row's provenance is not recorded: the
    adopting engine decodes it from the ordinal.  A finished level is
    simply the cursor at the level's end.  Because enumeration, dedupe
    and storage are spec-independent, a record taken under one spec
    replays bit-identically under any other spec over the same universe
    and cost function.
    """

    cost: int
    rows: np.ndarray  # (n, lanes) uint64
    ordinals: np.ndarray  # (n,) int64, 1-based absolute
    generated_total: int  # cumulative ``generated`` at the snapshot
    level_progress: int  # candidates generated within this level


def cs_solves(cs: int, pos_mask: int, neg_mask: int, max_errors: int) -> bool:
    """Does a CS satisfy the (possibly error-relaxed) mask pair?

    The single source of truth for the solution predicate: the scalar
    engine's per-candidate checks delegate here, and the vector engine's
    :class:`~repro.core.shard.LaneMatcher` evaluates it lane-wise.
    """
    if max_errors == 0:
        return (cs & pos_mask) == pos_mask and (cs & neg_mask) == 0
    mistakes = popcount((cs & pos_mask) ^ pos_mask)
    mistakes += popcount(cs & neg_mask)
    return mistakes <= max_errors


def max_errors_for(allowed_error: float, n_examples: int) -> int:
    """The example-misclassification budget of an ``allowed_error``
    fraction (validates the fraction; paper §5.2)."""
    if not 0.0 <= allowed_error < 1.0:
        raise ValueError("allowed_error must be in [0, 1)")
    return int(allowed_error * n_examples)


class SweepStopped(Exception):
    """Internal control-flow signal: the sweep ends with ``status`` —
    :data:`STATUS_BUDGET` once ``max_generated`` is hit, or the stop
    :meth:`SearchEngine._poll` reported."""

    def __init__(self, status: str) -> None:
        super().__init__(status)
        self.status = status


@dataclass(frozen=True)
class RunControl:
    """Everything a caller tells one :meth:`SearchEngine.run`.  Every
    field defaults to off; the engine holds the control only while the
    run executes.

    * ``on_level(cost, start, end)`` runs after each completed level
      with the cache range the level stored; a truthy return stops the
      sweep with :data:`STATUS_CANCELLED`.  Progress streaming plugs in
      here.
    * ``cancel`` and ``preempt`` are zero-argument truth-valued probes
      and ``deadline`` is a ``time.perf_counter()`` instant; see
      :meth:`SearchEngine._poll`.
    * ``on_checkpoint(records)`` is the checkpoint sink (see
      :data:`CHECKPOINT_EVERY_CANDIDATES`).
    * ``restored`` holds checkpoint records to adopt, at most one per
      cost, ascending from the seed cost.  The sweep adopts each where
      its level would begin — cache appends, solution scans and budget
      accounting included — and fast-forwards the level past the
      record's cursor; the first record that does not start where the
      engine stands ends the replay.  The adopted rows enter the
      seen-set in one bulk insert before the first candidate is
      enumerated, so a replay that ends on a solution or at the budget
      never builds it.
    * ``tracer`` (a :class:`repro.obs.trace.Tracer`) records checkpoint
      replay and save, per-level and shard fan-out spans; ``None``
      records nothing.
    """

    on_level: Optional[Callable[[int, int, int], object]] = None
    cancel: Optional[Callable[[], object]] = None
    preempt: Optional[Callable[[], object]] = None
    deadline: Optional[float] = None
    on_checkpoint: Optional[Callable[[List[Checkpoint]], object]] = None
    restored: Sequence[Checkpoint] = ()
    tracer: Optional[object] = None


#: The empty control: what an engine holds outside :meth:`SearchEngine.run`.
NO_CONTROL = RunControl()


class SearchEngine:
    """Shared cost-sweep machinery; see the module docstring."""

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
        if shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        self.spec = spec
        self.cost_fn = cost_fn
        self.universe = universe
        self.guide = guide
        self.max_cache_size = max_cache_size
        self.allowed_error = allowed_error
        self.max_errors = max_errors_for(allowed_error, spec.n_examples)
        self.use_guide_table = use_guide_table
        self.check_uniqueness = check_uniqueness
        self.max_generated = max_generated
        #: Intra-query parallelism: with ``shard_workers >= 2`` the pair
        #: emits of each cost level are partitioned across that many
        #: worker processes (see :mod:`repro.core.shard`); ``1`` is the
        #: serial code path, with no coordinator ever constructed.
        self.shard_workers = shard_workers
        #: Pair groups below this candidate count take the serial path
        #: even when sharding is on (round-trip cost dominates).
        self.shard_min_candidates = DEFAULT_SHARD_MIN_CANDIDATES
        self._shard_coordinator = None
        #: Batching parameters the shard workers mirror.  The base
        #: defaults match the vectorised engine's; engines with tuned
        #: kernels (VectorEngine) overwrite them from their own
        #: constructor arguments so worker-side batching always agrees
        #: with the engine's configuration.
        self._shard_max_batch = 1 << 17
        self._shard_split_block_bytes: Optional[int] = None

        self.pos_mask = universe.cs_of(spec.positive)
        self.neg_mask = universe.cs_of(spec.negative)

        # Statistics and outcome.
        self.generated = 0  # number of candidate CSs constructed ("# REs")
        #: Wall-clock seconds attributed to pipeline phases.  Engines
        #: that time their batched stages fill ``dedupe``/``solve``/
        #: ``store``; the serving layer adds ``staging`` and derives
        #: ``enumerate`` as the run's residual.  The scalar engine
        #: leaves these at zero (per-candidate timers would dominate its
        #: runtime), so its whole run reads as ``enumerate``.
        self.phase_seconds = {"dedupe": 0.0, "solve": 0.0, "store": 0.0}
        #: Per-level statistics: one dict per built cost level with keys
        #: ``cost``, ``generated``, ``stored`` and ``otf`` — the growth
        #: data behind the paper's exponential-blowup discussion.
        self.level_stats: List[dict] = []
        #: Pair groups that actually fanned out to the shard pool (0 on
        #: a serial run — the observable the tests and the serving
        #: layer's result extras use to tell the paths apart).
        self.sharded_emits = 0
        #: Pair groups re-executed serially because a shard worker died
        #: mid-round (sharding is disabled for the rest of the run after
        #: the first failover).
        self.shard_failovers = 0
        #: Cost levels adopted whole from checkpoint records instead of
        #: enumerated (see :attr:`RunControl.restored`).
        self.resumed_levels = 0
        #: Levels resumed mid-way from a record's cursor (0 or 1 per run).
        self.partial_resumes = 0
        self._restored: List[Checkpoint] = []
        #: The generation counter as each cost level started, ascending
        #: from the seed level (which starts at 2, after ∅ and ε) and
        #: including a level the run stopped in: what
        #: :meth:`_decode` bisects to find a candidate's level.
        self._level_starts: List[int] = []
        #: Cursor of the record adopted for the level being built (None
        #: when the level starts fresh); :meth:`_build_level` consumes it.
        self._level_skip: Optional[int] = None
        #: The first cache row adopted from a record that the seen-set
        #: does not hold yet (None when it holds every stored row);
        #: :meth:`_build_level` fills it before enumerating.
        self._unseen_from: Optional[int] = None
        # Safe-point bookkeeping (armed only while _build_level runs).
        self._safe_points_armed = False
        self._level_start_cache = 0
        self._level_start_generated = 0
        self._level_end_generated = 0
        # The checkpoint cadence: records queued since the last group,
        # as ``(cost, start, end, generated_total, level_progress)``
        # (cache bounds, not row copies), and the enumerated-work
        # counter and clock at the last group.
        self._queued: List[Tuple[int, int, int, int, int]] = []
        self._group_generated = 0
        self._group_monotonic = 0.0
        #: ``generated`` as the level being built began enumerating,
        #: past any candidates adopted for it: a stop record must go
        #: beyond it (:meth:`_queue_stop_record`).
        self._level_entered = 0
        #: Each level's emit steps, computed once (:meth:`_level_steps`).
        self._steps: Dict[int, List[Tuple[int, int, object]]] = {}
        self.status: Optional[str] = None
        #: The solution's provenance triple (see :meth:`_decode`).
        self.solution: Optional[Tuple[int, int, int]] = None
        self.solution_cost: Optional[int] = None
        self.levels_built = 0

        # OnTheFly bookkeeping.
        self.otf = False

        # Cost of the level currently being built (used when recording a
        # solution from inside a batch kernel).
        self._current_cost = cost_fn.literal

        #: The current run's :class:`RunControl` (:data:`NO_CONTROL`
        #: outside :meth:`run`, so no caller callback outlives its run).
        self._control = NO_CONTROL
        #: ``time.monotonic()`` timestamp of the current :meth:`run`
        #: (None before the first run).  Progress events derive their
        #: self-describing ``elapsed_s`` from this clock.
        self.run_started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------
    # Abstract surface (implemented by the scalar / vectorised engines)
    # ------------------------------------------------------------------
    def _seed_alphabet(self) -> bool:
        """Fill the cost-``c1`` level with the alphabet CSs; return True
        iff a solution was found while seeding."""
        raise NotImplementedError

    def _emit_unary(self, op: int, start: int, end: int) -> bool:
        """Build all ``op`` candidates from cached operands ``[start,
        end)``; return True iff a solution was found."""
        raise NotImplementedError

    def _emit_pairs(
        self,
        op: int,
        left: Tuple[int, int],
        right: Tuple[int, int],
        triangular: bool,
        skip: int = 0,
    ) -> bool:
        """Build all ``op`` candidates over the Cartesian product of two
        cached index ranges (upper-triangular, diagonal excluded, when
        ``triangular``), except the first ``skip`` (already adopted from
        a checkpoint record); return True iff a solution was found."""
        raise NotImplementedError

    def _emit_pair_group(
        self,
        op: int,
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]],
        skip: int = 0,
    ) -> bool:
        """Build all ``op`` candidates of one cost level — every
        ``(left, right, triangular)`` operand pairing, in order.

        Large groups of a sharded engine (``shard_workers >= 2``) are
        partitioned across the shard worker pool; everything else takes
        :meth:`_emit_pair_group_serial`.  Both paths produce the same
        enumeration-visible state, so the dispatch is invisible in the
        results.  A group entered with a mid-level resume offset
        (``skip > 0``) always runs serially — the offset is consumed
        once per run, and the serial path is bit-identical anyway.
        """
        if skip == 0 and self._sharding_applies(pairings):
            return self._emit_pair_group_sharded(op, pairings)
        return self._emit_pair_group_serial(op, pairings, skip)

    def _emit_pair_group_serial(
        self,
        op: int,
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]],
        skip: int = 0,
    ) -> bool:
        """The in-process emit of a pair group.

        The default runs the pairings one at a time; the vectorised
        engine overrides this to *fuse* the small pairings of a level
        into shared dedupe/solution-check/store batches (candidate order
        is unchanged, so results stay bit-identical).
        """
        for pairing in pairings:
            left, right, triangular = pairing
            if skip:
                count = _pair_candidates(pairing)
                if skip >= count:
                    skip -= count
                    continue
            pair_skip, skip = skip, 0
            if self._emit_pairs(op, left, right, triangular, pair_skip):
                return True
        return False

    # ------------------------------------------------------------------
    # Intra-query sharding (see repro.core.shard)
    # ------------------------------------------------------------------
    def _sharding_applies(
        self,
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]],
    ) -> bool:
        """Should this pair group fan out to the shard pool?

        Sharding requires an unbounded cache with uniqueness checking on
        (the OnTheFly transition and the no-dedupe ablation keep their
        serial semantics), a non-daemonic host process (daemons may not
        spawn children; the service pool's workers are daemonic and
        never shard, since a wire request always carries
        ``shard_workers = 1`` — this guard covers other daemonic
        embeddings), and enough candidates to amortise one coordinator
        round trip.
        """
        if (
            self.shard_workers < 2
            or self.otf
            or self.max_cache_size is not None
            or not self.check_uniqueness
        ):
            return False
        if sum(_pair_candidates(p) for p in pairings) < self.shard_min_candidates:
            return False
        if multiprocessing.current_process().daemon:
            return False
        return True

    def _emit_pair_group_sharded(
        self,
        op: int,
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]],
    ) -> bool:
        """Fan one pair group out to the shard pool and reconcile.

        A shard worker crashing mid-round is survivable: the coordinator
        mutates no engine state before :meth:`_apply_shard_outcome`, so
        the whole group is simply re-executed on the serial path
        (bit-identical by construction) and sharding is disabled for the
        rest of the run.
        """
        from .shard import ShardWorkerDied

        if self._shard_coordinator is None:
            self._shard_coordinator = self._make_shard_coordinator()
        remaining = (
            None
            if self.max_generated is None
            else self.max_generated - self.generated
        )
        tracer = self._control.tracer
        fan_span = (
            tracer.start("shard-fanout", op=op, shards=self.shard_workers)
            if tracer is not None
            else None
        )
        try:
            self._shard_coordinator.sync_rows(self._shard_rows, len(self.cache))
            outcome = self._shard_coordinator.emit_pair_group(
                op,
                pairings,
                remaining,
                span_parent=None if fan_span is None else fan_span.span_id,
            )
        except ShardWorkerDied:
            if fan_span is not None:
                tracer.finish(fan_span, failover=True)
            self._close_shards()
            self.shard_workers = 1
            self.shard_failovers += 1
            return self._emit_pair_group_serial(op, pairings)
        if fan_span is not None:
            tracer.adopt(outcome.spans)
            tracer.finish(fan_span, candidates=outcome.total)
        self.sharded_emits += 1
        return self._apply_shard_outcome(outcome)

    def _make_shard_coordinator(self):
        """Spawn the worker pool for this run (lazily, on first use)."""
        from .shard import ShardCoordinator

        return ShardCoordinator(
            self.universe,
            self.guide,
            int_to_lanes(self.pos_mask, self.universe.lanes),
            int_to_lanes(self.neg_mask, self.universe.lanes),
            self.max_errors,
            self.shard_workers,
            max_batch=self._shard_max_batch,
            split_block_bytes=self._shard_split_block_bytes,
            trace_id=getattr(self._control.tracer, "trace_id", None),
        )

    def _shard_rows(self, start: int, end: int):
        """Cache rows ``[start, end)`` as a packed uint64 matrix (the
        shard workers' mirror feed)."""
        raise NotImplementedError

    def _apply_shard_outcome(self, outcome) -> bool:
        """Reconcile a :class:`~repro.core.shard.ShardOutcome` into the
        engine state (authoritative dedupe + store + counters); return
        True iff the group produced the run's solution."""
        raise NotImplementedError

    def _close_shards(self) -> None:
        """Tear down the shard pool (no-op when none was spawned)."""
        if self._shard_coordinator is not None:
            self._shard_coordinator.close()
            self._shard_coordinator = None

    @property
    def cache(self):
        """The engine's language cache (has ``levels``, ``ordinals`` and
        ``__len__``)."""
        raise NotImplementedError

    @property
    def provenance(self) -> "Provenance":
        """The cache rows' ``(op, left, right)`` triples, row-indexable."""
        return Provenance(self)

    # ------------------------------------------------------------------
    # Checkpointing (abstract half; see the shared half below)
    # ------------------------------------------------------------------
    def _level_payload(self, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cache range ``[start, end)`` as ``(rows, ordinals)`` in the
        packed interchange format."""
        raise NotImplementedError

    def _adopt_restored(self, payload: Checkpoint, lo: int, hi: int) -> None:
        """Append rows ``[lo, hi)`` of a checkpoint record to the cache,
        exactly as enumeration would have stored them.  The seen-set is
        left alone: :meth:`_fill_seen` adds the rows once a run goes on
        to enumerate."""
        raise NotImplementedError

    def _fill_seen(self, start: int, end: int) -> None:
        """Insert cache rows ``[start, end)`` into the seen-set.  Stored
        rows are distinct from each other and from every key the set
        holds, so no row needs a probe."""
        raise NotImplementedError

    def _scan_restored(self, payload: Checkpoint, limit: int) -> Optional[int]:
        """Index of the first row in ``[0, limit)`` of a checkpoint
        record that satisfies the spec, or None."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Solution predicate on int CSs (engines may vectorise their own)
    # ------------------------------------------------------------------
    def solves_int(self, cs: int) -> bool:
        """Does this CS satisfy the (possibly error-relaxed) spec?"""
        return cs_solves(cs, self.pos_mask, self.neg_mask, self.max_errors)

    def _record_solution(self) -> None:
        """The candidate counted last (ordinal ``generated``) solves the
        spec: the one path every engine, the shard merge and the
        checkpoint replay record a solution through."""
        self.solution = self._decode(self.generated)
        self.solution_cost = self._current_cost
        self.status = STATUS_SUCCESS

    # ------------------------------------------------------------------
    # The sweep (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self, max_cost: int, control: Optional[RunControl] = None) -> str:
        """Sweep costs up to ``max_cost`` under ``control`` (None: no
        hooks); returns the final status.

        Stop requests are polled at run start, at every emit-loop safe
        point and at every level end (:meth:`_poll`), so a cancel, a
        passed deadline or a preemption ends the run within one emit
        batch.  Whatever the status, the records queued since the last
        group are handed to :attr:`RunControl.on_checkpoint` before the
        run returns.
        """
        control = NO_CONTROL if control is None else control
        if control.restored and (
            self.generated or self.levels_built or len(self.cache)
        ):
            raise RuntimeError("restored records must precede the sweep")
        self._control = control
        self._restored = list(control.restored)
        self.run_started_monotonic = time.monotonic()
        self._group_generated = self.generated
        self._group_monotonic = self.run_started_monotonic
        try:
            try:
                self._run(max_cost)
            except SweepStopped as stop:
                self.status = stop.status
            self._hand_over("checkpoint-save")
            return self.status
        finally:
            # Shard workers live for one run; engines are per-request
            # objects, so the pool must not outlive the sweep.
            self._close_shards()
            self._control = NO_CONTROL

    @property
    def elapsed_s(self) -> float:
        """Monotonic seconds since the current run started (0.0 before)."""
        if self.run_started_monotonic is None:
            return 0.0
        return time.monotonic() - self.run_started_monotonic

    def _check_budget(self) -> None:
        """Abort the sweep once ``max_generated`` candidates were built."""
        if self.max_generated is not None and self.generated >= self.max_generated:
            raise SweepStopped(STATUS_BUDGET)

    def _poll(self) -> Optional[str]:
        """The stop the caller requested, or None: ``cancelled`` once
        the cancel probe fired or the deadline passed, ``preempted``
        once the preemption probe fired.  The one polling site, called
        at run start, at every emit-loop safe point and at every level
        end."""
        control = self._control
        if control.cancel is not None and control.cancel():
            return STATUS_CANCELLED
        if control.deadline is not None and time.perf_counter() > control.deadline:
            return STATUS_CANCELLED
        if control.preempt is not None and control.preempt():
            return STATUS_PREEMPTED
        return None

    def _stop(self, status: str) -> None:
        """Hand every queued record over, then end the run with
        ``status``."""
        self._hand_over("partial-save")
        raise SweepStopped(status)

    def _after_level(self, cost: int, start: int, end: int) -> None:
        """Run the level hook, then poll for a stop.  The level's end
        record is already queued, so a stop here needs no in-level
        record."""
        on_level = self._control.on_level
        if on_level is not None and on_level(cost, start, end):
            self._stop(STATUS_CANCELLED)
        status = self._poll()
        if status is not None:
            self._stop(status)

    # ------------------------------------------------------------------
    # Checkpointing (shared half)
    # ------------------------------------------------------------------
    @property
    def replayable(self) -> bool:
        """Do this engine's checkpoint records replay in another run?
        Not with a bounded cache (OnTheFly mode changes what is stored)
        or with dedupe off (the stored sequence is no longer the
        canonical first-occurrence one)."""
        return self.max_cache_size is None and self.check_uniqueness

    def _queue_record(self, generated: Optional[int] = None) -> None:
        """Queue the level being built, up to candidate ``generated``
        (default: the current point); the cache holds every row the
        level stored up to it."""
        if self._control.on_checkpoint is None:
            return
        if generated is None:
            generated = self.generated
        self._queued.append(
            (
                self._current_cost,
                self._level_start_cache,
                len(self.cache),
                generated,
                generated - self._level_start_generated,
            )
        )

    def _queue_stop_record(self, generated: int) -> None:
        """The rule for a run that ends inside a level — a stop, its
        budget or a solution: queue the level up to candidate
        ``generated``, the last one it stored or counted, so a later
        run over the same universe replays that far instead of
        re-enumerating it.  Not in the seed level (:meth:`_build_level`
        cannot resume inside the alphabet step), not once OnTheFly mode
        stopped storing rows, and not when the record would hold no
        candidate past those the run adopted for the level."""
        if (
            self._safe_points_armed
            and not self.otf
            and generated > self._level_entered
        ):
            self._queue_record(generated)

    def _group_due(self) -> bool:
        """Is a sink armed, with a cadence interval of enumerated work
        passed since the last group?"""
        return self._control.on_checkpoint is not None and (
            self.generated - self._group_generated >= CHECKPOINT_EVERY_CANDIDATES
            or time.monotonic() - self._group_monotonic >= CHECKPOINT_EVERY_S
        )

    def _hand_over(self, span: str) -> None:
        """Hand every queued record to :attr:`RunControl.on_checkpoint`
        as one group.

        The payloads are built here, from the cache bounds each record
        was queued with.  ``span`` names the trace span of the write:
        ``checkpoint-save`` at a level end or the run's end,
        ``partial-save`` at a safe point or a stop.
        """
        self._group_generated = self.generated
        self._group_monotonic = time.monotonic()
        queued, self._queued = self._queued, []
        if not queued:
            return
        with self._span(span, cost=queued[-1][0], records=len(queued)):
            self._control.on_checkpoint(
                [
                    Checkpoint(
                        cost,
                        *self._level_payload(start, end),
                        generated_total=int(generated_total),
                        level_progress=int(level_progress),
                    )
                    for cost, start, end, generated_total, level_progress in queued
                ]
            )

    def _span(self, name: str, **args):
        """A trace span around a block (a no-op when untraced)."""
        tracer = self._control.tracer
        if tracer is None:
            return nullcontext()
        return tracer.span(name, **args)

    def _safe_point(self) -> None:
        """Emit-loop safe point: candidates so far are fully stored.

        Engines call this at batch boundaries (the vector engine's
        accumulator is empty, the scalar engine between candidates).  A
        requested stop ends the sweep here after handing over the queued
        records plus an in-level one; otherwise the same group goes out
        when the checkpoint cadence is due.
        """
        if (
            not self._safe_points_armed
            or self.otf
            or self.generated >= self._level_end_generated
        ):
            # OnTheFly mode stops storing rows, so a record could no
            # longer describe the level; a stop then waits for the
            # level boundary.  A complete level's last safe point is
            # left to its end, which follows at once with the same
            # checks and writes the level-end record instead.
            return
        status = self._poll()
        if status is not None:
            self._queue_stop_record(self.generated)
            self._stop(status)
        if self._group_due():
            self._queue_record()
            self._hand_over("partial-save")

    def _adopt_checkpoint(self, cost: int) -> Optional[Checkpoint]:
        """Adopt the restored record of ``cost`` if it starts where the
        engine stands; returns it, or None once the replay has ended.

        Mirrors enumeration exactly: a restored row that satisfies the
        spec becomes the solution (the rows before it adopted, as if
        enumeration had stopped there), and a generation budget landing
        inside the record adopts the in-budget prefix and stops the
        sweep with :data:`STATUS_BUDGET`.  Otherwise every row is adopted and
        the level's build fast-forwards past the record's cursor.
        """
        if not self._restored:
            return None
        record = self._restored.pop(0)
        if (
            record.cost != cost
            or record.generated_total - record.level_progress != self.generated
        ):
            self._restored = []  # a gap or a stale record: enumerate
            return None
        n = int(record.ordinals.shape[0])
        adopted_from = self.generated
        if self._unseen_from is None:
            self._unseen_from = len(self.cache)
        replay_started = time.monotonic()
        with self._span("checkpoint-replay", cost=cost, rows=n):
            budget = self.max_generated
            cut = n
            if budget is not None:
                cut = int(np.searchsorted(record.ordinals, budget, side="right"))
            hit = self._scan_restored(record, cut)
            if hit is not None:
                self._adopt_restored(record, 0, hit)
                self.generated = int(record.ordinals[hit])
                self._record_solution()
            elif budget is not None and record.generated_total >= budget:
                self._adopt_restored(record, 0, cut)
                self.generated = budget
                raise SweepStopped(STATUS_BUDGET)
            else:
                self._adopt_restored(record, 0, n)
                self.generated = record.generated_total
                self._level_skip = record.level_progress
        # Adopted candidates, and the time spent replaying them, are not
        # enumerated work: the checkpoint cadence skips over them.
        self._group_generated += self.generated - adopted_from
        self._group_monotonic += time.monotonic() - replay_started
        return record

    def _run(self, max_cost: int) -> str:
        # An already-stopped run (a job cancelled while queued, or a
        # control bit set before the sweep began) exits before doing any
        # seeding work.
        status = self._poll()
        if status is not None:
            self._stop(status)
        c1 = self.cost_fn.literal
        self._current_cost = c1
        if self._check_trivials(c1):
            return self.status
        # The literal level is seeded even when max_cost lies below it.
        for cost in range(c1, max(c1, max_cost) + 1):
            if self.otf and not self._otf_can_build(cost):
                self.status = STATUS_OOM
                return self.status
            start = len(self.cache)
            generated_before = self.generated
            self._current_cost = cost
            self._level_start_cache = start
            self._level_start_generated = generated_before
            self._level_starts.append(generated_before)
            record = self._adopt_checkpoint(cost)
            solved = self.status == STATUS_SUCCESS or self._build(cost)
            if cost != c1:
                self.level_stats.append(
                    {
                        "cost": cost,
                        "generated": self.generated - generated_before,
                        "stored": len(self.cache) - start,
                        "otf": self.otf,
                    }
                )
            if solved:
                return self.status
            self.levels_built += 1
            if cost == c1 or not self.otf:
                # The seed level is marked even when it overflowed a
                # bounded cache: OnTheFly mode builds on it.
                self.cache.levels.mark(cost, start, len(self.cache))
            if record is not None and self.generated == record.generated_total:
                # The record was the level's end: nothing new to write.
                self.resumed_levels += 1
            elif not self.otf:
                self._queue_record()
            if self._group_due():
                self._hand_over("checkpoint-save")
            self._after_level(cost, start, len(self.cache))
        self.status = STATUS_NOT_FOUND
        return self.status

    def _check_trivials(self, c1: int) -> bool:
        """Check the two cost-``c1`` pseudo-candidates ``∅`` and ``ε``.

        For precise synthesis these reduce to the paper's lines 4–5 of
        Algorithm 1 (``P = {}`` and ``P = {ε}``); with ``allowed_error``
        they additionally realise rows like the 50%-error ``∅`` of the
        paper's §5.2 table.
        """
        self.generated += 1
        if self.solves_int(0):
            self._record_solution()
            return True
        self.generated += 1
        if self.solves_int(self.universe.eps_bit):
            self._record_solution()
            return True
        return False

    def _otf_can_build(self, cost: int) -> bool:
        """In OnTheFly mode: can level ``cost`` still be enumerated
        completely from fully-cached levels?

        The deepest operand level any constructor needs is
        ``cost - min(c2, c3, c4 + c1, c5 + c1)`` (cf. the paper's "if the
        cost of all regular constructors is > 55 ... needs only CSs of
        target cost minus 55").
        """
        last = self.cache.levels.last_complete_cost
        if last is None:
            return False
        return cost - self.cost_fn.min_constructor_cost <= last

    def _build(self, cost: int) -> bool:
        """:meth:`_build_level` with safe points armed past the seed
        level (seeding has none).  A solution or a budget that ends the
        run inside the level queues its record up to the candidate
        before the solution, or up to the budget
        (:meth:`_queue_stop_record`), for the run-end group to journal."""
        self._safe_points_armed = cost != self.cost_fn.literal and not self.otf
        self._level_entered = self.generated
        try:
            if self._control.tracer is None:
                solved = self._build_level(cost)
            else:
                solved = self._build_level_traced(cost)
            if solved:
                self._queue_stop_record(self.generated - 1)
            return solved
        except SweepStopped as stop:
            if stop.status == STATUS_BUDGET:
                self._queue_stop_record(self.generated)
            raise
        finally:
            self._safe_points_armed = False

    def _build_level_traced(self, cost: int) -> bool:
        """:meth:`_build_level` inside a span, with the level's
        dedupe/solve/store phase-timer deltas attached at completion —
        the per-level split the coarse run-total ``phase_seconds``
        cannot give."""
        tracer = self._control.tracer
        phases_before = dict(self.phase_seconds)
        generated_before = self.generated
        stored_before = len(self.cache)
        span = tracer.start(
            "seed-level" if cost == self.cost_fn.literal else "level", cost=cost
        )
        try:
            return self._build_level(cost)
        finally:
            deltas = {
                name + "_s": round(
                    self.phase_seconds[name] - phases_before.get(name, 0.0), 9
                )
                for name in self.phase_seconds
            }
            tracer.finish(
                span,
                generated=self.generated - generated_before,
                stored=len(self.cache) - stored_before,
                **deltas,
            )

    def _build_level(self, cost: int) -> bool:
        """Build every candidate of ``cost`` (see :meth:`_level_steps`).

        After a checkpoint record of ``cost`` was adopted,
        ``self._level_skip`` holds its cursor: whole emit steps are
        skipped structurally (their candidate counts are closed-form),
        and the step containing the cursor is entered with the residual
        offset — rework is bounded by one kernel batch, never a whole
        step.  A cursor at the level's end skips every step.
        """
        skip = self._level_skip
        self._level_skip = None
        steps = self._level_steps(cost)
        self._level_end_generated = self._level_start_generated + sum(
            count for _, count, _ in steps
        )
        for op, count, operands in steps:
            offset = 0
            if skip is not None:
                if skip >= count:
                    skip -= count
                    continue
                offset, skip = skip, None
                self.partial_resumes += 1
            if self._unseen_from is not None:
                # The first enumerated candidate needs the adopted rows.
                start, self._unseen_from = self._unseen_from, None
                if self.check_uniqueness:
                    self._fill_seen(start, len(self.cache))
            if op == OP_CHAR:
                solved = self._seed_alphabet()
            elif op in (OP_QUESTION, OP_STAR):
                solved = self._emit_unary(op, operands[0] + offset, operands[1])
            else:
                solved = self._emit_pair_group(op, operands, offset)
            if solved:
                return True
            self._safe_point()
        return False

    def _level_steps(self, cost: int) -> List[Tuple[int, int, object]]:
        """Level ``cost``'s emit steps in enumeration order, as ``(op,
        candidates, operands)``: the alphabet at the literal cost, else
        ``?`` and ``*`` over one operand range, then ``·`` and ``+``
        over operand-level pairings (line 12 of Algorithm 1).  They
        depend only on the complete levels below ``cost``, which do not
        change once it starts, so each level's are computed once."""
        steps = self._steps.get(cost)
        if steps is not None:
            return steps
        steps = self._steps[cost] = []
        cf = self.cost_fn
        c1 = cf.literal
        if cost == c1:
            steps.append((OP_CHAR, len(self.universe.alphabet), None))
            return steps
        levels = self.cache.levels
        for op, op_cost in ((OP_QUESTION, cf.question), (OP_STAR, cf.star)):
            bounds = levels.bounds(cost - op_cost)
            if bounds is not None and bounds[0] < bounds[1]:
                steps.append((op, bounds[1] - bounds[0], bounds))
        for op, op_cost in ((OP_CONCAT, cf.concat), (OP_UNION, cf.union)):
            budget = cost - op_cost
            pairings = []
            for left_cost in levels.costs():
                right_cost = budget - left_cost
                # Concatenation takes every ordered pair (L, R) with
                # L + R = budget.  Union is commutative, so only L ≤ R
                # (and i < j on the diagonal — ``r + r`` never yields a
                # new CS nor a new solution, since ``r`` itself was
                # checked when first constructed).
                if right_cost < (left_cost if op == OP_UNION else c1):
                    break
                left = levels.bounds(left_cost)
                right = levels.bounds(right_cost)
                if left and right and left[0] < left[1] and right[0] < right[1]:
                    pairings.append(
                        (left, right, op == OP_UNION and left_cost == right_cost)
                    )
            if pairings:
                steps.append(
                    (op, sum(_pair_candidates(p) for p in pairings), pairings)
                )
        return steps

    def _decode(self, ordinal: int) -> Tuple[int, int, int]:
        """The ``(op, left, right)`` triple of the ``ordinal``-th
        candidate (1-based) — enumeration order read backwards.

        Ordinals 1 and 2 are ``∅`` and ``ε``.  Any other candidate's
        level is the last one whose generation start lies below it;
        the level's steps (:meth:`_level_steps`, which depends only on
        the complete levels below it) then place it: an alphabet index,
        a unary operand, or a pairing's ``(i, j)``.  Operands are cache
        indices, and CHAR's ``left`` an alphabet index.
        """
        if ordinal <= 2:
            return (OP_EMPTY if ordinal == 1 else OP_EPSILON), -1, -1
        level = bisect.bisect_left(self._level_starts, ordinal) - 1
        offset = ordinal - 1 - self._level_starts[level]
        for op, count, operands in self._level_steps(self.cost_fn.literal + level):
            if offset >= count:
                offset -= count
            elif op == OP_CHAR:
                return op, offset, -1
            elif op in (OP_QUESTION, OP_STAR):
                return op, operands[0] + offset, -1
            else:
                for pairing in operands:
                    count = _pair_candidates(pairing)
                    if offset < count:
                        return (op,) + _pair_at(pairing, offset)
                    offset -= count
        raise ValueError("candidate %d was not generated" % ordinal)


def _pair_candidates(
    pairing: Tuple[Tuple[int, int], Tuple[int, int], bool]
) -> int:
    """Candidate count of one ``(left, right, triangular)`` pairing —
    the closed form the mid-level fast-forward skips whole steps with."""
    (l0, l1), (r0, r1), triangular = pairing
    if triangular:
        n = l1 - l0
        return n * (n - 1) // 2
    return (l1 - l0) * (r1 - r0)


def _pair_at(
    pairing: Tuple[Tuple[int, int], Tuple[int, int], bool], offset: int
) -> Tuple[int, int]:
    """The operand cache indices of candidate ``offset`` of a pairing:
    :func:`_pair_candidates`' inverse.  Pairs run i-major; a triangular
    pairing's row ``i`` holds ``j = i+1 .. n-1`` and starts at offset
    ``i(2n-1-i)/2``, so ``i`` is the floor of that quadratic's root (an
    integer square root, off by at most one, corrected)."""
    (l0, l1), (r0, r1), triangular = pairing
    if not triangular:
        i, j = divmod(offset, r1 - r0)
        return l0 + i, r0 + j
    n2 = 2 * (l1 - l0) - 1
    i = (n2 - math.isqrt(n2 * n2 - 8 * offset)) // 2
    if i * (n2 - i) // 2 > offset:
        i -= 1
    return l0 + i, l0 + i + 1 + offset - i * (n2 - i) // 2


class Provenance:
    """Row-indexable ``(op, left, right)`` triples of an engine's cache —
    the paper's auxiliary data that turns a CS back into a regex — each
    decoded from the row's generation ordinal when it is read, so
    :func:`repro.core.reconstruct.reconstruct` touches only a
    solution's few dozen ancestors."""

    __slots__ = ("_engine",)

    def __init__(self, engine: SearchEngine) -> None:
        self._engine = engine

    def __len__(self) -> int:
        return len(self._engine.cache)

    def __getitem__(self, index: int) -> Tuple[int, int, int]:
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._engine._decode(int(self._engine.cache.ordinals[index]))
