"""The session and serving layer: staged-artifact reuse and batching.

The paper's staging insight is that the universe ``ic(P ∪ N)``, the
guide table and its flattened numpy view depend only on the example
*strings* — never on the cost function or the search configuration.  A
:class:`Session` makes that insight a serving primitive: staging is
cached keyed by the deduplicated example-string set (plus alphabet), so
any number of requests over the same strings pay the staging cost once.

:meth:`Session.synthesize_many` goes one step further.  The enumeration
sweep itself — which candidates are built, in which order, and which
survive dedupe into the cache — depends only on ``(universe, cost
function)``; the specification is consulted *only* to decide when to
stop.  So requests that share a universe and a cost function are served
from **one** shared sweep: an enumeration-only engine builds the cost
levels, and after each level every still-open request scans the newly
stored CSs for its own first satisfying candidate.  Because the first
satisfying candidate of a spec can never be a duplicate of an earlier
CS (its earlier occurrence would already have satisfied the spec), the
answer each request receives is bit-identical to what a solo
:func:`repro.synthesize` call returns — the property the test-suite and
``BENCH_session.json`` both assert.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bitops import int_to_lanes, popcount_rows
from ..core.cache import PackedCache
from ..core.engine import (
    OP_EMPTY,
    OP_EPSILON,
    STATUS_BUDGET,
    STATUS_NOT_FOUND,
    STATUS_PREEMPTED,
    STATUS_SUCCESS,
    RunControl,
    SearchEngine,
    cs_solves,
    max_errors_for,
)
from ..core.reconstruct import reconstruct
from ..core.result import SynthesisResult
from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..obs.export import trace_payload
from ..obs.trace import TraceContext, Tracer
from ..regex.cost import CostFunction
from ..spec import Spec
from .config import EngineConfig, SynthesisRequest
from .progress import ProgressEvent
from .registry import default_registry

#: Staging cache key: the deduplicated example-string set and the
#: alphabet (both determine ``ic(P ∪ N)`` and hence the guide table).
StagingKey = Tuple[frozenset, Tuple[str, ...]]


@dataclass
class SessionStats:
    """Bookkeeping of what the session amortised."""

    staging_builds: int = 0
    staging_hits: int = 0
    requests_served: int = 0
    batch_groups: int = 0
    batch_requests: int = 0


def staging_key_of(spec: Spec) -> StagingKey:
    """The staging-cache key of a specification."""
    return (frozenset(spec.all_words), spec.alphabet)


def _phase_breakdown(
    engine: SearchEngine, staging_seconds: float, elapsed: float
) -> Dict[str, float]:
    """Per-phase wall-clock of one run, for perf-attribution artifacts.

    ``dedupe``/``solve``/``store`` come from the engine's own batch
    timers (zero for engines that do not time themselves, e.g. the
    scalar engine); ``staging`` is the session-side staging resolution
    (near zero on a warm hit); ``enumerate`` is the run's residual —
    kernel and emit time for the vectorised engine, everything for the
    scalar one.
    """
    phases = dict(engine.phase_seconds)
    phases["staging"] = staging_seconds
    phases["enumerate"] = max(
        0.0, elapsed - sum(engine.phase_seconds.values())
    )
    # ``total`` covers everything listed, so phase shares sum to ~1.
    phases["total"] = staging_seconds + elapsed
    return phases


def _tracer_for(request: SynthesisRequest, config: EngineConfig):
    """Resolve a request's tracer: ``(tracer, session_owns_it)``.

    A live tracer handed in (the pool worker's) wins; otherwise tracing
    activates when the request carries a trace context or the config
    asks for it, and the *session* owns the tracer — it drains the
    spans into ``result.extra["trace"]`` itself.  ``(None, False)`` is
    the untraced fast path.
    """
    if request.tracer is not None:
        return request.tracer, False
    if request.trace_ctx is None and not config.trace:
        return None, False
    ctx = request.trace_ctx or TraceContext.mint()
    return (
        Tracer(ctx.trace_id, process="session", parent_span_id=ctx.parent_span_id),
        True,
    )


class Session:
    """A reusable synthesis context with cached staging.

    Construct once, serve many requests::

        session = Session(EngineConfig(backend="vector"))
        first = session.synthesize(spec_a)                  # builds staging
        second = session.synthesize(SynthesisRequest(
            spec=spec_a, cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1))))
        # second reused the staged universe/guide table: stats.staging_hits == 1

    ``max_staged`` bounds the staging cache (least-recently-used
    eviction); ``None`` keeps every staging alive for the session's
    lifetime.  Backend names resolve through
    :func:`~repro.api.registry.default_registry`.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        max_staged: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.max_staged = max_staged
        self.stats = SessionStats()
        self._staged: "OrderedDict[StagingKey, Tuple[Universe, GuideTable]]" = (
            OrderedDict()
        )
        # Fail fast on a bad default backend name.
        default_registry().resolve(self.config.backend)

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def staging_for(self, spec: Spec) -> Tuple[Universe, GuideTable]:
        """The staged ``(universe, guide table)`` for a spec's strings.

        Built on first use — including the flattened numpy view the
        vectorised kernels gather from — then shared by every request
        whose deduplicated example-string set (and alphabet) matches.
        """
        key = staging_key_of(spec)
        staged = self._staged.get(key)
        if staged is not None:
            self._staged.move_to_end(key)
            self.stats.staging_hits += 1
            return staged
        universe = Universe(spec.all_words, alphabet=spec.alphabet)
        guide = GuideTable(universe)
        guide.flat  # materialise the FlatGuideTable as part of staging
        self.stats.staging_builds += 1
        self._remember(key, (universe, guide))
        return universe, guide

    def _remember(self, key: StagingKey, staged) -> None:
        """Insert into the staging cache, honouring the LRU bound.

        The one place the cache-insert policy lives — store-backed
        sessions reuse it when adopting artifacts loaded from disk.
        """
        self._staged[key] = staged
        if self.max_staged is not None and len(self._staged) > self.max_staged:
            self._staged.popitem(last=False)

    def clear(self) -> None:
        """Drop every staged artifact (stats are kept)."""
        self._staged.clear()

    # ------------------------------------------------------------------
    # Single-request serving
    # ------------------------------------------------------------------
    def make_engine(
        self,
        request: SynthesisRequest,
        universe: Optional[Universe] = None,
        guide: Optional[GuideTable] = None,
    ) -> SearchEngine:
        """Construct (but do not run) the engine a request resolves to."""
        request = SynthesisRequest.of(request)
        config = request.config if request.config is not None else self.config
        info = default_registry().resolve(config.backend)
        if universe is None and guide is None:
            universe, guide = self.staging_for(request.spec)
        else:
            if universe is None:
                universe = Universe(
                    request.spec.all_words, alphabet=request.spec.alphabet
                )
            if guide is None:
                guide = GuideTable(universe)
        max_generated = (
            request.max_generated
            if request.max_generated is not None
            else config.max_generated
        )
        return info.factory(
            request.spec,
            request.effective_cost_fn(),
            universe,
            guide,
            max_cache_size=config.max_cache_size,
            allowed_error=request.allowed_error,
            use_guide_table=config.use_guide_table,
            check_uniqueness=config.check_uniqueness,
            max_generated=max_generated,
            shard_workers=config.shard_workers,
        )

    def _durability(self, engine: SearchEngine, control: RunControl) -> RunControl:
        """The run control with durable checkpoints added (here: the
        control unchanged).

        Called once per engine, right before ``run``.
        :class:`~repro.service.store.StoreBackedSession` overrides it to
        restore records from its checkpoint store and to arm the
        journal as the checkpoint sink.
        """
        return control

    def synthesize(
        self,
        request,
        universe: Optional[Universe] = None,
        guide: Optional[GuideTable] = None,
    ) -> SynthesisResult:
        """Serve one request (a :class:`SynthesisRequest`, a
        :class:`Spec`, or a ``(positives, negatives)`` pair).

        Explicit ``universe``/``guide`` arguments bypass the staging
        cache — the escape hatch :class:`~repro.core.incremental.
        IncrementalSynthesizer` uses for superset-universe reuse.
        """
        request = SynthesisRequest.of(request)
        config = request.config if request.config is not None else self.config
        info = default_registry().resolve(config.backend)
        cost_fn = request.effective_cost_fn()
        max_cost = request.effective_max_cost(cost_fn)
        tracer, owns_tracer = _tracer_for(request, config)
        staging_started = time.perf_counter()
        if universe is None and guide is None:
            if tracer is None:
                universe, guide = self.staging_for(request.spec)
            else:
                with tracer.span("staging"):
                    universe, guide = self.staging_for(request.spec)
        staging_seconds = time.perf_counter() - staging_started
        engine = self.make_engine(request, universe=universe, guide=guide)

        started = time.perf_counter()
        stream = None
        if request.on_progress is not None:
            callback = request.on_progress

            def stream(cost: int, start: int, end: int) -> bool:
                callback(
                    ProgressEvent(
                        cost=cost,
                        generated=engine.generated,
                        stored=len(engine.cache),
                        elapsed_seconds=time.perf_counter() - started,
                        elapsed_s=engine.elapsed_s,
                    )
                )
                return False

        control = RunControl(
            on_level=stream,
            cancel=request.cancel,
            preempt=request.preempt,
            deadline=(
                None if request.time_limit is None else started + request.time_limit
            ),
            tracer=tracer,
        )
        status = engine.run(max_cost, self._durability(engine, control))
        elapsed = time.perf_counter() - started

        result = SynthesisResult(
            status=status,
            spec=request.spec,
            backend=info.name,
            cost_function=cost_fn.as_tuple(),
            allowed_error=request.allowed_error,
            max_cost=max_cost,
            generated=engine.generated,
            unique_cs=len(engine.cache),
            universe_size=engine.universe.n_words,
            padded_bits=engine.universe.padded_bits,
            levels_built=engine.levels_built,
            elapsed_seconds=elapsed,
            extra={
                "level_stats": engine.level_stats,
                "sharded_emits": engine.sharded_emits,
                "resumed_levels": engine.resumed_levels,
                "shard_failovers": engine.shard_failovers,
                "partial_resumes": engine.partial_resumes,
                "phase_seconds": _phase_breakdown(
                    engine, staging_seconds, elapsed
                ),
            },
        )
        plane_stats = getattr(engine.cache, "plane_stats", None)
        if plane_stats is not None:
            result.extra["plane_stats"] = dict(plane_stats)
        if owns_tracer:
            result.extra["trace"] = trace_payload(
                tracer.trace_id, tracer.drain()
            )
        if status == STATUS_SUCCESS:
            result.regex = reconstruct(
                engine.solution,
                engine.cache.provenance_lookup,
                engine.universe.alphabet,
            )
            result.cost = engine.solution_cost
        self.stats.requests_served += 1
        # A preempted run has no final answer to announce — the job is
        # going back in the queue, so no ``done`` event is emitted (the
        # eventual completed attempt emits it).
        if request.on_progress is not None and status != STATUS_PREEMPTED:
            request.on_progress(
                ProgressEvent(
                    cost=engine._current_cost,
                    generated=engine.generated,
                    stored=len(engine.cache),
                    elapsed_seconds=elapsed,
                    done=True,
                    incumbent=result,
                    elapsed_s=engine.elapsed_s,
                )
            )
        return result

    # ------------------------------------------------------------------
    # Batched multi-request serving
    # ------------------------------------------------------------------
    def synthesize_many(self, requests: Iterable[object]) -> List[SynthesisResult]:
        """Serve many requests, sharing work wherever it is shareable.

        Requests are grouped by ``(example-string set, alphabet, cost
        function, engine config)``; each group of two or more is served
        from one shared enumeration sweep (see the module docstring),
        the rest individually — but still through the staging cache.
        Results come back in request order, each bit-identical to a solo
        :meth:`synthesize` of the same request.
        """
        reqs = [SynthesisRequest.of(r) for r in requests]
        results: List[Optional[SynthesisResult]] = [None] * len(reqs)
        groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        solo: List[int] = []
        for i, req in enumerate(reqs):
            key = self._batch_key(req)
            if key is None:
                solo.append(i)
            else:
                groups.setdefault(key, []).append(i)
        for members in groups.values():
            if len(members) < 2:
                solo.extend(members)
                continue
            self._serve_batch([reqs[i] for i in members], members, results)
            self.stats.batch_groups += 1
            self.stats.batch_requests += len(members)
        for i in sorted(solo):
            results[i] = self.synthesize(reqs[i])
        return results  # type: ignore[return-value]

    def _batch_key(self, request: SynthesisRequest) -> Optional[tuple]:
        """The sweep-sharing group of a request, or None if it must be
        served solo (hooks, private budgets, bounded caches, tracing, or
        a backend without the ``batch-serving`` capability).  Traced
        requests stay solo so every span on a timeline belongs to
        exactly one request."""
        config = request.config if request.config is not None else self.config
        info = default_registry().resolve(config.backend)
        if (
            request.on_progress is not None
            or request.cancel is not None
            or request.preempt is not None
            or request.time_limit is not None
            or request.max_generated is not None
            or request.trace_ctx is not None
            or request.tracer is not None
            or config.trace
            or config.max_cache_size is not None
            or config.max_generated is not None
            or not info.supports("batch-serving")
        ):
            return None
        cost_fn = request.effective_cost_fn()
        # Normalise the backend to its canonical name so alias spellings
        # ("gpu" vs "vector") share one sweep group.
        return (
            staging_key_of(request.spec),
            config.replace(backend=info.name),
            cost_fn.as_tuple(),
        )

    def _serve_batch(
        self,
        requests: Sequence[SynthesisRequest],
        indices: Sequence[int],
        results: List[Optional[SynthesisResult]],
    ) -> None:
        """Serve a shared-universe, shared-cost-function group from one
        enumeration-only sweep."""
        config = requests[0].config if requests[0].config is not None else self.config
        info = default_registry().resolve(config.backend)
        cost_fn = requests[0].effective_cost_fn()
        staging_started = time.perf_counter()
        universe, guide = self.staging_for(requests[0].spec)
        staging_seconds = time.perf_counter() - staging_started
        probe = requests[0].replace(
            allowed_error=0.0, on_progress=None, cancel=None, time_limit=None
        )
        engine = self.make_engine(probe, universe=universe, guide=guide)
        engine.disable_solution_checks()
        packed = isinstance(engine.cache, PackedCache)

        started = time.perf_counter()
        queries = [
            _BatchQuery(request, universe, cost_fn, packed) for request in requests
        ]
        pending: List[_BatchQuery] = []
        for query in queries:
            if not query.check_trivials(universe, cost_fn.literal, started):
                pending.append(query)

        if pending:
            c1 = cost_fn.literal

            def scan_level(cost: int, start: int, end: int) -> bool:
                still: List[_BatchQuery] = []
                for query in pending:
                    # The solo sweep seeds (and solution-checks) the
                    # literal level unconditionally, even when max_cost
                    # is below it — only levels past c1 respect the
                    # ceiling.  Mirror that exactly.
                    if cost > query.max_cost and cost > c1:
                        query.finalize(STATUS_NOT_FOUND, engine, started)
                    elif not query.scan(engine, cost, start, end, started):
                        still.append(query)
                pending[:] = still
                return not pending

            engine.run(
                max(query.max_cost for query in pending),
                self._durability(engine, RunControl(on_level=scan_level)),
            )
            leftover_status = (
                STATUS_BUDGET if engine.status == STATUS_BUDGET else STATUS_NOT_FOUND
            )
            for query in pending:
                query.finalize(leftover_status, engine, started)

        sweep_seconds = time.perf_counter() - started
        provenance = engine.cache.provenance_lookup
        shared_extra = {
            "batched": True,
            "batch_size": len(requests),
            "sweep_seconds": sweep_seconds,
            "sweep_generated": engine.generated,
            "sharded_emits": engine.sharded_emits,
            "resumed_levels": engine.resumed_levels,
            "shard_failovers": engine.shard_failovers,
            "phase_seconds": _phase_breakdown(
                engine, staging_seconds, sweep_seconds
            ),
        }
        plane_stats = getattr(engine.cache, "plane_stats", None)
        if plane_stats is not None:
            shared_extra["plane_stats"] = dict(plane_stats)
        for query, index in zip(queries, indices):
            results[index] = query.to_result(
                info.name, cost_fn, universe, provenance, shared_extra
            )
            self.stats.requests_served += 1


class _BatchQuery:
    """One request attached to a shared enumeration sweep."""

    __slots__ = (
        "request",
        "pos_mask",
        "neg_mask",
        "pos_lanes",
        "neg_lanes",
        "max_errors",
        "max_cost",
        "status",
        "solution",
        "solution_cost",
        "generated",
        "unique_cs",
        "levels_built",
        "elapsed_seconds",
    )

    def __init__(
        self,
        request: SynthesisRequest,
        universe: Universe,
        cost_fn: CostFunction,
        packed: bool,
    ) -> None:
        spec = request.spec
        self.request = request
        self.pos_mask = universe.cs_of(spec.positive)
        self.neg_mask = universe.cs_of(spec.negative)
        self.pos_lanes = (
            int_to_lanes(self.pos_mask, universe.lanes) if packed else None
        )
        self.neg_lanes = (
            int_to_lanes(self.neg_mask, universe.lanes) if packed else None
        )
        self.max_errors = max_errors_for(request.allowed_error, spec.n_examples)
        self.max_cost = request.effective_max_cost(cost_fn)
        self.status: Optional[str] = None
        self.solution: Optional[Tuple[int, int, int]] = None
        self.solution_cost: Optional[int] = None
        self.generated = 0
        self.unique_cs = 0
        self.levels_built = 0
        self.elapsed_seconds = 0.0

    # ------------------------------------------------------------------
    def solves_int(self, cs: int) -> bool:
        """The engines' solution predicate, per-query."""
        return cs_solves(cs, self.pos_mask, self.neg_mask, self.max_errors)

    def check_trivials(self, universe: Universe, c1: int, started: float) -> bool:
        """The per-spec ``∅``/``ε`` checks of Algorithm 1 (lines 4–5),
        mirroring the solo engine's candidate counting."""
        if self.solves_int(0):
            self._resolve((OP_EMPTY, -1, -1), c1, 1, 0, 0, started)
            return True
        if self.solves_int(universe.eps_bit):
            self._resolve((OP_EPSILON, -1, -1), c1, 2, 0, 0, started)
            return True
        return False

    def scan(
        self,
        engine: SearchEngine,
        cost: int,
        start: int,
        end: int,
        started: float,
    ) -> bool:
        """Scan the level's newly stored CSs ``[start, end)`` for this
        query's first satisfying candidate; True iff resolved."""
        cache = engine.cache
        hit: Optional[int] = None
        if isinstance(cache, PackedCache):
            rows = cache.rows(start, end)
            if self.max_errors == 0:
                flags = ((rows & self.pos_lanes) == self.pos_lanes).all(axis=1)
                flags &= ((rows & self.neg_lanes) == 0).all(axis=1)
            else:
                mistakes = popcount_rows((rows & self.pos_lanes) ^ self.pos_lanes)
                mistakes += popcount_rows(rows & self.neg_lanes)
                flags = mistakes <= self.max_errors
            hits = np.flatnonzero(flags)
            if hits.size:
                hit = start + int(hits[0])
        else:
            cs_list = cache.cs_list
            for index in range(start, end):
                if self.solves_int(cs_list[index]):
                    hit = index
                    break
        if hit is None:
            return False
        self._resolve(
            hit,
            cost,
            engine.generated,
            len(cache),
            engine.levels_built,
            started,
        )
        return True

    def finalize(self, status: str, engine: SearchEngine, started: float) -> None:
        """Close an unsolved query (cost ceiling or budget exhausted)."""
        self.status = status
        self.generated = engine.generated
        self.unique_cs = len(engine.cache)
        self.levels_built = engine.levels_built
        self.elapsed_seconds = time.perf_counter() - started

    def _resolve(
        self,
        solution,
        cost: int,
        generated: int,
        unique_cs: int,
        levels_built: int,
        started: float,
    ) -> None:
        self.status = STATUS_SUCCESS
        self.solution = solution
        self.solution_cost = cost
        self.generated = generated
        self.unique_cs = unique_cs
        self.levels_built = levels_built
        self.elapsed_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def to_result(
        self,
        backend: str,
        cost_fn: CostFunction,
        universe: Universe,
        provenance: Sequence[Tuple[int, int, int]],
        shared_extra: Dict[str, object],
    ) -> SynthesisResult:
        """Materialise the per-request :class:`SynthesisResult`.

        ``generated``/``unique_cs`` are *shared-sweep* snapshots taken
        when this request resolved (the sweep does not stop at one
        request's solution the way a solo run does); the regex, cost and
        status are bit-identical to the solo run's.
        """
        result = SynthesisResult(
            status=self.status or STATUS_NOT_FOUND,
            spec=self.request.spec,
            backend=backend,
            cost_function=cost_fn.as_tuple(),
            allowed_error=self.request.allowed_error,
            max_cost=self.max_cost,
            generated=self.generated,
            unique_cs=self.unique_cs,
            universe_size=universe.n_words,
            padded_bits=universe.padded_bits,
            levels_built=self.levels_built,
            elapsed_seconds=self.elapsed_seconds,
            extra=dict(shared_extra),
        )
        if result.status == STATUS_SUCCESS:
            triple = (
                self.solution
                if isinstance(self.solution, tuple)
                else provenance[self.solution]
            )
            result.regex = reconstruct(triple, provenance, universe.alphabet)
            result.cost = self.solution_cost
        return result
