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
function)``; the specification only decides where to stop.  So for the
duration of one call the session keeps every run's checkpoint records
in memory, keyed like the checkpoint journal, and each later engine
over the same universe and cost function replays them — the levels an
earlier request completed and the level it stopped in — before it
enumerates past them.  A replay is bit-identical to a cold run, so
every answer, ``generated`` and ``unique_cs`` included, equals what a
solo :meth:`Session.synthesize` returns — the property the test-suite
and ``BENCH_session.json`` both assert.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.cache import checkpoint_key
from ..core.engine import (
    STATUS_PREEMPTED,
    STATUS_SUCCESS,
    Checkpoint,
    RunControl,
    SearchEngine,
)
from ..core.reconstruct import reconstruct
from ..core.result import SynthesisResult
from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..obs.export import trace_payload
from ..obs.trace import TraceContext, Tracer
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
        #: The checkpoint records of the running :meth:`synthesize_many`
        #: call, by checkpoint key and cost (None outside one).
        self._records: Optional[Dict[str, Dict[int, Checkpoint]]] = None
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
        """The run control with checkpoint replay added.

        Called once per engine, right before ``run``.  Inside
        :meth:`synthesize_many`, a replayable engine
        (:attr:`~repro.core.engine.SearchEngine.replayable`) restores the
        records the call's earlier runs filed under its checkpoint key,
        and files its own: the furthest record per cost.  Elsewhere the
        control is returned unchanged.
        :class:`~repro.service.store.StoreBackedSession` overrides it to
        restore records from its checkpoint journal and to arm the
        journal as the checkpoint sink.
        """
        if self._records is None or not engine.replayable:
            return control
        held = self._records.setdefault(
            checkpoint_key(engine.universe, engine.cost_fn, engine.use_guide_table),
            {},
        )

        def keep(records) -> None:
            for record in records:
                kept = held.get(record.cost)
                if kept is None or record.level_progress > kept.level_progress:
                    held[record.cost] = record

        return dataclasses.replace(
            control,
            restored=[held[cost] for cost in sorted(held)],
            on_checkpoint=keep,
        )

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
                engine.solution, engine.provenance, engine.universe.alphabet
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
        """Serve many requests in request order, each answer equal to a
        solo :meth:`synthesize` of the same request.

        Each request runs through :meth:`synthesize`, except that a
        hook-free request identical to an earlier one gets its own copy
        of that answer.  For the duration of the call every engine
        replays the records the earlier runs over its universe and cost
        function left (see :meth:`_durability`), so no later request
        re-enumerates what an earlier one built; the records are
        dropped when the call returns.
        """
        answers: Dict[tuple, SynthesisResult] = {}
        results: List[SynthesisResult] = []
        self._records = {}
        try:
            for request in map(SynthesisRequest.of, requests):
                key = self._answer_key(request)
                answer = answers.get(key)
                if answer is None:
                    answer = self.synthesize(request)
                    if key is not None:
                        answers[key] = answer
                else:
                    answer = dataclasses.replace(
                        answer, extra=copy.deepcopy(answer.extra)
                    )
                    self.stats.requests_served += 1
                results.append(answer)
        finally:
            self._records = None
        return results

    def _answer_key(self, request: SynthesisRequest) -> Optional[tuple]:
        """What decides a request's answer — spec, cost function, cost
        ceiling, error tolerance, budget and resolved config — or None
        for a request that must run on its own: one with a hook, a time
        limit or a trace of its own."""
        config = request.config if request.config is not None else self.config
        if (
            request.on_progress is not None
            or request.cancel is not None
            or request.preempt is not None
            or request.time_limit is not None
            or request.trace_ctx is not None
            or request.tracer is not None
            or config.trace
        ):
            return None
        cost_fn = request.effective_cost_fn()
        return (
            request.spec,
            cost_fn.as_tuple(),
            request.effective_max_cost(cost_fn),
            request.allowed_error,
            request.max_generated,
            config.replace(backend=default_registry().canonical(config.backend)),
        )
