"""Shared experiment-running machinery for the evaluation harness.

Mirrors the paper's measurement protocol where it is meaningful here:
every timed configuration can be repeated (the paper averages 3 runs)
and every run is bounded by a *candidate budget* (``max_generated``)
rather than a wall-clock timeout so measurements stay deterministic.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api import EngineConfig, Session, SynthesisRequest
from ..baselines.alpharegex import alpharegex_synthesize
from ..core.result import SynthesisResult
from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import ALPHAREGEX_COST, CostFunction
from ..spec import Spec


@dataclass
class RunRecord:
    """One timed run of one system on one benchmark."""

    name: str
    system: str
    cost_function: Tuple[int, ...]
    status: str
    regex: Optional[str]
    cost: Optional[int]
    generated: int
    unique_cs: int
    universe_size: int
    elapsed_seconds: float
    repeats: int = 1
    extra: Dict[str, object] = field(default_factory=dict)


def records_to_json(records: List[RunRecord]) -> List[Dict[str, object]]:
    """Plain-JSON form of a record list, for benchmark artifacts.

    Includes ``extra`` — in particular the per-phase timing breakdown
    (``staging`` / ``enumerate`` / ``dedupe`` / ``solve`` / ``store``)
    the session layer attaches to every engine-served run — so perf
    artifacts built on the harness attribute wall-clock to pipeline
    stages without re-instrumenting.
    """
    return [asdict(record) for record in records]


def staging_for(spec: Spec) -> Tuple[Universe, GuideTable]:
    """Build the cost-function-independent staging structures once.

    The paper emphasises that ``ic(P ∪ N)`` and the guide table depend
    only on the examples, so sweeps over cost functions reuse them.
    """
    universe = Universe(spec.all_words, alphabet=spec.alphabet)
    return universe, GuideTable(universe)


def time_paresy(
    name: str,
    spec: Spec,
    cost_fn: CostFunction,
    backend: str,
    repeats: int = 1,
    max_generated: Optional[int] = None,
    max_cache_size: Optional[int] = None,
    allowed_error: float = 0.0,
    staging: Optional[Tuple[Universe, GuideTable]] = None,
    session: Optional[Session] = None,
) -> RunRecord:
    """Run Paresy ``repeats`` times; report the mean wall-clock.

    Requests go through the session layer; pass a shared ``session`` so
    a whole table's sweep reuses staged artifacts, or explicit
    ``staging`` to control exactly what is shared (the per-call
    ``backend``/budget arguments override the session's own config).
    """
    config = EngineConfig(
        backend=backend,
        max_cache_size=max_cache_size,
        max_generated=max_generated,
    )
    owner = session if session is not None else Session(config)
    universe, guide = (
        staging if staging is not None else owner.staging_for(spec)
    )
    request = SynthesisRequest(
        spec=spec, cost_fn=cost_fn, allowed_error=allowed_error, config=config
    )
    elapsed: List[float] = []
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = owner.synthesize(request, universe=universe, guide=guide)
        elapsed.append(time.perf_counter() - started)
    assert result is not None
    return RunRecord(
        name=name,
        system="paresy-%s" % result.backend,
        cost_function=cost_fn.as_tuple(),
        status=result.status,
        regex=result.regex_str,
        cost=result.cost,
        generated=result.generated,
        unique_cs=result.unique_cs,
        universe_size=result.universe_size,
        elapsed_seconds=sum(elapsed) / len(elapsed),
        repeats=len(elapsed),
        extra=_phase_extra(result),
    )


def _phase_extra(result: SynthesisResult) -> Dict[str, object]:
    """Per-phase timing of the run (staging, enumerate, dedupe, solve,
    store) plus — when the run was traced — the per-stage span summary,
    carried into the record's ``extra`` so JSON artifacts can attribute
    wall-clock wins to pipeline stages without re-instrumenting."""
    extra: Dict[str, object] = {}
    phases = result.extra.get("phase_seconds")
    if phases:
        extra["phase_seconds"] = phases
    trace = result.extra.get("trace")
    if isinstance(trace, dict) and trace.get("stages"):
        extra["trace_stages"] = trace["stages"]
    return extra


def _suite_record(
    name: str, system: str, cost_fn: CostFunction, result: SynthesisResult
) -> RunRecord:
    return RunRecord(
        name=name,
        system=system,
        cost_function=cost_fn.as_tuple(),
        status=result.status,
        regex=result.regex_str,
        cost=result.cost,
        generated=result.generated,
        unique_cs=result.unique_cs,
        universe_size=result.universe_size,
        elapsed_seconds=result.elapsed_seconds,
        extra=_phase_extra(result),
    )


def run_suite(
    named_specs,
    cost_fn: Optional[CostFunction] = None,
    backend: str = "vector",
    max_generated: Optional[int] = None,
    allowed_error: float = 0.0,
    session: Optional[Session] = None,
    pool=None,
) -> List[RunRecord]:
    """Run a whole suite of ``(name, spec)`` benchmarks; one record each.

    Two execution modes share identical request construction, so their
    answers are bit-identical:

    * **solo** (default, or explicit ``session``): one warm
      :class:`Session` serves the suite sequentially, reusing staged
      artifacts across same-universe specs.
    * **pooled** (``pool`` — a :class:`repro.service.WorkerPool`):
      every spec is submitted up front and the pool runs them on all
      cores, routing same-universe specs to warm workers; results are
      gathered in suite order.
    """
    cost_fn = cost_fn if cost_fn is not None else CostFunction.uniform()
    config = EngineConfig(backend=backend, max_generated=max_generated)
    requests = [
        SynthesisRequest(
            spec=spec, cost_fn=cost_fn, allowed_error=allowed_error,
            config=config,
        )
        for _, spec in named_specs
    ]
    if pool is not None:
        results = pool.map(requests)
        system = "paresy-%s-pool%d" % (backend, pool.n_workers)
    else:
        owner = session if session is not None else Session(config)
        results = [owner.synthesize(request) for request in requests]
        system = "paresy-%s" % backend
    return [
        _suite_record(name, system, cost_fn, result)
        for (name, _), result in zip(named_specs, results)
    ]


def time_alpharegex(
    name: str,
    spec: Spec,
    cost_fn: CostFunction = ALPHAREGEX_COST,
    repeats: int = 1,
    max_checked: Optional[int] = None,
    max_expanded: Optional[int] = None,
) -> RunRecord:
    """Run the AlphaRegex baseline ``repeats`` times; mean wall-clock."""
    elapsed: List[float] = []
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = alpharegex_synthesize(
            spec,
            cost_fn=cost_fn,
            max_checked=max_checked,
            max_expanded=max_expanded,
        )
        elapsed.append(time.perf_counter() - started)
    assert result is not None
    return RunRecord(
        name=name,
        system="alpharegex",
        cost_function=cost_fn.as_tuple(),
        status=result.status,
        regex=result.regex_str,
        cost=result.cost,
        generated=result.checked,
        unique_cs=0,
        universe_size=0,
        elapsed_seconds=sum(elapsed) / len(elapsed),
        repeats=len(elapsed),
        extra={"expanded": result.expanded},
    )
