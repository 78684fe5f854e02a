"""Request and configuration objects of the session-oriented API.

Two small frozen dataclasses replace the keyword sprawl of the original
``synthesize``/``make_engine`` facade:

* :class:`EngineConfig` — *how* to search: which backend, cache
  capacity, ablation switches, and a default candidate budget.  Configs
  are hashable, so the session layer can use them as part of batch
  grouping keys.
* :class:`SynthesisRequest` — *what* to search for: the specification
  plus everything that varies per request (cost function, cost ceiling,
  error tolerance, budgets, progress/cancellation hooks).

A request may carry its own :attr:`SynthesisRequest.config`, overriding
the session default for that request only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..regex.cost import CostFunction
from ..spec import Spec


@dataclass(frozen=True)
class EngineConfig:
    """Engine-side knobs, shared by every request served with it.

    ``backend`` is resolved through the backend registry, so aliases
    (``"cpu"``, ``"gpu"``, …) and plugin-registered engines work
    everywhere a config does.  ``use_guide_table`` and
    ``check_uniqueness`` are the paper's ablation switches;
    ``max_cache_size`` bounds the language cache (OnTheFly mode past
    it); ``max_generated`` is the default candidate budget, overridable
    per request.

    ``shard_workers`` turns on intra-query parallelism in an in-process
    :class:`~repro.api.session.Session`: with a value ``>= 2`` the
    engine partitions each cost level's pair work across that many shard
    worker processes (:mod:`repro.core.shard`), bit-identically to the
    serial sweep; ``1`` (the default) is exactly the serial code path.
    The service never shards: a :class:`~repro.service.wire.WireRequest`
    drops the field (sets it to 1), because the pool's workers are the
    service's parallelism.

    ``trace`` turns on end-to-end span recording (:mod:`repro.obs`):
    every layer that touches the request — staging, checkpoint replay,
    per-cost-level enumeration, shard fan-out — records timed spans
    into ``result.extra["trace"]``.  It is a pure execution knob: it
    never changes the answer, and it is excluded from the wire
    fingerprint for exactly that reason.
    """

    backend: str = "vector"
    max_cache_size: Optional[int] = None
    use_guide_table: bool = True
    check_uniqueness: bool = True
    max_generated: Optional[int] = None
    shard_workers: int = 1
    trace: bool = False

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, eq=False)
class SynthesisRequest:
    """One synthesis question: a spec plus its per-request parameters.

    ``cost_fn`` defaults to the uniform homomorphism and ``max_cost`` to
    the overfit-union ceiling that guarantees termination for precise
    synthesis — the same defaults as :func:`repro.synthesize`.

    ``on_progress`` receives a :class:`~repro.api.progress.ProgressEvent`
    after every completed cost level and a final event carrying the
    result; ``cancel`` (any zero-argument truth-valued callable, e.g. a
    :class:`~repro.api.progress.CancellationToken`) is polled at the
    engine's safe points and level ends; ``time_limit`` bounds the
    search wall-clock in seconds, checked at the same points.  Either
    stops the run with ``status="cancelled"``.  Requests carrying hooks,
    a time limit or a private budget are always served individually —
    they never join a shared batch sweep.

    ``preempt`` is the preemption probe, polled at the same points: a
    truthy return makes the run stop with ``status="preempted"`` —
    unlike ``cancel`` the work is meant to continue later, resuming
    from the in-level checkpoint every stop journals (when a durable
    store is attached).  Like every hook it never crosses the wire
    fingerprint.

    ``trace_ctx`` is the portable trace identity
    (:class:`~repro.obs.trace.TraceContext`) minted where the request
    entered the system; ``tracer`` is the live per-process recorder
    (:class:`~repro.obs.trace.Tracer`).  Both are observability-only:
    like the hooks they never cross the wire fingerprint, and a
    ``None`` tracer with ``config.trace`` unset is the zero-overhead
    path.
    """

    spec: Spec
    cost_fn: Optional[CostFunction] = None
    max_cost: Optional[int] = None
    allowed_error: float = 0.0
    max_generated: Optional[int] = None
    time_limit: Optional[float] = None
    on_progress: Optional[Callable[[object], None]] = None
    cancel: Optional[Callable[[], object]] = None
    preempt: Optional[Callable[[], object]] = None
    config: Optional[EngineConfig] = None
    tag: Optional[str] = None
    trace_ctx: Optional[object] = None
    tracer: Optional[object] = None

    @classmethod
    def of(cls, value: Union["SynthesisRequest", Spec, tuple]) -> "SynthesisRequest":
        """Coerce a request, a :class:`Spec`, or a ``(positives,
        negatives)`` pair into a :class:`SynthesisRequest`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Spec):
            return cls(spec=value)
        positives, negatives = value
        return cls(spec=Spec(positives, negatives))

    def replace(self, **changes: object) -> "SynthesisRequest":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def effective_cost_fn(self) -> CostFunction:
        """The cost function, defaulted to uniform."""
        return self.cost_fn if self.cost_fn is not None else CostFunction.uniform()

    def effective_max_cost(self, cost_fn: CostFunction) -> int:
        """The cost ceiling, defaulted to the overfit-union guarantee."""
        if self.max_cost is not None:
            return self.max_cost
        return max(cost_fn.overfit_cost(self.spec.positive), cost_fn.literal)
