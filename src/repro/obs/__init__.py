"""Zero-dependency tracing and structured telemetry.

One :class:`~repro.obs.trace.TraceContext` is minted where a query
enters the system (``POST /jobs`` on the HTTP server, or
``WorkerPool.submit`` for in-process use) and rides the wire form
across every process hop — pool workers, shard workers — so each layer
can record spans against the same trace id.  Spans land in per-process
ring buffers (:class:`~repro.obs.trace.Tracer`), travel back with the
result (``SynthesisResult.extra["trace"]``), and export three ways:

* Chrome trace-event JSON (:func:`~repro.obs.export.chrome_trace`),
  loadable in Perfetto / ``chrome://tracing``;
* a compact text waterfall (:func:`~repro.obs.export.waterfall`);
* per-stage Prometheus histograms (:mod:`repro.obs.metrics`).

The package is stdlib-only by design — it must import inside shard
worker subprocesses with zero extra cost.
"""

from .trace import Span, TraceContext, Tracer, new_span_id, new_trace_id

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "new_span_id",
    "new_trace_id",
]
