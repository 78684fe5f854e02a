"""The network-native synthesis server.

:class:`SynthesisServer` puts the whole service stack behind a socket:
two :class:`~repro.service.client.ServiceClient` *lanes* — one sized
for interactive traffic, one for batch sweeps — share a single content-
addressed store directory (staging artifacts, results, checkpoints and
the quarantine are all multi-writer safe), while an
:class:`~repro.server.scheduler.AdmissionController` bounds each lane's
backlog so overload degrades to fast 429s instead of timeouts.  The
two-lane split is what makes the latency story real: pool workers serve
jobs sequentially, so however high its priority, an interactive request
behind a long batch job on the *same* worker would wait out the sweep.
Separate lanes mean batch load can saturate its own workers without
ever standing in front of an interactive request.

Endpoints (HTTP/1.1, keep-alive, JSON bodies):

=========================  =============================================
``POST /jobs``             submit a wire request; the job id is the
                           request's content fingerprint, so duplicate
                           submissions *join* the live job.  Tracing is
                           on by default (``"trace": false`` opts out)
``GET /jobs/<id>``         status (+ result once finished)
``GET /jobs/<id>/events``  chunked NDJSON progress stream — replayed
                           from the start, then live; the engine-side
                           ``elapsed_s`` clock is preserved verbatim
``GET /jobs/<id>/trace``   the job's spans — every process on one
                           timeline — plus a ready-made Chrome
                           trace-event document (Perfetto-loadable)
``DELETE /jobs/<id>``      cancel; cancelling a finished job returns
                           the finished result (cancellation is not
                           an eraser)
``GET /healthz``           lane liveness (per-lane ``degraded`` flags,
                           last-quarantine timestamp), retry/respawn
                           counters, quarantined job records
``GET /metrics``           Prometheus text exposition, including
                           per-stage latency histograms fed by spans
=========================  =============================================

Threading model: the asyncio loop runs in one dedicated thread and owns
every :class:`_JobRecord` — all record mutation happens via
``call_soon_threadsafe``, so the request handlers need no locks.  Pool
progress callbacks (collector thread) and per-job waiter threads cross
into the loop the same way.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hmac
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional

from ..api.config import EngineConfig
from ..api.progress import ProgressEvent
from ..core.result import SynthesisResult
from ..obs.export import SPAN_STAGES, chrome_trace, stage_summary
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, new_span_id
from ..service.checkpoint import CheckpointStore
from ..service.client import ServiceClient
from ..service.pool import CHECKPOINTS_SUBDIR
from ..service.queue import JobFailedError
from ..service.wire import PRIORITY_HIGH, PRIORITY_NORMAL, WireRequest
from . import http11
from .http11 import ChunkedWriter, ProtocolError, Request
from .scheduler import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    CLASSES,
    DEFAULT_INTERACTIVE_THRESHOLD,
    DEFAULT_LATENCY_TARGET_S,
    DEFAULT_SHARD_WIDTH_THRESHOLD,
    AdmissionController,
    LatencyTracker,
    WorkloadHistory,
    choose_shard_workers,
    classify,
)

#: Finished jobs kept around for late status/result reads.
FINISHED_RECORDS_KEPT = 1024

#: Completions between best-effort history/prune maintenance passes.
MAINTENANCE_EVERY = 8

#: Seconds a kept-alive connection may sit idle between requests.
KEEPALIVE_IDLE_S = 10.0


#: ``result.extra`` keys forwarded in the HTTP job document — the
#: scalar scheduling/durability counters, never the heavyweight
#: payloads (trace, level stats) that have endpoints of their own.
_WIRE_EXTRA_KEYS = (
    "attempts",
    "preemptions",
    "resumed_levels",
    "partial_resumes",
)


class _JobRecord:
    """Loop-thread-owned state of one submitted job."""

    __slots__ = (
        "job_id",
        "wire",
        "klass",
        "state",
        "priority",
        "shard_workers",
        "submitted_monotonic",
        "events",
        "subscribers",
        "result",
        "error",
        "handle",
        "joined",
        "trace_id",
        "root_span_id",
        "server_spans",
    )

    def __init__(self, job_id: str, wire: WireRequest, klass: str,
                 priority: int, shard_workers: int,
                 trace_id: Optional[str] = None,
                 root_span_id: Optional[str] = None,
                 server_spans: Optional[List[dict]] = None) -> None:
        self.job_id = job_id
        self.wire = wire
        self.klass = klass
        self.state = "queued"
        self.priority = priority
        self.shard_workers = shard_workers
        self.submitted_monotonic = time.monotonic()
        #: Observability identity of this job (None when untraced) plus
        #: the spans the *server* recorded — the root job span first.
        self.trace_id = trace_id
        self.root_span_id = root_span_id
        self.server_spans: List[dict] = server_spans or []
        #: Every progress event seen so far, already in wire form —
        #: late ``/events`` subscribers replay these before going live.
        self.events: List[dict] = []
        self.subscribers: List[asyncio.Queue] = []
        self.result: Optional[SynthesisResult] = None
        self.error: Optional[str] = None
        self.handle = None
        #: Duplicate submissions that joined this record.
        self.joined = 0

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def status_dict(self) -> dict:
        data = {
            "job_id": self.job_id,
            "state": self.state,
            "class": self.klass,
            "joined": self.joined,
            "shard_workers": self.shard_workers,
            "events": len(self.events),
        }
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.result is not None:
            data["result"] = self.result.to_dict()
            extra = getattr(self.result, "extra", None)
            if isinstance(extra, dict):
                # The scheduling/durability story of this particular
                # job — how many attempts it took, whether it was
                # preempted, what it resumed from — is exactly what an
                # HTTP client cannot reconstruct any other way.
                wire_extra = {
                    key: extra[key]
                    for key in _WIRE_EXTRA_KEYS
                    if key in extra
                }
                if wire_extra:
                    data["result"]["extra"] = wire_extra
        if self.error is not None:
            data["error"] = self.error
        return data


class SynthesisServer:
    """Admission-controlled HTTP front of the synthesis service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
        interactive_workers: int = 1,
        batch_workers: int = 2,
        per_worker_depth: int = 2,
        max_queue: Optional[Dict[str, int]] = None,
        config: Optional[EngineConfig] = None,
        registry=None,
        reuse_results: bool = True,
        interactive_threshold: float = DEFAULT_INTERACTIVE_THRESHOLD,
        latency_target_s: float = DEFAULT_LATENCY_TARGET_S,
        max_shard_workers: int = 4,
        shard_width_threshold: int = DEFAULT_SHARD_WIDTH_THRESHOLD,
        checkpoint_budget_bytes: Optional[int] = None,
        checkpoints: bool = True,
        auth_token: Optional[str] = None,
        preempt_on_saturation: bool = True,
        brownout_enter_after_s: float = 2.0,
        brownout_exit_after_s: float = 5.0,
        retry_backoff_s: float = 0.05,
        retry_jitter: float = 0.25,
    ) -> None:
        self.host = host
        self.port = port
        self.store_dir = store_dir
        self.interactive_threshold = interactive_threshold
        self.latency_target_s = latency_target_s
        self.max_shard_workers = max_shard_workers
        self.shard_width_threshold = shard_width_threshold
        self.checkpoint_budget_bytes = checkpoint_budget_bytes
        #: Bearer token every request must present (None = open server).
        self.auth_token = auth_token
        #: Preempt the longest-running batch attempt when an interactive
        #: submission finds its lane saturated (set False to disable).
        self.preempt_on_saturation = preempt_on_saturation
        self.preemptions_triggered = 0
        lane_workers = {
            CLASS_INTERACTIVE: max(1, interactive_workers),
            CLASS_BATCH: max(1, batch_workers),
        }
        self.lanes: Dict[str, ServiceClient] = {
            klass: ServiceClient(
                workers=lane_workers[klass],
                config=config,
                registry=registry,
                store_dir=store_dir,
                per_worker_depth=per_worker_depth,
                reuse_results=reuse_results,
                checkpoints=checkpoints,
                retry_backoff_s=retry_backoff_s,
                retry_jitter=retry_jitter,
            )
            for klass in CLASSES
        }
        slots = {
            klass: lane_workers[klass] * per_worker_depth
            for klass in CLASSES
        }
        bounds = dict(max_queue or {})
        bounds.setdefault(CLASS_INTERACTIVE, 16)
        bounds.setdefault(CLASS_BATCH, 32)
        self.latency = LatencyTracker()
        self.admission = AdmissionController(
            slots=slots,
            max_queue=bounds,
            latency=self.latency,
            brownout_enter_after_s=brownout_enter_after_s,
            brownout_exit_after_s=brownout_exit_after_s,
        )
        history_path = (
            Path(store_dir) / "history.json" if store_dir is not None else None
        )
        self.history = WorkloadHistory(path=history_path)
        # Observability ------------------------------------------------
        self.obs = MetricsRegistry()
        self._stage_seconds = self.obs.histogram(
            "repro_stage_seconds",
            "Per-stage span durations (queue wait, staging, level "
            "builds, checkpoint replay/save, store writes).",
        )
        self._job_seconds = self.obs.histogram(
            "repro_job_seconds",
            "End-to-end job wall-clock (submit to completion), per class.",
        )
        #: Plane-cache traffic summed over finished jobs (drives the
        #: hit-rate gauge on /metrics).
        self._plane_totals = {"builds": 0, "hits": 0}
        # Loop-thread state --------------------------------------------
        self._records: "OrderedDict[str, _JobRecord]" = OrderedDict()
        self._status_counts: Dict[str, int] = {}
        self._completions = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = False
        self._stopping = threading.Event()
        self._last_activity = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SynthesisServer":
        """Start the lanes and the listening socket (idempotent)."""
        if self._started:
            return self
        for lane in self.lanes.values():
            lane.start()
        self._prune_checkpoints()
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(started.set)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="synthesis-server", daemon=True
        )
        self._thread.start()
        started.wait()
        future = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._handle_connection, self.host, self.port),
            self._loop,
        )
        self._server = future.result(timeout=10.0)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = True
        return self

    def stop(self) -> None:
        """Stop accepting, drain the loop, shut the lanes down."""
        if not self._started:
            return
        self._started = False
        self._stopping.set()

        async def close() -> None:
            self._server.close()
            await self._server.wait_closed()
            # Kept-alive connections may be parked in an idle read;
            # cancel them and wait for their transports to finish
            # closing so the loop stops clean.
            tasks = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0)

        asyncio.run_coroutine_threadsafe(close(), self._loop).result(
            timeout=10.0
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self.history.save()
        for lane in self.lanes.values():
            lane.close(cancel_pending=True)

    def __enter__(self) -> "SynthesisServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def serve_forever(self, idle_timeout: Optional[float] = None) -> None:
        """Block until :meth:`stop` (another thread / signal handler) or
        until no request has arrived for ``idle_timeout`` seconds."""
        while not self._stopping.wait(timeout=0.2):
            if (
                idle_timeout is not None
                and time.monotonic() - self._last_activity > idle_timeout
                and not any(
                    not record.finished for record in self._records.values()
                )
            ):
                self.stop()
                return

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Serve requests off one connection until it goes quiet.

        HTTP/1.1 keep-alive: fixed-length responses leave the
        connection open for the next request (a polling client reuses
        one TCP connection for its whole backoff loop), while chunked
        event streams and protocol errors are connection-terminal.
        """
        try:
            first = True
            while True:
                try:
                    request = await http11.read_request(
                        reader,
                        idle_timeout=None if first else KEEPALIVE_IDLE_S,
                    )
                except ProtocolError as exc:
                    await http11.send_response(
                        writer, 400, {"error": str(exc)}, close=True
                    )
                    return
                if request is None:
                    return
                first = False
                writer.close_after_response = request.wants_close
                self._last_activity = time.monotonic()
                try:
                    terminal = await self._route(request, reader, writer)
                except ProtocolError as exc:
                    await http11.send_response(
                        writer, 400, {"error": str(exc)}, close=True
                    )
                    return
                except (ConnectionError, BrokenPipeError):
                    return
                except Exception as exc:  # pragma: no cover - defensive
                    try:
                        await http11.send_response(
                            writer,
                            500,
                            {"error": "internal error: %s" % exc},
                            close=True,
                        )
                    except (ConnectionError, BrokenPipeError):
                        pass
                    return
                if terminal or request.wants_close:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _route(self, request: Request, reader, writer) -> bool:
        """Dispatch one request; True when the connection must close."""
        if self.auth_token is not None:
            supplied = request.headers.get("authorization") or ""
            expected = "Bearer %s" % self.auth_token
            # Constant-time compare: a timing oracle on the token
            # would let a remote caller recover it byte by byte.
            if not hmac.compare_digest(
                supplied.encode("utf-8", "replace"),
                expected.encode("utf-8"),
            ):
                await http11.send_response(
                    writer,
                    401,
                    {"error": "missing or invalid bearer token"},
                    headers={"WWW-Authenticate": "Bearer"},
                )
                return False
        path, method = request.path, request.method
        if path == "/jobs":
            if method != "POST":
                await http11.send_response(
                    writer, 405, {"error": "use POST /jobs"}
                )
                return False
            await self._post_job(request, writer)
            return False
        job_id, sub = http11.split_job_path(path)
        if job_id is not None:
            if sub is None and method == "GET":
                await self._get_job(job_id, writer)
            elif sub is None and method == "DELETE":
                await self._delete_job(job_id, writer)
            elif sub == "events" and method == "GET":
                # Chunked stream: the zero-length chunk is the only
                # end-of-stream marker, so the connection closes after.
                await self._stream_events(job_id, reader, writer)
                return True
            elif sub == "trace" and method == "GET":
                await self._get_trace(job_id, writer)
            else:
                await http11.send_response(
                    writer, 405, {"error": "unsupported job operation"}
                )
            return False
        if path == "/healthz" and method == "GET":
            await http11.send_response(writer, 200, self.health())
            return False
        if path == "/metrics" and method == "GET":
            await http11.send_response(
                writer,
                200,
                self.metrics_text(),
                content_type="text/plain; version=0.0.4",
            )
            return False
        await http11.send_response(
            writer, 404, {"error": "no such path %s" % path}
        )
        return False

    # ------------------------------------------------------------------
    # POST /jobs
    # ------------------------------------------------------------------
    async def _post_job(self, request: Request, writer) -> None:
        parse_started = request.received_s or time.time()
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError("job payload must be a JSON object")
        klass_override = payload.get("class")
        if klass_override is not None and klass_override not in CLASSES:
            raise ProtocolError("unknown class %r" % klass_override)
        try:
            wire = WireRequest.from_json_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("malformed wire request: %s" % exc)
        parse_ended = time.time()
        # Tracing is on by default at the server edge (the overhead is
        # a handful of dict records per job); ``"trace": false`` in the
        # payload opts a submission out.  A client-supplied context is
        # always honoured.
        trace_enabled = (
            wire.trace_ctx is not None or bool(payload.get("trace", True))
        )
        job_id = wire.fingerprint()

        record = self._records.get(job_id)
        if record is not None and (not record.finished or
                                   record.state == "done"):
            # Content-addressed join: same fingerprint, same answer —
            # a completed record answers immediately, a live one is
            # joined (the answer would be bit-identical either way).
            record.joined += 1
            status = 200 if record.finished else 202
            data = record.status_dict()
            data["deduplicated"] = True
            await http11.send_response(writer, status, data)
            return
        if record is not None:
            # A cancelled or failed record does not pin the fingerprint:
            # resubmission starts a fresh run.
            del self._records[job_id]

        klass = klass_override or classify(
            wire,
            self.history,
            interactive_threshold=self.interactive_threshold,
            latency_target_s=self.latency_target_s,
        )
        admission_started = time.time()
        admission = self.admission.try_admit(klass)
        admission_ended = time.time()
        if not admission.admitted:
            retry_after = max(1, int(admission.retry_after_s or 1))
            await http11.send_response(
                writer,
                429,
                {
                    "error": admission.reason,
                    "class": klass,
                    "retry_after_s": retry_after,
                },
                headers={"Retry-After": str(retry_after)},
            )
            return

        # Latency protection: an interactive admission that finds its
        # lane saturated evicts the longest-running batch attempt — the
        # batch job checkpoints mid-level and requeues, freeing cores
        # for the interactive burst while losing almost no work.
        preempted_job = None
        preempt_started = preempt_ended = None
        if (
            klass == CLASS_INTERACTIVE
            and self.preempt_on_saturation
            and self.admission.interactive_saturated()
        ):
            preempt_started = time.time()
            preempted_job = self.lanes[CLASS_BATCH].preempt_longest_running()
            preempt_ended = time.time()
            if preempted_job is not None:
                self.preemptions_triggered += 1

        shards = choose_shard_workers(
            wire,
            self.history,
            cpu_count=os.cpu_count() or 1,
            max_shard_workers=self.max_shard_workers,
            width_threshold=self.shard_width_threshold,
        )
        if shards != wire.config.shard_workers:
            wire = dataclasses.replace(
                wire, config=wire.config.replace(shard_workers=shards)
            )
        priority = (
            PRIORITY_HIGH if klass == CLASS_INTERACTIVE else PRIORITY_NORMAL
        )
        trace_id = root_span_id = None
        server_spans: List[dict] = []
        if trace_enabled:
            # Root span of the whole job; everything downstream (pool
            # queue-wait, worker-job, engine levels, shard emits) hangs
            # off it via the child context that rides the wire.
            ctx = wire.trace_ctx or TraceContext.mint()
            trace_id, root_span_id = ctx.trace_id, new_span_id()

            def server_span(name, start_s, end_s, **args):
                return {
                    "name": name,
                    "trace_id": trace_id,
                    "span_id": new_span_id(),
                    "parent_id": root_span_id,
                    "start_s": start_s,
                    "end_s": end_s,
                    "process": "server",
                    "args": args,
                }

            server_spans = [
                {
                    "name": "job",
                    "trace_id": trace_id,
                    "span_id": root_span_id,
                    "parent_id": ctx.parent_span_id,
                    "start_s": parse_started,
                    "end_s": None,  # closed by _complete
                    "process": "server",
                    "args": {"job_id": job_id, "class": klass},
                },
                server_span("http-parse", parse_started, parse_ended),
                server_span(
                    "admission", admission_started, admission_ended,
                    **{"class": klass},
                ),
            ]
            if preempted_job is not None:
                server_spans.append(
                    server_span(
                        "preempt-batch",
                        preempt_started,
                        preempt_ended,
                        preempted_job_id=preempted_job,
                    )
                )
            wire = dataclasses.replace(
                wire, trace_ctx=ctx.child(root_span_id)
            )
        record = _JobRecord(
            job_id, wire, klass, priority, shards,
            trace_id=trace_id, root_span_id=root_span_id,
            server_spans=server_spans,
        )
        self._records[job_id] = record
        while len(self._records) > FINISHED_RECORDS_KEPT * 2:
            # Evict the oldest *finished* record; live ones stay.
            for key, old in self._records.items():
                if old.finished:
                    del self._records[key]
                    break
            else:
                break

        loop = self._loop

        def on_progress(event, _job_id=job_id):
            # Collector thread → loop thread.
            loop.call_soon_threadsafe(self._on_event, _job_id, event)

        submit_started = time.time()
        try:
            handle = self.lanes[klass].submit(
                wire, priority=priority, on_progress=on_progress
            )
        except Exception as exc:
            self.admission.release(klass)
            del self._records[job_id]
            await http11.send_response(
                writer, 503, {"error": "submit failed: %s" % exc}
            )
            return
        if trace_enabled:
            record.server_spans.append(
                {
                    "name": "pool-submit",
                    "trace_id": trace_id,
                    "span_id": new_span_id(),
                    "parent_id": root_span_id,
                    "start_s": submit_started,
                    "end_s": time.time(),
                    "process": "server",
                    "args": {"class": klass},
                }
            )
        record.handle = handle
        if handle.done:
            # Stored-result fast path: the pool answered from disk and
            # already emitted the final done-event through on_progress.
            try:
                result = handle.result(timeout=0)
            except JobFailedError as exc:
                loop.call_soon_threadsafe(
                    self._complete, job_id, None, str(exc)
                )
            else:
                loop.call_soon_threadsafe(self._complete, job_id, result, None)
        else:
            waiter = threading.Thread(
                target=self._wait_for,
                args=(job_id, handle),
                name="job-waiter-%s" % job_id[:8],
                daemon=True,
            )
            waiter.start()
        data = record.status_dict()
        data["deduplicated"] = False
        await http11.send_response(writer, 202, data)

    def _wait_for(self, job_id: str, handle) -> None:
        """Waiter thread: block on the pool handle, report to the loop.

        Progress events alone cannot signal completion — a job cancelled
        while still queued never reaches a worker and emits nothing.
        """
        try:
            result = handle.result()
            error = None
        except JobFailedError as exc:
            result, error = None, str(exc)
        except Exception as exc:  # pragma: no cover - defensive
            result, error = None, "unexpected waiter error: %s" % exc
        try:
            self._loop.call_soon_threadsafe(
                self._complete, job_id, result, error
            )
        except RuntimeError:  # loop already closed during shutdown
            pass

    # ------------------------------------------------------------------
    # Record transitions (loop thread only)
    # ------------------------------------------------------------------
    def _on_event(self, job_id: str, event: ProgressEvent) -> None:
        record = self._records.get(job_id)
        if record is None:
            return
        if record.state == "queued" and not record.finished:
            record.state = "running"
        data = event.to_json_dict()
        record.events.append(data)
        for queue in record.subscribers:
            queue.put_nowait(data)

    def _complete(
        self,
        job_id: str,
        result: Optional[SynthesisResult],
        error: Optional[str],
    ) -> None:
        record = self._records.get(job_id)
        if record is None or record.finished:
            return
        if error is not None:
            record.state = "failed"
            record.error = error
        else:
            record.result = result
            record.state = (
                "cancelled" if result.status == "cancelled" else "done"
            )
            if result.status != "cancelled":
                self.history.record(record.wire.staging_fingerprint(), result)
        elapsed = time.monotonic() - record.submitted_monotonic
        if record.root_span_id is not None and record.server_spans:
            record.server_spans[0]["end_s"] = time.time()
            record.server_spans[0]["args"]["state"] = record.state
            for span in self._job_spans(record):
                stage = SPAN_STAGES.get(str(span.get("name")))
                if stage is None:
                    continue
                start = float(span.get("start_s", 0.0))
                end = float(span.get("end_s") or start)
                self._stage_seconds.observe(
                    max(0.0, end - start), stage=stage
                )
        self._job_seconds.observe(elapsed, **{"class": record.klass})
        if result is not None and isinstance(result.extra, dict):
            plane = result.extra.get("plane_stats")
            if isinstance(plane, dict):
                self._plane_totals["builds"] += int(plane.get("builds", 0))
                self._plane_totals["hits"] += int(plane.get("hits", 0))
        self.latency.record(record.klass, elapsed)
        self.admission.release(record.klass)
        self._status_counts[record.state] = (
            self._status_counts.get(record.state, 0) + 1
        )
        # A job cancelled while queued emitted no progress at all;
        # synthesise the terminal event so /events streams always end.
        if not any(event.get("done") for event in record.events):
            final = ProgressEvent(
                cost=(result.cost if result is not None and
                      result.cost is not None else -1),
                generated=result.generated if result is not None else 0,
                stored=result.unique_cs if result is not None else 0,
                elapsed_seconds=(
                    result.elapsed_seconds if result is not None else elapsed
                ),
                done=True,
                incumbent=result,
                elapsed_s=(
                    result.elapsed_seconds if result is not None else elapsed
                ),
            ).to_json_dict()
            record.events.append(final)
            for queue in record.subscribers:
                queue.put_nowait(final)
        for queue in record.subscribers:
            queue.put_nowait(None)  # stream-done sentinel
        self._completions += 1
        if self._completions % MAINTENANCE_EVERY == 0:
            self.history.save()
            self._prune_checkpoints()

    # ------------------------------------------------------------------
    # GET /jobs/<id>, DELETE /jobs/<id>
    # ------------------------------------------------------------------
    async def _get_job(self, job_id: str, writer) -> None:
        record = self._records.get(job_id)
        if record is None:
            await http11.send_response(
                writer, 404, {"error": "unknown job %s" % job_id}
            )
            return
        await http11.send_response(writer, 200, record.status_dict())

    async def _delete_job(self, job_id: str, writer) -> None:
        record = self._records.get(job_id)
        if record is None:
            await http11.send_response(
                writer, 404, {"error": "unknown job %s" % job_id}
            )
            return
        if record.finished:
            # Cancel-after-complete: the work is done; hand the caller
            # the finished record instead of pretending it vanished.
            data = record.status_dict()
            data["cancelled"] = False
            await http11.send_response(writer, 200, data)
            return
        delivered = (
            record.handle.cancel() if record.handle is not None else False
        )
        data = record.status_dict()
        data["cancelled"] = bool(delivered)
        await http11.send_response(writer, 202, data)

    # ------------------------------------------------------------------
    # GET /jobs/<id>/trace
    # ------------------------------------------------------------------
    def _job_spans(self, record: _JobRecord) -> List[dict]:
        """Server spans + the spans that came back with the result."""
        spans = list(record.server_spans)
        result = record.result
        if result is not None and isinstance(result.extra, dict):
            trace = result.extra.get("trace")
            # Guard on the trace id: a result answered from the store
            # may carry the trace of the run that produced it.
            if (
                isinstance(trace, dict)
                and trace.get("trace_id") == record.trace_id
            ):
                spans.extend(trace.get("spans") or [])
        return spans

    def trace_document(self, record: _JobRecord) -> dict:
        """The ``/jobs/<id>/trace`` document (also used by the CLI)."""
        spans = self._job_spans(record)
        return {
            "job_id": record.job_id,
            "trace_id": record.trace_id,
            "root_span_id": record.root_span_id,
            "state": record.state,
            "spans": spans,
            "stages": stage_summary(spans),
            "chrome_trace": chrome_trace(spans),
        }

    async def _get_trace(self, job_id: str, writer) -> None:
        record = self._records.get(job_id)
        if record is None:
            await http11.send_response(
                writer, 404, {"error": "unknown job %s" % job_id}
            )
            return
        if record.trace_id is None:
            await http11.send_response(
                writer, 404, {"error": "job %s was not traced" % job_id}
            )
            return
        await http11.send_response(writer, 200, self.trace_document(record))

    # ------------------------------------------------------------------
    # GET /jobs/<id>/events
    # ------------------------------------------------------------------
    async def _stream_events(self, job_id: str, reader, writer) -> None:
        record = self._records.get(job_id)
        if record is None:
            await http11.send_response(
                writer, 404, {"error": "unknown job %s" % job_id}
            )
            return
        stream = ChunkedWriter(writer)
        await stream.start()
        # Replay history first so a late subscriber sees the whole run.
        for event in list(record.events):
            await stream.send(event)
        if record.finished:
            await stream.finish()
            return
        queue: asyncio.Queue = asyncio.Queue()
        record.subscribers.append(queue)
        # Detect client disconnect by reading: the peer sends nothing
        # more on this connection, so any EOF/''-read means it left.
        eof_task = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                get_task = asyncio.ensure_future(queue.get())
                done, _pending = await asyncio.wait(
                    {get_task, eof_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if eof_task in done:
                    get_task.cancel()
                    return  # client went away; finally releases the sub
                event = get_task.result()
                if event is None:
                    break
                await stream.send(event)
            await stream.finish()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            if queue in record.subscribers:
                record.subscribers.remove(queue)
            if not eof_task.done():
                eof_task.cancel()

    # ------------------------------------------------------------------
    # Health and metrics
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` document (also handy for in-process tests)."""
        lanes = {}
        counters = {
            "retries": 0,
            "respawns": 0,
            "quarantined": 0,
            "preemptions": 0,
        }
        last_quarantine = None
        for klass, lane in self.lanes.items():
            liveness = lane.liveness()
            liveness["queue_depth"] = lane.queue_depth
            liveness["live_jobs"] = lane.live_jobs
            # A lane whose pool has zero live workers (every process
            # died in a respawn storm, or respawns are still racing the
            # reaper) must say so explicitly — claiming health while
            # unable to serve is the one lie /healthz must never tell.
            liveness["degraded"] = int(liveness.get("alive") or 0) == 0
            lanes[klass] = liveness
            stats = lane.stats
            for key in counters:
                counters[key] += int(stats.get(key, 0))
            lane_quarantine = liveness.get("last_quarantine_at")
            if lane_quarantine is not None and (
                last_quarantine is None or lane_quarantine > last_quarantine
            ):
                last_quarantine = lane_quarantine
        # Both lanes share one store directory, hence one quarantine —
        # read it once through either lane.
        quarantine = self.lanes[CLASS_INTERACTIVE].quarantine_records()
        for entry in quarantine:
            stamp = entry.get("quarantined_at")
            if stamp is not None and (
                last_quarantine is None or stamp > last_quarantine
            ):
                last_quarantine = stamp
        healthy = not any(lane["degraded"] for lane in lanes.values())
        return {
            "status": "ok" if healthy else "degraded",
            "lanes": lanes,
            "counters": counters,
            "quarantine": quarantine,
            "last_quarantine_at": last_quarantine,
            "admission": self.admission.depth_snapshot(),
            "brownout": self.admission.brownout_snapshot(),
            "preemptions_triggered": self.preemptions_triggered,
            "latency": self.latency.snapshot(),
            "jobs": dict(self._status_counts),
            "history_profiles": len(self.history),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the scheduler's counters."""
        lines: List[str] = []

        def metric(name: str, help_text: str, kind: str, samples) -> None:
            lines.append("# HELP %s %s" % (name, help_text))
            lines.append("# TYPE %s %s" % (name, kind))
            # A family with no samples yet still scrapes as zero — the
            # strict parser (repro.obs.validate) rejects empty families.
            samples = list(samples) or [({}, 0)]
            for labels, value in samples:
                label_text = (
                    "{%s}" % ",".join(
                        '%s="%s"' % (k, v) for k, v in sorted(labels.items())
                    )
                    if labels
                    else ""
                )
                lines.append("%s%s %s" % (name, label_text, value))

        depth = self.admission.depth_snapshot()
        latency = self.latency.snapshot()
        metric(
            "repro_queue_depth",
            "Jobs queued but not yet dispatched, per lane.",
            "gauge",
            [
                ({"class": klass}, self.lanes[klass].queue_depth)
                for klass in CLASSES
            ],
        )
        metric(
            "repro_jobs_inflight",
            "Admitted jobs not yet finished, per class.",
            "gauge",
            [({"class": k}, depth[k]["live"]) for k in CLASSES],
        )
        metric(
            "repro_jobs_rejected_total",
            "Submissions rejected with 429, per class.",
            "counter",
            [({"class": k}, depth[k]["rejected"]) for k in CLASSES],
        )
        brownout = self.admission.brownout_snapshot()
        metric(
            "repro_brownout_active",
            "1 while batch admissions are being shed to protect the "
            "interactive lane.",
            "gauge",
            [({}, 1 if brownout["active"] else 0)],
        )
        metric(
            "repro_brownout_rejections_total",
            "Batch submissions shed while brownout was active.",
            "counter",
            [({}, brownout["rejections"])],
        )
        metric(
            "repro_preemptions_total",
            "Running attempts preempted to a mid-level checkpoint, "
            "per lane.",
            "counter",
            [
                ({"class": klass},
                 int(self.lanes[klass].stats.get("preemptions", 0)))
                for klass in CLASSES
            ],
        )
        metric(
            "repro_preemption_triggers_total",
            "Interactive admissions that evicted a batch attempt.",
            "counter",
            [({}, self.preemptions_triggered)],
        )
        metric(
            "repro_jobs_total",
            "Finished jobs by terminal status.",
            "counter",
            [
                ({"status": status}, count)
                for status, count in sorted(self._status_counts.items())
            ],
        )
        metric(
            "repro_latency_seconds",
            "Windowed completion latency quantiles, per class.",
            "gauge",
            [
                ({"class": klass, "quantile": quantile}, latency[klass][key])
                for klass in CLASSES
                for quantile, key in (("0.5", "p50_s"), ("0.99", "p99_s"))
            ],
        )
        worker_samples = []
        utilisation_samples = []
        for klass in CLASSES:
            liveness = self.lanes[klass].liveness()
            worker_samples.append(({"class": klass}, liveness["alive"]))
            capacity = max(1, int(liveness.get("capacity") or 0))
            utilisation_samples.append(
                ({"class": klass}, "%.4f" % (liveness["load"] / capacity))
            )
        metric(
            "repro_workers_alive",
            "Live worker processes, per lane.",
            "gauge",
            worker_samples,
        )
        metric(
            "repro_worker_utilization",
            "Occupied worker slots over capacity, per lane.",
            "gauge",
            utilisation_samples,
        )
        if self.store_dir is not None:
            store = CheckpointStore(
                os.path.join(self.store_dir, CHECKPOINTS_SUBDIR)
            )
            keys = store.keys()
            metric(
                "repro_checkpoint_store_keys",
                "Checkpointed queries currently on disk.",
                "gauge",
                [({}, len(keys))],
            )
            metric(
                "repro_checkpoint_store_bytes",
                "Bytes the checkpoint store occupies on disk.",
                "gauge",
                [({}, sum(store.size_of(key) for key in keys))],
            )
        builds = self._plane_totals["builds"]
        hits = self._plane_totals["hits"]
        metric(
            "repro_plane_cache_hit_rate",
            "Packed-plane cache hits over lookups, across finished jobs.",
            "gauge",
            [({}, "%.4f" % (hits / max(1, hits + builds)))],
        )
        # Span-fed stage/job histograms (repro.obs.metrics registry).
        return "\n".join(lines) + "\n" + self.obs.render()

    # ------------------------------------------------------------------
    def _prune_checkpoints(self) -> None:
        if self.checkpoint_budget_bytes is None or self.store_dir is None:
            return
        store = CheckpointStore(
            os.path.join(self.store_dir, CHECKPOINTS_SUBDIR)
        )
        store.prune(max_bytes=self.checkpoint_budget_bytes)


__all__ = ["SynthesisServer", "FINISHED_RECORDS_KEPT"]
