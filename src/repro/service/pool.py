"""The multi-core worker pool with universe-affinity scheduling.

Each worker process owns a long-lived, *warm*
:class:`~repro.api.session.Session` (a
:class:`~repro.service.store.StoreBackedSession` when the pool has a
persistent store), so the staging artifacts a worker has already built
or loaded stay hot in its memory.  The scheduler exploits exactly that:
jobs carry the :func:`~repro.service.wire.staging_fingerprint` of their
example-string set, and the dispatcher routes a job to a worker that is
already warm on that fingerprint — falling back to *work-stealing* (the
least-loaded cold worker takes the job) when every warm worker is
saturated.  Affinity is a performance routing decision only: any worker
answers any job bit-identically, so stealing never changes results.

Plumbing (all standard ``multiprocessing``):

* one task queue per worker (so affinity routing is explicit),
* one result queue per worker, drained by a collector thread in the
  parent (job results, forwarded progress events, worker stats).  The
  result path is deliberately *not* shared: a ``multiprocessing.Queue``
  write lock dies with whichever process holds it, so with a shared
  queue one SIGKILLed worker whose feeder thread was mid-write would
  deadlock every other worker's reporting.  Per-worker queues confine
  that poisoning to the dead worker, and the reaper replaces its queue
  along with its process,
* one shared-memory array of control bytes, ``per_worker_depth``
  slots per worker.  A dispatch claims one of its worker's free slots
  and names it in the task; the parent sets the slot's cancel and
  preempt bits under the pool lock, and the request's ``cancel`` and
  ``preempt`` probes, which the engine polls at its safe points, read
  the byte directly (no IPC, no helper thread).

Progress events stream back with their engine-side monotonic
``elapsed_s`` intact, so a cross-process progress stream reads exactly
like an in-process one.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import random
import threading
import time
import traceback
from pathlib import Path
from queue import Empty
from collections import OrderedDict
from dataclasses import replace as dataclasses_replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.config import EngineConfig, SynthesisRequest
from ..api.registry import default_registry
from ..api.session import Session
from ..core.result import SynthesisResult
from ..obs.export import stage_summary, trace_payload
from ..obs.trace import TraceContext, Tracer, span_record
from ..testing.faults import fault_point
from .checkpoint import CheckpointStore
from .queue import Job, JobHandle, JobQueue, cancelled_result
from .store import (
    ResultStore,
    StagingStore,
    StoreBackedSession,
    atomic_write_bytes,
)
from .wire import PRIORITY_HIGH, PRIORITY_NORMAL, WireRequest

#: Store layout under a service root directory.
STAGING_SUBDIR = "staging"
RESULTS_SUBDIR = "results"
CHECKPOINTS_SUBDIR = "checkpoints"
QUARANTINE_SUBDIR = "quarantine"

#: Staging artifacts a worker's session keeps in memory (its LRU
#: bound), and so the fingerprints the affinity map counts it warm on.
MAX_STAGED_PER_WORKER = 64

#: Bits of a job's control byte (see :meth:`WorkerPool._claim_slot`):
#: cancel stops the job for good, preempt checkpoints it at the next
#: safe point and hands it back.
_CANCEL = 1
_PREEMPT = 2


def _control_probe(control, slot: int, bit: int) -> Callable[[], bool]:
    """An engine probe: is ``bit`` set in control byte ``slot``?"""
    return lambda: bool(control[slot] & bit)


def _worker_main(
    worker_id: int,
    config: EngineConfig,
    store_dir: Optional[str],
    checkpoints: bool,
    control,
    task_queue,
    result_queue,
) -> None:
    """Worker process body: one warm session, jobs until told to stop."""
    staging_store = (
        StagingStore(os.path.join(store_dir, STAGING_SUBDIR))
        if store_dir is not None
        else None
    )
    checkpoint_store = (
        CheckpointStore(os.path.join(store_dir, CHECKPOINTS_SUBDIR))
        if store_dir is not None and checkpoints
        else None
    )
    session = StoreBackedSession(
        config,
        max_staged=MAX_STAGED_PER_WORKER,
        staging_store=staging_store,
        checkpoint_store=checkpoint_store,
    )
    while True:
        message = task_queue.get()
        if message[0] == "shutdown":
            break
        _, job_id, wire, slot = message
        fault_point("pool.worker.before_job")

        def forward_progress(event) -> None:
            # The final event's incumbent is the full result, which the
            # ``done`` message already carries; strip it here and let
            # the parent re-attach it, so the result crosses the pipe
            # once.
            if event.incumbent is not None:
                event = dataclasses_replace(event, incumbent=None)
            result_queue.put(("progress", worker_id, job_id, event))

        request = wire.to_request().replace(
            cancel=_control_probe(control, slot, _CANCEL),
            preempt=_control_probe(control, slot, _PREEMPT),
            on_progress=forward_progress,
        )
        tracer = None
        if wire.trace_ctx is not None:
            # Seed this process's recorder with the submitter's context:
            # the worker-job span hangs off the server's root span, and
            # every engine/session span nests under it.  The worker owns
            # draining — the session sees a live tracer and leaves the
            # harvest to us (see api.session._tracer_for).
            tracer = Tracer(
                wire.trace_ctx.trace_id,
                process="pool-worker-%d" % worker_id,
                parent_span_id=wire.trace_ctx.parent_span_id,
            )
            request = request.replace(tracer=tracer)
        try:
            job_span = (
                tracer.start("worker-job", job_id=job_id)
                if tracer is not None
                else None
            )
            result = session.synthesize(request)
            if job_span is not None:
                tracer.finish(job_span, status=result.status)
                if isinstance(result.extra, dict):
                    result.extra["trace"] = trace_payload(
                        tracer.trace_id, tracer.drain()
                    )
            if result.status == "preempted":
                # The injection point for dying between the preemption
                # checkpoint and the handback — the reaper then retries
                # the job, which resumes from the same in-level record.
                fault_point("pool.worker.preempt")
            fault_point("pool.worker.after_job")
            result_queue.put(
                ("done", worker_id, job_id, result, _session_stats(session))
            )
        except BaseException:
            result_queue.put(
                ("error", worker_id, job_id, traceback.format_exc())
            )
    result_queue.put(("stats", worker_id, _session_stats(session)))


def _session_stats(session: Session) -> Dict[str, int]:
    """A picklable snapshot of a worker session's amortisation stats."""
    snapshot = {
        "requests_served": session.stats.requests_served,
        "staging_builds": session.stats.staging_builds,
        "staging_hits": session.stats.staging_hits,
    }
    if isinstance(session, StoreBackedSession):
        snapshot["store_loads"] = session.store_loads
        snapshot["store_saves"] = session.store_saves
        snapshot["checkpoint_loads"] = session.checkpoint_loads
        snapshot["checkpoint_saves"] = session.checkpoint_saves
        snapshot["checkpoint_errors"] = session.checkpoint_errors
        snapshot["resumed_queries"] = session.resumed_queries
    return snapshot


class _WorkerState:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("worker_id", "process", "task_queue", "result_queue",
                 "inflight", "warm", "served", "stats", "dead")

    def __init__(self, worker_id: int, process, task_queue, result_queue):
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.result_queue = result_queue
        self.inflight: set = set()
        #: Staging fingerprints this worker's session is warm on
        #: (insertion-ordered, bounded like the session's LRU).
        self.warm: "OrderedDict[str, bool]" = OrderedDict()
        self.served = 0
        self.stats: Dict[str, int] = {}
        #: Set when the process died without a farewell (crash/kill);
        #: dead workers are excluded from dispatch.
        self.dead = False

    # OrderedDict-LRU update mirroring Session's staging cache bound.
    def mark_warm(self, staging_fp: str) -> None:
        self.warm[staging_fp] = True
        self.warm.move_to_end(staging_fp)
        while len(self.warm) > MAX_STAGED_PER_WORKER:
            self.warm.popitem(last=False)


class WorkerPool:
    """A process pool of warm sessions behind an affinity scheduler.

    The service object: the HTTP server's lanes, ``repro serve --jobs``,
    the evaluation harness and the benchmarks all drive it directly::

        with WorkerPool(workers=4, store_dir="service-state") as pool:
            results = pool.map(specs)                 # pool-parallel
            handle = pool.submit(spec, priority=PRIORITY_HIGH)
            handle.cancel()

    ``per_worker_depth`` bounds how many jobs may be in flight on one
    worker at a time (depth > 1 lets the affinity scheduler pipeline
    same-universe jobs onto the warm worker); ``reuse_results`` answers
    repeat submissions from the persistent result store without running
    anything.
    """

    def __init__(
        self,
        workers: int = 4,
        config: Optional[EngineConfig] = None,
        store_dir: Optional[str] = None,
        per_worker_depth: int = 2,
        reuse_results: bool = False,
        retry_max_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        retry_jitter: float = 0.25,
        checkpoints: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if per_worker_depth < 1:
            raise ValueError("per_worker_depth must be >= 1")
        if retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        self.config = config if config is not None else EngineConfig()
        default_registry().resolve(self.config.backend)  # fail fast
        self.n_workers = workers
        self.store_dir = str(store_dir) if store_dir is not None else None
        self.per_worker_depth = per_worker_depth
        self.reuse_results = reuse_results
        #: Total dispatch attempts a job gets before quarantine (so a
        #: job survives ``retry_max_attempts - 1`` worker deaths).
        self.retry_max_attempts = retry_max_attempts
        #: Base of the exponential retry backoff (delay of retry *n* is
        #: ``retry_backoff_s * 2**(n-1)``).
        self.retry_backoff_s = retry_backoff_s
        if retry_jitter < 0:
            raise ValueError("retry_jitter must be >= 0")
        #: Random jitter fraction on every backoff delay (a delay of
        #: ``d`` becomes ``d * uniform(1, 1 + retry_jitter)``), so jobs
        #: orphaned or preempted together don't requeue in lockstep.
        self.retry_jitter = retry_jitter
        self.checkpoints = checkpoints
        # The parent only touches results (dedup fast path + persisting
        # answers); staging stores live worker-side, in each worker's
        # StoreBackedSession.
        self.result_store: Optional[ResultStore] = (
            ResultStore(os.path.join(self.store_dir, RESULTS_SUBDIR))
            if self.store_dir is not None
            else None
        )
        self.queue = JobQueue()
        self.queue._running_cancel_hook = self._cancel_running
        self.stats: Dict[str, int] = {
            "affinity_hits": 0,
            "steals": 0,
            "cold_assignments": 0,
            "result_hits": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "quarantined": 0,
            "respawns": 0,
            "preemptions": 0,
            #: Checkpoint restores and writes that failed in the
            #: workers' sessions (the run went on cold or unjournalled);
            #: summed from each report's delta, so respawns keep it.
            "checkpoint_errors": 0,
        }
        self._lock = threading.RLock()
        #: job_id → (job, backoff timer) for jobs waiting out a retry
        #: delay — neither pending nor in flight, but still live.
        self._retrying: Dict[str, Tuple[Job, threading.Timer]] = {}
        self._workers: List[_WorkerState] = []
        self._jobs_by_id: Dict[str, Job] = {}
        #: Control bytes shared with every worker (created by start()),
        #: and job_id → the slot its current attempt owns in them.
        self._control = None
        self._slots: Dict[str, int] = {}
        #: job_id → monotonic dispatch epoch of the current attempt
        #: (what "longest-running" means to the preemption picker).
        self._dispatched_at: Dict[str, float] = {}
        self._pending_final_events: Dict[str, object] = {}
        #: Traced jobs only: submit epoch (for the queue-wait span) and
        #: parent-side spans waiting to join the result's trace.
        self._submitted_at: Dict[str, float] = {}
        self._parent_spans: Dict[str, List[dict]] = {}
        #: Epoch of the most recent quarantine (surfaced by /healthz).
        self.last_quarantine_at: Optional[float] = None
        self._mp = multiprocessing.get_context()
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the workers and the collector thread (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._control = self._mp.RawArray(
                "B", self.n_workers * self.per_worker_depth
            )
            for worker_id in range(self.n_workers):
                task_queue = self._mp.Queue()
                result_queue = self._mp.Queue()
                process = self._spawn_process(
                    worker_id, task_queue, result_queue
                )
                self._workers.append(
                    _WorkerState(worker_id, process, task_queue, result_queue)
                )
            self._collector_stop = threading.Event()
            self._collector = threading.Thread(
                target=self._collect, daemon=True, name="repro-collector"
            )
            self._collector.start()
            self._started = True
        return self

    def _spawn_process(self, worker_id: int, task_queue, result_queue):
        """Start one worker process (initial spawn and respawn share it).

        Workers are daemonic, so multiprocessing's own exit handler
        stops any that :meth:`close` never stopped, and an interpreter
        exit never waits on them.  A daemonic process may not start
        children, and needs none: a :class:`WireRequest` never carries
        a fan-out, so every job runs the serial engine in its worker.
        """
        process = self._mp.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.config,
                self.store_dir,
                self.checkpoints,
                self._control,
                task_queue,
                result_queue,
            ),
            daemon=True,
            name="repro-worker-%d" % worker_id,
        )
        process.start()
        return process

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)

    def close(
        self, wait: bool = True, cancel_pending: bool = False
    ) -> None:
        """Stop the pool.

        ``wait`` drains every live job first; ``cancel_pending`` cancels
        the still-queued ones instead of running them.
        """
        with self._lock:
            if not self._started or self._closing:
                return
            self._closing = True
        if cancel_pending:
            for job in self.queue.pending_in_order():
                JobHandle(job, self.queue).cancel()
        if wait:
            self.join()
        for worker in self._workers:
            worker.task_queue.put(("shutdown",))
        for worker in self._workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - safety net
                worker.process.terminate()
                worker.process.join(timeout=5)
        # Stop the collector: the flag is honoured only after a sweep
        # that drained nothing, so everything already queued (the
        # workers' farewell stats) is processed first.
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(timeout=10)
        # Release the queues without the interpreter-exit join: a
        # killed worker can leave a feeder thread wedged, and the
        # default atexit handler would join it forever.  Nothing useful
        # remains in these buffers — every outcome was settled above or
        # is failed below.
        for worker in self._workers:
            worker.task_queue.close()
            worker.task_queue.cancel_join_thread()
            worker.result_queue.close()
            worker.result_queue.cancel_join_thread()
        # Whatever is still unanswered now (``wait=False`` with jobs in
        # flight, or a worker terminated past the join timeout) will
        # never get a worker reply — fail it so blocked
        # ``JobHandle.result()`` callers raise instead of hanging.
        # Retry timers are cancelled the same way: their jobs would
        # requeue into a stopped pool.
        with self._lock:
            orphaned = list(self._jobs_by_id.values())
            retrying = list(self._retrying.values())
            self._retrying.clear()
        for job, timer in retrying:
            timer.cancel()
            orphaned.append(job)
        for job in orphaned:
            self.queue.fail(job, "pool shut down before the job completed")
        for job in self.queue.pending_in_order():
            if self.queue.mark_running(job, -1):
                self.queue.fail(
                    job, "pool shut down before the job completed")
        # Reset to a restartable state: a later start() spawns a fresh
        # pool instead of stacking onto stale workers, and submit()'s
        # "not running" error stays accurate.
        with self._lock:
            self._workers = []
            self._jobs_by_id.clear()
            self._control = None
            self._slots.clear()
            self._dispatched_at.clear()
            self._pending_final_events.clear()
            self._submitted_at.clear()
            self._parent_spans.clear()
            self._collector = None
            self._started = False
            self._closing = False

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.queue.live_jobs:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request,
        priority: int = PRIORITY_NORMAL,
        on_progress: Optional[Callable[[object], None]] = None,
    ) -> JobHandle:
        """Submit a request/spec/pair; returns a :class:`JobHandle`.

        Identical in-flight submissions are deduplicated onto one job;
        with ``reuse_results`` and a persistent store, previously
        answered fingerprints return a completed handle immediately.

        A :class:`SynthesisRequest`'s own hooks keep working through
        the pool: its ``on_progress`` receives the forwarded events
        (alongside any ``on_progress`` passed here), and its ``cancel``
        probe is polled parent-side — between forwarded progress
        messages and on the collector's idle tick — cancelling the job
        exactly like :meth:`JobHandle.cancel` would.
        """
        if not self._started or self._closing:
            raise RuntimeError("pool is not running (call start())")
        cancel_probe = None
        if isinstance(request, SynthesisRequest):
            if request.on_progress is not None and on_progress is None:
                on_progress = request.on_progress
            elif request.on_progress is not None:
                callbacks = (request.on_progress, on_progress)

                def on_progress(event, _callbacks=callbacks):  # noqa: F811
                    for callback in _callbacks:
                        callback(event)

            cancel_probe = request.cancel
        wire = WireRequest.of(request, default_config=self.config)
        # In-process minting point: a traced config without an explicit
        # context (an in-process submit with ``trace=True``) gets a
        # fresh root trace here — the fingerprint ignores it, so dedup
        # against untraced submissions is unaffected.
        if wire.config.trace and wire.trace_ctx is None:
            wire = dataclasses_replace(wire, trace_ctx=TraceContext.mint())
        stored_lookup = None
        if self.reuse_results and self.result_store is not None:
            stored_lookup = self.result_store.load_result
        handle = self.queue.submit(
            wire, priority=priority, on_progress=on_progress,
            stored_lookup=stored_lookup,
        )
        if handle.from_store:
            with self._lock:
                self.stats["result_hits"] += 1
            return handle
        if wire.trace_ctx is not None:
            with self._lock:
                # setdefault: a deduplicated resubmission must not reset
                # the original submission's queue-wait clock.
                self._submitted_at.setdefault(
                    handle._job.job_id, time.time()
                )
        if cancel_probe is not None:
            handle._job.cancel_probes.append(cancel_probe)
            self._poll_cancel_probes(handle._job)
        if not handle.deduplicated:
            self._dispatch()
        return handle

    def synthesize(
        self,
        request,
        priority: int = PRIORITY_NORMAL,
        timeout: Optional[float] = None,
    ) -> SynthesisResult:
        """Serve one request through the pool, blocking for the answer."""
        return self.submit(request, priority=priority).result(timeout=timeout)

    def map(
        self,
        requests: Iterable[object],
        priority: int = PRIORITY_NORMAL,
        timeout: Optional[float] = None,
    ) -> List[SynthesisResult]:
        """Submit many requests and gather results in request order."""
        handles = [self.submit(r, priority=priority) for r in requests]
        return [handle.result(timeout=timeout) for handle in handles]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job by id; True if it was still live."""
        with self._lock:
            job = self._jobs_by_id.get(job_id)
        if job is None:
            job = next(
                (j for j in self.queue.pending_in_order()
                 if j.job_id == job_id),
                None,
            )
        if job is None:
            return False
        return JobHandle(job, self.queue).cancel()

    # ------------------------------------------------------------------
    # Preemption: checkpoint a running job and hand its worker back
    # ------------------------------------------------------------------
    def preempt(self, job_id: str) -> bool:
        """Ask a running job to yield at its next safe point.

        The worker checkpoints mid-level (when a store is attached) and
        returns the job with ``status="preempted"``; the pool requeues
        it at its prior priority to resume from the checkpoint.  True
        iff the signal was delivered to a running job (idempotent — a
        second call on the same attempt is a no-op that still returns
        True).
        """
        with self._lock:
            slot = self._slots.get(job_id)
            if slot is None:
                return False
            self._control[slot] |= _PREEMPT
        return True

    def preempt_longest_running(self) -> Optional[str]:
        """Preempt the running job whose current attempt is oldest.

        The admission layer's lever when the interactive lane
        saturates: the longest-running batch job is the one holding a
        worker the longest and the one with the most checkpointed
        progress to resume from.  Jobs already asked to yield are
        skipped, so a saturation burst preempts distinct jobs instead
        of hammering one.  Returns the preempted job id, or None when
        nothing is preemptible.
        """
        with self._lock:
            for _, job_id in sorted(
                (dispatched, job_id)
                for job_id, dispatched in self._dispatched_at.items()
            ):
                slot = self._slots[job_id]
                if not self._control[slot] & _PREEMPT:
                    self._control[slot] |= _PREEMPT
                    return job_id
        return None

    # ------------------------------------------------------------------
    # Scheduling: universe affinity with work-stealing
    # ------------------------------------------------------------------
    @staticmethod
    def plan_assignments(
        pending: Sequence,
        worker_loads: Sequence[int],
        worker_warm: Sequence[Iterable[str]],
        depth: int,
    ) -> List[tuple]:
        """Pure scheduling decision, exposed for deterministic tests.

        ``pending`` is an ordered sequence of objects with a
        ``staging_fp`` attribute and ``worker_loads`` counts each
        worker's jobs in flight; returns ``(index_in_pending,
        worker_id, kind)`` triples with ``kind`` one of ``"affinity"``
        (routed to a warm worker), ``"steal"`` (a warm worker exists but
        is saturated — a cold worker takes the job) or ``"cold"``
        (nobody is warm).  Jobs are considered in queue order, each
        assignment takes one of the chosen worker's ``depth`` slots (a
        job is one serial query, so it needs no more), and planning
        stops once every worker is full.
        """
        loads = list(worker_loads)
        warm_sets = [set(w) for w in worker_warm]
        plan: List[tuple] = []
        for index, job in enumerate(pending):
            free = [w for w in range(len(loads)) if loads[w] < depth]
            if not free:
                break  # every worker saturated
            warm_free = [w for w in free if job.staging_fp in warm_sets[w]]
            if warm_free:
                target = min(warm_free, key=lambda w: (loads[w], w))
                kind = "affinity"
            else:
                target = min(free, key=lambda w: (loads[w], w))
                kind = (
                    "steal"
                    if any(job.staging_fp in s for s in warm_sets)
                    else "cold"
                )
            loads[target] += 1
            warm_sets[target].add(job.staging_fp)
            plan.append((index, target, kind))
        return plan

    def _dispatch(self) -> None:
        """Assign as many pending jobs as free capacity allows."""
        with self._lock:
            pending = self.queue.pending_in_order()
            if not pending:
                return
            # A crashed worker is only marked dead by the reaper on the
            # collector's next idle tick; in that window a dispatch to
            # it would land on a task queue the respawn then discards,
            # stranding the job.  Checking process liveness here closes
            # that window.
            alive = [
                w
                for w in self._workers
                if not w.dead
                and w.process is not None
                and w.process.is_alive()
            ]
            if not alive:
                return
            plan = self.plan_assignments(
                pending,
                [len(w.inflight) for w in alive],
                [w.warm.keys() for w in alive],
                self.per_worker_depth,
            )
            for index, alive_index, kind in plan:
                job = pending[index]
                worker = alive[alive_index]
                slot = self._claim_slot(worker)
                if not self.queue.mark_running(job, worker.worker_id):
                    continue  # cancelled since the snapshot
                key = (
                    "affinity_hits" if kind == "affinity"
                    else "steals" if kind == "steal"
                    else "cold_assignments"
                )
                self.stats[key] += 1
                self._slots[job.job_id] = slot
                self._dispatched_at[job.job_id] = time.monotonic()
                self._jobs_by_id[job.job_id] = job
                worker.inflight.add(job.job_id)
                worker.mark_warm(job.staging_fp)
                self._record_queue_wait(job)
                worker.task_queue.put(("job", job.job_id, job.wire, slot))

    def _claim_slot(self, worker: _WorkerState) -> int:
        """Zero and return a control slot of ``worker`` that no job in
        flight on it owns (caller holds ``self._lock``).

        The scheduler never puts more than ``per_worker_depth`` jobs on
        one worker, so a free slot always exists; if none does, raise
        rather than let two jobs share their cancel and preempt bits.
        """
        base = worker.worker_id * self.per_worker_depth
        owned = {self._slots.get(job_id) for job_id in worker.inflight}
        for slot in range(base, base + self.per_worker_depth):
            if slot not in owned:
                self._control[slot] = 0
                return slot
        raise RuntimeError(
            "worker %d has no free control slot" % worker.worker_id
        )

    def _record_queue_wait(self, job: Job) -> None:
        """Close a traced job's queue-wait span at dispatch time.

        Parent-side span (the worker never sees how long the job sat in
        the queue); joined onto the result's trace in :meth:`_on_done`.
        Called under ``self._lock`` from :meth:`_dispatch`; a retry
        dispatch finds no submit epoch (popped the first time) and
        records nothing, so the span measures the *first* wait only.
        """
        ctx = job.wire.trace_ctx
        submitted = self._submitted_at.pop(job.job_id, None)
        if ctx is None or submitted is None:
            return
        self._parent_spans.setdefault(job.job_id, []).append(
            span_record(
                "queue-wait", ctx.trace_id, ctx.parent_span_id, submitted,
                time.time(), "pool", {"job_id": job.job_id},
            )
        )

    def _cancel_running(self, job: Job) -> None:
        """JobQueue hook: deliver cancellation to a running job.

        A job in flight gets the cancel bit of its control slot.  A job
        waiting out a retry or preemption backoff owns no slot: its
        timer is dropped and the job ends ``cancelled`` here.
        """
        with self._lock:
            slot = self._slots.get(job.job_id)
            if slot is not None:
                self._control[slot] |= _CANCEL
                return
            waiting = self._retrying.pop(job.job_id, None)
        if waiting is not None:
            waiting[1].cancel()
            self.queue.finish(job, cancelled_result(job.wire, "backoff"))

    # ------------------------------------------------------------------
    # Collector: results, progress, stats
    # ------------------------------------------------------------------
    #: One collector sweep drains at most this many messages from a
    #: single worker before moving on, so one chatty worker cannot
    #: starve the others' results.
    _COLLECT_BATCH = 128

    def _collect(self) -> None:
        while True:
            with self._lock:
                queues = [w.result_queue for w in self._workers]
            drained = 0
            for queue in queues:
                for _ in range(self._COLLECT_BATCH):
                    try:
                        message = queue.get_nowait()
                    except Empty:
                        break
                    except Exception:
                        # This one queue failed (torn down, or its
                        # worker was killed mid-write): the reaper
                        # respawns the worker with a fresh queue, and
                        # the other workers' queues are untouched.
                        traceback.print_exc()
                        break
                    drained += 1
                    self._handle_message(message)
            if drained:
                continue
            # Idle tick.  The stop flag is honoured only once every
            # queue is drained, so the workers' farewell "stats"
            # messages are always processed.
            if self._collector_stop.is_set():
                return
            self._reap_dead_workers()
            self._poll_cancel_probes()
            self._wait_for_messages(queues, timeout=0.5)

    def _handle_message(self, message) -> None:
        # A handler bug (or a failing store write) must never kill
        # the collector — a dead collector hangs every handle and
        # close(wait=True) forever.
        kind = message[0]
        try:
            if kind == "progress":
                _, worker_id, job_id, event = message
                self._on_progress(job_id, event)
            elif kind == "done":
                _, worker_id, job_id, result, stats = message
                self._on_done(worker_id, job_id, result, stats)
            elif kind == "error":
                _, worker_id, job_id, text = message
                self._on_error(worker_id, job_id, text)
            elif kind == "stats":
                _, worker_id, stats = message
                with self._lock:
                    self._absorb_session_stats(self._workers[worker_id], stats)
        except Exception:  # pragma: no cover - defensive
            traceback.print_exc()

    @staticmethod
    def _wait_for_messages(queues, timeout: float) -> None:
        """Block until some worker's result pipe has data, or timeout.

        ``multiprocessing.connection.wait`` on the queues' read pipes
        keeps result delivery prompt without a busy poll; the plain
        sleep is the fallback for a queue implementation without an
        exposed reader pipe.
        """
        readers = [
            reader
            for reader in (getattr(q, "_reader", None) for q in queues)
            if reader is not None
        ]
        if not readers:  # pragma: no cover - non-CPython fallback
            time.sleep(min(timeout, 0.05))
            return
        try:
            multiprocessing.connection.wait(readers, timeout=timeout)
        except OSError:  # pragma: no cover - queue torn down mid-wait
            time.sleep(0.01)

    def _reap_dead_workers(self) -> None:
        """Recover from workers that died without replying.

        Only in-worker Python exceptions come back as ``error``
        messages; an OOM kill or segfault leaves the job unanswered, so
        the collector's idle tick checks process liveness.  Each dead
        worker is *respawned* (fresh process, fresh task queue — the old
        queue may hold undelivered messages the crash poisoned) and its
        orphaned jobs are *retried* with exponential backoff, up to
        :attr:`retry_max_attempts` dispatches, after which a job is
        quarantined and failed.  Level checkpoints make the retry cheap:
        the replacement run resumes from the last level the dead
        worker's session journalled.  If every worker is dead and none
        can be respawned (the pool is closing), still-queued jobs are
        failed so their handles never block forever.
        """
        orphaned: List[Job] = []
        stranded: List[Job] = []
        respawn: List[_WorkerState] = []
        with self._lock:
            # Reaping must keep working while the pool is closing:
            # ``close(wait=True)`` blocks on the live-job count, and
            # a worker that died mid-job can only be drained here.
            # Once the main thread has finished, the interpreter is
            # exiting without close(): multiprocessing's exit handler
            # stops the daemonic workers and then joins its children,
            # so a replacement spawned now would be joined forever.
            closing = self._closing or not threading.main_thread().is_alive()
            for worker in self._workers:
                if worker.dead or worker.process.is_alive():
                    continue
                worker.dead = True
                for job_id in sorted(worker.inflight):
                    job = self._jobs_by_id.pop(job_id, None)
                    self._slots.pop(job_id, None)
                    self._dispatched_at.pop(job_id, None)
                    self._pending_final_events.pop(job_id, None)
                    self._parent_spans.pop(job_id, None)
                    if job is not None:
                        orphaned.append(job)
                worker.inflight.clear()
                if not closing:
                    respawn.append(worker)
            if all(w.dead for w in self._workers) and not respawn:
                for job in self.queue.pending_in_order():
                    if self.queue.mark_running(job, -1):
                        stranded.append(job)
                        self.stats["failed"] += 1
        for worker in respawn:
            self._respawn_worker(worker)
        for job in stranded:
            self.queue.fail(
                job, "worker process died without reporting a result"
            )
        for job in orphaned:
            self._retry_or_fail(
                job, "worker process died without reporting a result"
            )
        if orphaned or respawn:
            self._dispatch()

    def _respawn_worker(self, worker: "_WorkerState") -> None:
        """Replace a dead worker's process and both its queues — the
        crash may have poisoned either one's lock or stream."""
        worker.task_queue.close()
        worker.task_queue.cancel_join_thread()
        worker.result_queue.close()
        worker.result_queue.cancel_join_thread()
        task_queue = self._mp.Queue()
        result_queue = self._mp.Queue()
        process = self._spawn_process(
            worker.worker_id, task_queue, result_queue
        )
        with self._lock:
            worker.process = process
            worker.task_queue = task_queue
            worker.result_queue = result_queue
            # The replacement session starts cold; with a store it
            # warm-starts from disk, but the affinity map must not
            # promise memory-warmth the new process does not have.
            worker.warm.clear()
            worker.stats = {}
            worker.dead = False
            self.stats["respawns"] += 1

    # ------------------------------------------------------------------
    # Retry with backoff (worker deaths only — in-worker exceptions are
    # deterministic and fail immediately via _on_error)
    # ------------------------------------------------------------------
    def _backoff_delay(self, round_number: int) -> float:
        """The jittered exponential delay of backoff round ``n`` (1-based).

        The jitter de-synchronises jobs backed off together — every
        worker death or preemption wave orphans several jobs at once,
        and without it they would all requeue in lockstep and contend
        for the same freed capacity again.
        """
        delay = self.retry_backoff_s * (2 ** max(0, round_number - 1))
        if self.retry_jitter:
            delay *= 1.0 + random.random() * self.retry_jitter
        return delay

    def _retry_or_fail(self, job: Job, error: str) -> None:
        with self._lock:
            if job.finished:
                return  # a racing cancellation already settled it
            if job.attempts < self.retry_max_attempts:
                self.stats["retries"] += 1
                delay = self._backoff_delay(job.attempts)
                timer = threading.Timer(delay, self._requeue_job, args=(job,))
                timer.daemon = True
                self._retrying[job.job_id] = (job, timer)
                timer.start()
                return
            self.stats["failed"] += 1
        self._quarantine(job, error)
        self.queue.fail(job, "%s (attempts=%d)" % (error, job.attempts))

    def _requeue_job(
        self, job: Job, priority: Optional[int] = PRIORITY_HIGH
    ) -> None:
        """Timer body: put a backed-off job back in the queue.

        A crash retry is *escalated* to high priority — the job (and
        every handle joined to it) has already waited out a full
        attempt, so it must not queue behind traffic that arrived after
        it.  A *preempted* job passes ``priority=None`` instead: it
        yielded on purpose and resumes at its prior priority (jumping
        the interactive lane it yielded to would defeat the point).
        """
        with self._lock:
            if self._retrying.pop(job.job_id, None) is None:
                return  # cancelled, or the pool stopped, meanwhile
            stopped = not self._started
        if stopped:
            self.queue.fail(
                job,
                "pool shut down before the job completed (attempts=%d)"
                % job.attempts,
            )
            return
        if self.queue.requeue(job, priority=priority):
            self._dispatch()

    def _quarantine(self, job: Job, error: str) -> None:
        """Record a poison job (kills every worker it touches) on disk."""
        quarantined_at = time.time()
        if self.store_dir is None:
            with self._lock:
                self.stats["quarantined"] += 1
                self.last_quarantine_at = quarantined_at
            return
        record = {
            "job_id": job.job_id,
            "fingerprint": job.fingerprint,
            "attempts": job.attempts,
            "error": error,
            "quarantined_at": quarantined_at,
            "request": job.wire.to_json_dict(),
        }
        path = (
            Path(self.store_dir)
            / QUARANTINE_SUBDIR
            / ("%s.json" % job.fingerprint)
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                path,
                json.dumps(record, indent=2, sort_keys=True).encode("utf-8"),
            )
        except OSError:  # pragma: no cover - the answer still fails below
            traceback.print_exc()
        with self._lock:
            self.stats["quarantined"] += 1
            self.last_quarantine_at = quarantined_at

    def _poll_cancel_probes(self, job: Optional[Job] = None) -> None:
        """Deliver cancellations requested through request-level
        ``cancel`` probes (polled parent-side; see :meth:`submit`)."""
        if job is not None:
            jobs = [job]
        else:
            with self._lock:
                jobs = [j for j in self._jobs_by_id.values()
                        if j.cancel_probes]
            jobs.extend(j for j in self.queue.pending_in_order()
                        if j.cancel_probes and j not in jobs)
        for candidate in jobs:
            if candidate.finished:
                continue
            try:
                fired = any(probe() for probe in candidate.cancel_probes)
            except Exception:  # pragma: no cover - user probe bug
                traceback.print_exc()
                continue
            if fired:
                JobHandle(candidate, self.queue).cancel()

    def _emit_progress(self, job: Job, event) -> None:
        for callback in list(job.progress_callbacks):
            try:
                callback(event)
            except Exception:  # pragma: no cover - user callback bug
                traceback.print_exc()

    def _on_progress(self, job_id: str, event) -> None:
        with self._lock:
            job = self._jobs_by_id.get(job_id)
        if job is None:
            return
        if getattr(event, "done", False):
            # Hold the final event until the result arrives, then emit
            # it with the incumbent re-attached (see _worker_main).
            with self._lock:
                self._pending_final_events[job_id] = event
            return
        self._emit_progress(job, event)
        if job.cancel_probes:
            self._poll_cancel_probes(job)

    def _release_worker(self, worker_id: int, job_id: str, stats) -> None:
        worker = self._workers[worker_id]
        worker.inflight.discard(job_id)
        worker.served += 1
        if stats:
            self._absorb_session_stats(worker, stats)
        self._slots.pop(job_id, None)
        self._dispatched_at.pop(job_id, None)

    def _absorb_session_stats(self, worker: "_WorkerState", stats) -> None:
        """Adopt a worker session's cumulative stats snapshot (caller
        holds ``self._lock``), adding its new checkpoint errors to the
        pool total."""
        new_errors = stats.get("checkpoint_errors", 0) - worker.stats.get(
            "checkpoint_errors", 0
        )
        self.stats["checkpoint_errors"] += max(0, new_errors)
        worker.stats = stats

    def _on_done(self, worker_id, job_id, result, stats) -> None:
        preempted = result.status == "preempted"
        with self._lock:
            job = self._jobs_by_id.pop(job_id, None)
            self._release_worker(worker_id, job_id, stats)
            final_event = self._pending_final_events.pop(job_id, None)
            if not preempted:
                parent_spans = self._parent_spans.pop(job_id, [])
                self._submitted_at.pop(job_id, None)
                self.stats["completed"] += 1
        if job is None:  # pragma: no cover - defensive
            return
        if preempted:
            self._on_preempted(job)
            return
        if isinstance(result.extra, dict):
            result.extra["attempts"] = job.attempts
            result.extra["preemptions"] = job.preemptions
        ctx = job.wire.trace_ctx
        # Persist deterministic outcomes only: a cancelled verdict is an
        # operational accident, not the content-addressed answer.  A
        # failing store write (full disk) must not block the answer.
        if self.result_store is not None and result.status != "cancelled":
            write_started = time.time() if ctx is not None else None
            try:
                self.result_store.save_result(job.fingerprint, result)
            except OSError:
                traceback.print_exc()
            if write_started is not None:
                parent_spans.append(
                    span_record(
                        "result-store-write", ctx.trace_id,
                        ctx.parent_span_id, write_started, time.time(),
                        "pool", {"fingerprint": job.fingerprint},
                    )
                )
        # Parent-side spans join the worker's trace after persistence —
        # queue wait and store writes are per-submission operational
        # events, not part of the content-addressed answer.
        if parent_spans and isinstance(result.extra, dict):
            trace = result.extra.get("trace")
            if isinstance(trace, dict):
                trace["spans"] = list(trace.get("spans") or []) + parent_spans
                trace["stages"] = stage_summary(trace["spans"])
            elif ctx is not None:
                result.extra["trace"] = trace_payload(
                    ctx.trace_id, parent_spans
                )
        # The final event goes out before the job finishes, so a caller
        # woken by completion has already seen every progress event.
        if final_event is not None:
            self._emit_progress(
                job, dataclasses_replace(final_event, incumbent=result)
            )
        self.queue.finish(job, result)
        self._dispatch()

    def _on_preempted(self, job: Job) -> None:
        """A worker handed a job back mid-run: requeue it to resume.

        The job goes back at its *prior* priority after a jittered
        backoff (it yielded the worker on purpose; jumping ahead of the
        traffic it yielded to would defeat the preemption).  The
        interrupted dispatch is refunded from the crash-retry budget —
        preemption is scheduling, not failure, and must never push a
        job toward quarantine.  The checkpoint store holds its partial
        progress, so the resumed attempt loses at most one checkpoint
        interval of work.
        """
        with self._lock:
            if job.finished:  # a racing cancellation settled it
                self._dispatch()
                return
            self.stats["preemptions"] += 1
            job.preemptions += 1
            job.attempts = max(0, job.attempts - 1)
            ctx = job.wire.trace_ctx
            if ctx is not None:
                now = time.time()
                self._parent_spans.setdefault(job.job_id, []).append(
                    span_record(
                        "preempted", ctx.trace_id, ctx.parent_span_id, now,
                        now, "pool",
                        {"job_id": job.job_id,
                         "preemptions": job.preemptions},
                    )
                )
            delay = self._backoff_delay(job.preemptions)
            timer = threading.Timer(
                delay, self._requeue_job, args=(job, None)
            )
            timer.daemon = True
            self._retrying[job.job_id] = (job, timer)
            timer.start()
        self._dispatch()

    def _on_error(self, worker_id, job_id, text) -> None:
        with self._lock:
            job = self._jobs_by_id.pop(job_id, None)
            self._release_worker(worker_id, job_id, None)
            self._pending_final_events.pop(job_id, None)
            self._parent_spans.pop(job_id, None)
            self._submitted_at.pop(job_id, None)
            self.stats["failed"] += 1
        if job is not None:
            self.queue.fail(job, text)
        self._dispatch()

    # ------------------------------------------------------------------
    # Introspection for the health/metrics endpoints
    # ------------------------------------------------------------------
    def liveness(self) -> Dict[str, object]:
        """Process liveness and load, as one JSON-ready snapshot.

        ``capacity`` is the scheduler-slot total (``alive × depth``) the
        admission layer sizes its quotas against; ``load`` the jobs in
        flight, so ``load / capacity`` is the pool's utilisation.
        """
        with self._lock:
            workers = list(self._workers)
            alive = sum(
                1
                for w in workers
                if not w.dead and w.process is not None
                and w.process.is_alive()
            )
            load = sum(len(w.inflight) for w in workers if not w.dead)
        return {
            "started": self._started,
            "workers": len(workers),
            "alive": alive,
            "dead": len(workers) - alive,
            "load": load,
            "capacity": alive * self.per_worker_depth,
            "last_quarantine_at": self.last_quarantine_at,
        }

    def quarantine_records(self) -> List[Dict[str, object]]:
        """The quarantined poison jobs on disk (ids, attempts, errors).

        Surfaced through ``GET /healthz`` so an operator sees poisoned
        jobs without shell access to the store directory.  Unreadable
        records are reported as such rather than hidden — quarantine is
        exactly the place where damaged artifacts congregate.
        """
        if self.store_dir is None:
            return []
        quarantine_dir = Path(self.store_dir) / QUARANTINE_SUBDIR
        records: List[Dict[str, object]] = []
        try:
            paths = sorted(quarantine_dir.glob("*.json"))
        except OSError:
            return []
        for path in paths:
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                records.append(
                    {"fingerprint": path.stem, "error": "unreadable record"}
                )
                continue
            records.append(
                {
                    "fingerprint": record.get("fingerprint", path.stem),
                    "job_id": record.get("job_id"),
                    "attempts": record.get("attempts"),
                    "error": record.get("error"),
                    "quarantined_at": record.get("quarantined_at"),
                }
            )
        return records

    # ------------------------------------------------------------------
    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-worker bookkeeping (served counts, warm sets, session
        stats as of the last completed job or close)."""
        with self._lock:
            return [
                {
                    "worker_id": w.worker_id,
                    "served": w.served,
                    "load": len(w.inflight),
                    "warm": list(w.warm.keys()),
                    "session": dict(w.stats),
                }
                for w in self._workers
            ]
