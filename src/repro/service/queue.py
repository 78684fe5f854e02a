"""The service's job queue: priorities, in-flight dedup, cancellation.

Jobs are keyed by the :meth:`~repro.service.wire.WireRequest.fingerprint`
content address.  Submitting a fingerprint that is already queued or
running does not enqueue a second copy — the new handle simply *joins*
the live job and receives the same result object when it completes
(the answer is provably identical, so running it twice would only burn
a worker).  Cancellation is job-level: cancelling through any joined
handle cancels the shared job for all of them.

The queue is a passive, lock-protected structure driven by the pool's
scheduler thread; it never talks to workers itself.  Ordering is
``(priority, submission order)`` — lower priority values run earlier,
ties are FIFO — but the scheduler may *peek* the pending list out of
order to honour universe affinity (see
:meth:`JobQueue.pending_in_order`).
"""

from __future__ import annotations

import functools
import threading
import traceback
from typing import Callable, Dict, List, Optional

from ..api.progress import ProgressEvent
from ..core.result import SynthesisResult
from ..errors import ReproError
from .wire import PRIORITY_NORMAL, WireRequest

#: Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"
JOB_FAILED = "failed"


class JobFailedError(ReproError):
    """Raised by :meth:`JobHandle.result` when the worker crashed."""


class Job:
    """One deduplicated unit of work (possibly joined by many handles)."""

    __slots__ = (
        "job_id",
        "fingerprint",
        "staging_fp",
        "wire",
        "priority",
        "seq",
        "state",
        "attempts",
        "preemptions",
        "worker_id",
        "result",
        "error",
        "progress_callbacks",
        "done_callbacks",
        "cancel_probes",
        "cancel_requested",
        "_finished",
    )

    def __init__(
        self,
        job_id: str,
        wire: WireRequest,
        priority: int,
        seq: int,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.job_id = job_id
        self.fingerprint = (
            fingerprint if fingerprint is not None else wire.fingerprint()
        )
        self.staging_fp = wire.staging_fingerprint()
        self.wire = wire
        self.priority = priority
        self.seq = seq
        self.state = JOB_QUEUED
        #: Dispatch count — 1 on the first run, +1 per retry after a
        #: worker death (surfaced in the result's ``extra["attempts"]``).
        self.attempts = 0
        #: Times this job was preempted mid-run and requeued (surfaced
        #: in the result's ``extra["preemptions"]``).  Preemptions are
        #: deliberate scheduling, not failures: they never count
        #: against the retry budget.
        self.preemptions = 0
        self.worker_id: Optional[int] = None
        self.result: Optional[SynthesisResult] = None
        self.error: Optional[str] = None
        self.progress_callbacks: List[Callable[[object], None]] = []
        #: Run once each, outside the queue lock, when the job reaches a
        #: terminal state (see :meth:`JobHandle.add_done_callback`).
        self.done_callbacks: List[Callable[[], None]] = []
        #: Parent-side cancellation probes (e.g. a request's own
        #: ``cancel`` token), polled by the pool between progress
        #: messages and on the collector's idle tick.
        self.cancel_probes: List[Callable[[], object]] = []
        #: Set when a cancel reaches the job while it is running: the
        #: job must not start another attempt (see :meth:`JobQueue.requeue`).
        self.cancel_requested = False
        self._finished = threading.Event()

    @property
    def sort_key(self):
        """Queue order: lower priority value first, then FIFO."""
        return (self.priority, self.seq)

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self._finished.is_set()

    def _finish(self) -> None:
        self._finished.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; False on timeout."""
        return self._finished.wait(timeout)


class JobHandle:
    """The caller's view of a submitted (possibly joined) job."""

    __slots__ = ("_job", "_queue", "deduplicated", "from_store")

    def __init__(
        self,
        job: Job,
        queue: "JobQueue",
        deduplicated: bool = False,
        from_store: bool = False,
    ) -> None:
        self._job = job
        self._queue = queue
        #: True when this submission joined an already-live job.
        self.deduplicated = deduplicated
        #: True when the result was answered from the persistent store.
        self.from_store = from_store

    @property
    def job_id(self) -> str:
        """The job's id (stable across joined handles)."""
        return self._job.job_id

    @property
    def fingerprint(self) -> str:
        """The request's content address."""
        return self._job.fingerprint

    @property
    def state(self) -> str:
        """Current job state (queued/running/done/cancelled/failed)."""
        return self._job.state

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._job.finished

    def cancel(self) -> bool:
        """Cancel the underlying job (for *all* joined handles).

        Returns True if the job was still live when the cancellation was
        delivered; a finished job is left untouched (False).
        """
        return self._queue._cancel(self._job)

    def add_done_callback(
        self, callback: Callable[["JobHandle"], None]
    ) -> None:
        """Call ``callback(handle)`` once the job reaches a terminal state.

        It runs, outside the queue lock, on whichever thread ends the
        job (usually the pool's collector), or at once on this thread
        if the job has already ended; a job answered from the result
        store is born ended.
        """
        self._queue._add_done_callback(
            self._job, functools.partial(callback, self)
        )

    def result(self, timeout: Optional[float] = None) -> SynthesisResult:
        """Block for the result.

        Raises :class:`TimeoutError` past ``timeout`` and
        :class:`JobFailedError` when the worker crashed.  A cancelled
        job returns its ``status == "cancelled"`` result normally.
        """
        if not self._job.wait(timeout):
            raise TimeoutError(
                "job %s not finished within %r s" % (self._job.job_id, timeout)
            )
        if self._job.state == JOB_FAILED:
            raise JobFailedError(
                "job %s failed in the worker: %s"
                % (self._job.job_id, self._job.error)
            )
        assert self._job.result is not None
        return self._job.result


class JobQueue:
    """Priorities + dedup + cancellation over live jobs (see module doc)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._seq = 0
        self._pending: List[Job] = []
        #: fingerprint → live (queued or running) job.
        self._live: Dict[str, Job] = {}
        self.submitted = 0
        self.deduplicated = 0
        self.cancelled = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def live_jobs(self) -> int:
        """Number of queued-or-running jobs."""
        with self._lock:
            return len(self._live)

    # ------------------------------------------------------------------
    def submit(
        self,
        wire: WireRequest,
        priority: int = PRIORITY_NORMAL,
        on_progress: Optional[Callable[[object], None]] = None,
        stored_lookup: Optional[Callable[[str], Optional[SynthesisResult]]] = None,
    ) -> JobHandle:
        """Enqueue a wire request (or join its live duplicate).

        ``stored_lookup`` is the persistent-result fast path: when no
        live duplicate exists, it is asked for a stored answer by
        fingerprint, and a hit returns an already-completed handle
        (``from_store=True``) without enqueuing anything.

        Joining a live duplicate *escalates* its priority when the new
        submission is more urgent (a queued job is re-ordered; a running
        one is already past scheduling), so a high-priority caller is
        never pinned to a low-priority duplicate's queue position.
        """
        fingerprint = wire.fingerprint()
        # The disk lookup runs OUTSIDE the lock (it is keyed purely by
        # the fingerprint), so slow I/O never serialises submitters or
        # the collector's state transitions; a live duplicate appearing
        # in the window simply wins below.
        stored = stored_lookup(fingerprint) if stored_lookup is not None else None
        stored_handle = None
        with self._lock:
            self.submitted += 1
            live = self._live.get(fingerprint)
            if live is not None:
                self.deduplicated += 1
                if on_progress is not None:
                    live.progress_callbacks.append(on_progress)
                if priority < live.priority and live.state == JOB_QUEUED:
                    live.priority = priority
                    self._pending.sort(key=lambda j: j.sort_key)
                return JobHandle(live, self, deduplicated=True)
            self._seq += 1
            job = Job(
                job_id="j%05d-%s" % (self._seq, fingerprint[:12]),
                wire=wire,
                priority=priority,
                seq=self._seq,
                fingerprint=fingerprint,
            )
            if stored is not None:
                job.result = stored
                job.state = JOB_DONE
                job._finish()
                stored_handle = JobHandle(job, self, from_store=True)
            else:
                if on_progress is not None:
                    job.progress_callbacks.append(on_progress)
                self._live[fingerprint] = job
                self._pending.append(job)
                self._pending.sort(key=lambda j: j.sort_key)
                return JobHandle(job, self)
        # Outside the lock (user code): a from_store answer still emits
        # the final done-event every other completion path produces;
        # ``elapsed_s`` is the stored run's engine wall-clock.
        if on_progress is not None:
            on_progress(ProgressEvent(
                cost=stored.cost if stored.cost is not None else -1,
                generated=stored.generated,
                stored=stored.unique_cs,
                elapsed_seconds=stored.elapsed_seconds,
                done=True,
                incumbent=stored,
                elapsed_s=stored.elapsed_seconds,
            ))
        return stored_handle

    def pending_in_order(self) -> List[Job]:
        """Snapshot of queued jobs in ``(priority, seq)`` order."""
        with self._lock:
            return list(self._pending)

    def mark_running(self, job: Job, worker_id: int) -> bool:
        """Move a pending job to ``running`` on ``worker_id``.

        Returns False when the job was cancelled (or otherwise removed)
        between scheduling and assignment.
        """
        with self._lock:
            if job.state != JOB_QUEUED or job not in self._pending:
                return False
            self._pending.remove(job)
            job.state = JOB_RUNNING
            job.attempts += 1
            job.worker_id = worker_id
            return True

    def requeue(self, job: Job, priority: Optional[int] = None) -> bool:
        """Put a running job back in the pending queue (worker died, or
        the job was preempted); True iff it was requeued.

        Only a live, running job can be requeued — a finished one (a
        late cancellation won the race) is left alone, and one whose
        cancel arrived between attempts ends ``cancelled`` here instead.
        ``priority`` may *escalate* the job (lower value only): a
        retried job has already waited a full attempt, and joined
        duplicate handles must not be starved behind fresh traffic.
        """
        with self._lock:
            if job.finished or job.state != JOB_RUNNING:
                return False
            if job.cancel_requested:
                job.result = cancelled_result(job.wire, "backoff")
                job.state = JOB_CANCELLED
                callbacks = self._end(job)
            else:
                job.state = JOB_QUEUED
                job.worker_id = None
                if priority is not None and priority < job.priority:
                    job.priority = priority
                self._pending.append(job)
                self._pending.sort(key=lambda j: j.sort_key)
                return True
        _run_done_callbacks(callbacks)
        return False

    def _add_done_callback(
        self, job: Job, callback: Callable[[], None]
    ) -> None:
        with self._lock:
            if not job.finished:
                job.done_callbacks.append(callback)
                return
        callback()

    # ------------------------------------------------------------------
    # Terminal transitions (called by the pool's collector)
    # ------------------------------------------------------------------
    def _end(self, job: Job) -> List[Callable[[], None]]:
        """Make ``job`` terminal (caller holds the lock); returns the
        done-callbacks for the caller to run once it has released it."""
        self._live.pop(job.fingerprint, None)
        job._finish()
        callbacks, job.done_callbacks = job.done_callbacks, []
        return callbacks

    def finish(self, job: Job, result: SynthesisResult) -> None:
        """Complete a job with its result (also used for ``cancelled``
        results coming back from a worker)."""
        with self._lock:
            job.result = result
            job.state = (
                JOB_CANCELLED if result.status == "cancelled" else JOB_DONE
            )
            callbacks = self._end(job)
        _run_done_callbacks(callbacks)

    def fail(self, job: Job, error: str) -> None:
        """Mark a job failed (worker crash); handles raise on `.result`."""
        with self._lock:
            job.error = error
            job.state = JOB_FAILED
            callbacks = self._end(job)
        _run_done_callbacks(callbacks)

    def _cancel(self, job: Job) -> bool:
        with self._lock:
            if job.finished:
                return False
            self.cancelled += 1
            queued = job.state == JOB_QUEUED
            if queued:
                # Never reached a worker: synthesise the cancelled
                # result right here.
                if job in self._pending:
                    self._pending.remove(job)
                job.result = cancelled_result(job.wire, "queued")
                job.state = JOB_CANCELLED
                callbacks = self._end(job)
            else:
                job.cancel_requested = True
            hook = self._running_cancel_hook
        if queued:
            _run_done_callbacks(callbacks)
            return True
        # Running: set the cancel bit of the job's shared control byte;
        # the engine's probe reads it at its next check and reports
        # back a ``cancelled`` result through the normal done path.  A
        # job between attempts (a retry or preemption backoff) has no
        # control byte: the hook ends it at once instead.
        # The hook runs OUTSIDE the queue lock: it takes the pool lock,
        # and the pool's dispatcher takes pool-then-queue — calling it
        # under the queue lock would be an AB-BA deadlock.  (If the job
        # finishes in the window, its slot is already released and the
        # hook does nothing.)
        if hook is not None:
            hook(job)
        return True

    #: Installed by the pool: delivers cancellation to a running job's
    #: worker (by setting the cancel bit of its control byte), or ends
    #: a job waiting out a backoff.
    _running_cancel_hook: Optional[Callable[[Job], None]] = None


def _run_done_callbacks(callbacks: List[Callable[[], None]]) -> None:
    # A callback bug must not kill the thread that ended the job: most
    # often the pool's collector, which every other job depends on.
    for callback in callbacks:
        try:
            callback()
        except Exception:  # pragma: no cover - defensive
            traceback.print_exc()


def cancelled_result(wire: WireRequest, where: str) -> SynthesisResult:
    """The result record of a job cancelled while no worker ran it:
    ``where`` is ``"queued"`` or ``"backoff"`` (between attempts)."""
    cost_fn = wire.effective_cost_fn()
    return SynthesisResult(
        status="cancelled",
        spec=wire.spec,
        backend=wire.config.backend,
        cost_function=cost_fn.as_tuple(),
        allowed_error=wire.allowed_error,
        max_cost=wire.effective_max_cost(),
        extra={"cancelled_while": where},
    )
