"""The client facade of the concurrent synthesis service.

:class:`ServiceClient` owns a :class:`~repro.service.pool.WorkerPool`
and exposes the session-flavoured surface the rest of the codebase
already speaks — ``synthesize`` / ``synthesize_many`` / ``submit`` —
so call-sites can swap a :class:`~repro.api.session.Session` for a
multi-core, restart-durable service by changing one constructor::

    with ServiceClient(workers=4, store_dir="service-state") as client:
        results = client.synthesize_many(specs)      # pool-parallel
        handle = client.submit(spec, priority=PRIORITY_HIGH)
        handle.cancel()
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..api.config import EngineConfig
from ..api.registry import BackendRegistry
from ..core.result import SynthesisResult
from .pool import WorkerPool
from .queue import JobHandle
from .wire import PRIORITY_NORMAL


class ServiceClient:
    """A long-lived, multi-process synthesis service (see module doc)."""

    def __init__(
        self,
        workers: int = 4,
        config: Optional[EngineConfig] = None,
        registry: Optional[BackendRegistry] = None,
        store_dir: Optional[str] = None,
        per_worker_depth: int = 2,
        reuse_results: bool = False,
        max_staged_per_worker: Optional[int] = 64,
        retry_max_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        retry_jitter: float = 0.25,
        checkpoints: bool = True,
    ) -> None:
        self.pool = WorkerPool(
            workers=workers,
            config=config,
            registry=registry,
            store_dir=store_dir,
            per_worker_depth=per_worker_depth,
            reuse_results=reuse_results,
            max_staged_per_worker=max_staged_per_worker,
            retry_max_attempts=retry_max_attempts,
            retry_backoff_s=retry_backoff_s,
            retry_jitter=retry_jitter,
            checkpoints=checkpoints,
        )

    # ------------------------------------------------------------------
    def start(self) -> "ServiceClient":
        """Start the underlying pool (idempotent)."""
        self.pool.start()
        return self

    def close(self, cancel_pending: bool = False) -> None:
        """Drain and stop the pool."""
        self.pool.shutdown(wait=not cancel_pending,
                           cancel_pending=cancel_pending)

    def __enter__(self) -> "ServiceClient":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.pool.shutdown(wait=exc_type is None)

    # ------------------------------------------------------------------
    def submit(
        self,
        request,
        priority: int = PRIORITY_NORMAL,
        on_progress: Optional[Callable[[object], None]] = None,
    ) -> JobHandle:
        """Submit without blocking; returns a :class:`JobHandle`."""
        return self.pool.submit(
            request, priority=priority, on_progress=on_progress
        )

    def synthesize(
        self,
        request,
        priority: int = PRIORITY_NORMAL,
        timeout: Optional[float] = None,
    ) -> SynthesisResult:
        """Serve one request through the pool, blocking for the answer."""
        return self.submit(request, priority=priority).result(timeout=timeout)

    def synthesize_many(
        self,
        requests: Iterable[object],
        priority: int = PRIORITY_NORMAL,
        timeout: Optional[float] = None,
    ) -> List[SynthesisResult]:
        """Serve a batch pool-parallel; results in request order."""
        return self.pool.map(requests, priority=priority, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job by id."""
        return self.pool.cancel(job_id)

    def preempt(self, job_id: str) -> bool:
        """Ask a running job to checkpoint and yield its worker."""
        return self.pool.preempt(job_id)

    def preempt_longest_running(self) -> Optional[str]:
        """Preempt the oldest running attempt; returns its job id."""
        return self.pool.preempt_longest_running()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs queued but not yet dispatched to a worker."""
        return len(self.pool.queue)

    @property
    def live_jobs(self) -> int:
        """Jobs queued or running (the admission layer's backlog)."""
        return self.pool.queue.live_jobs

    def liveness(self) -> Dict[str, object]:
        """Pool process liveness/load (see :meth:`WorkerPool.liveness`)."""
        return self.pool.liveness()

    def quarantine_records(self):
        """Quarantined poison jobs on disk (ids + attempts + errors)."""
        return self.pool.quarantine_records()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Scheduler counters (affinity hits, steals, dedupe, …)."""
        merged = dict(self.pool.stats)
        merged["submitted"] = self.pool.queue.submitted
        merged["deduplicated"] = self.pool.queue.deduplicated
        merged["cancelled"] = self.pool.queue.cancelled
        return merged

    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-worker served counts, warm sets, and session stats."""
        return self.pool.worker_stats()
