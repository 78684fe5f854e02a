"""The concurrent synthesis service: queue, worker pool and stores.

The execution subsystem that turns :class:`~repro.api.session.Session`
into a long-running, multi-core, restart-durable service:

* :mod:`repro.service.wire` — picklable job forms and content
  addresses (request fingerprint, staging fingerprint).
* :mod:`repro.service.queue` — :class:`JobQueue`: priorities, in-flight
  deduplication of identical requests, job-level cancellation.
* :mod:`repro.service.pool` — :class:`WorkerPool`: one warm session per
  worker process, universe-affinity scheduling with work-stealing,
  cross-process progress forwarding, and cancel/preempt bits in a
  shared-memory control array that the engine's probes read directly.
* :mod:`repro.service.store` — :class:`StagingStore` /
  :class:`ResultStore`: content-addressed persistence so a restarted
  service warm-starts instead of re-enumerating.
* :mod:`repro.service.checkpoint` — :class:`CheckpointStore`: durable
  per-cost-level journals, so an interrupted query resumes from its
  last completed level and repeat traffic re-serves enumerated levels.

:class:`WorkerPool` is the service object the HTTP server's lanes, the
``repro serve --jobs`` batch CLI, the evaluation harness and the
benchmarks all drive.
"""

from ..core.cache import checkpoint_key
from .checkpoint import CheckpointStore
from .pool import WorkerPool
from .queue import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Job,
    JobFailedError,
    JobHandle,
    JobQueue,
)
from .store import ResultStore, StagingStore, StoreBackedSession
from .wire import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    WireRequest,
    staging_fingerprint,
)

# The benchmark's latency ladder (perfbench/bench.py) builds its pool
# rung through this name; nothing else uses it.
ServiceClient = WorkerPool

__all__ = [
    "CheckpointStore",
    "checkpoint_key",
    "WorkerPool",
    "Job",
    "JobFailedError",
    "JobHandle",
    "JobQueue",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_CANCELLED",
    "JOB_FAILED",
    "ResultStore",
    "StagingStore",
    "StoreBackedSession",
    "WireRequest",
    "staging_fingerprint",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]
