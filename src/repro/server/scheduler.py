"""Admission control and latency tracking for the HTTP server.

The server splits traffic into two *classes* — ``interactive`` (small
specs that must answer in interactive time) and ``batch`` (wide sweeps
that should saturate cores) — and runs each class on its own worker
lane, so a flood of batch work can never sit in front of an interactive
request (the Polynesia HTAP recipe: one shared substrate, specialised
execution paths, no interference).  Both lanes run every job on the
serial engine: a lane's pool workers, one query each, are all the
parallelism a class gets, so batch work saturates the cores through the
pool instead of fanning one query out over more processes than there
are cores.

A job finds its lane by measurement, not prediction: Paresy's work per
query is set by the cost of its minimal answer, which the sweep only
learns by reaching it.  A job submitted without a class starts on the
interactive lane, and once it has run for one quantum
(:data:`DEFAULT_LATENCY_TARGET_S`) the server stops the attempt and
resubmits it to the batch lane, where it resumes from the level the
stopped attempt journalled — a two-level feedback queue (Corbató et al.,
1962).  An explicit class pins a job to its lane.  The demotion itself
lives in :mod:`repro.server.app`; everything in this module is plain,
lock-protected Python with no asyncio dependency, so the policy is
unit-testable without sockets or worker processes:

* :class:`AdmissionController` — per-class concurrency bookkeeping with
  a bounded queue: past the bound a submission is *rejected* with a
  suggested Retry-After instead of growing an unbounded backlog.  Under
  *sustained* interactive saturation it additionally enters **brownout**
  — a degraded mode that sheds batch admissions outright until the
  interactive lane has been calm for a while — so a standing batch flood
  cannot keep the interactive lane pinned at its queue bound.  A demoted
  job's admission moves to the batch class with
  :meth:`AdmissionController.transfer`, so a job admitted once is never
  rejected mid-run.
* :class:`LatencyTracker` — per-class p50/p99 over a sliding window,
  feeding both ``/metrics`` and the Retry-After estimate.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: Workload classes.
CLASS_INTERACTIVE = "interactive"
CLASS_BATCH = "batch"
CLASSES = (CLASS_INTERACTIVE, CLASS_BATCH)

#: The quantum: seconds a job submitted without a class runs on the
#: interactive lane before the server demotes it to the batch lane.
DEFAULT_LATENCY_TARGET_S = 0.5


# ----------------------------------------------------------------------
# Latency tracking
# ----------------------------------------------------------------------
class LatencyTracker:
    """Sliding-window per-class latency percentiles."""

    def __init__(self, window: int = 512) -> None:
        self._lock = threading.Lock()
        self._samples: Dict[str, deque] = {
            klass: deque(maxlen=window) for klass in CLASSES
        }
        self._counts: Dict[str, int] = {klass: 0 for klass in CLASSES}

    def record(self, klass: str, seconds: float) -> None:
        """Add one completion latency to ``klass``'s sliding window."""
        with self._lock:
            self._samples.setdefault(klass, deque(maxlen=512)).append(
                float(seconds)
            )
            self._counts[klass] = self._counts.get(klass, 0) + 1

    def count(self, klass: str) -> int:
        """Total completions ever recorded for ``klass``."""
        with self._lock:
            return self._counts.get(klass, 0)

    def percentile(self, klass: str, q: float) -> Optional[float]:
        """The windowed ``q``-quantile (0..1), or None with no samples."""
        with self._lock:
            samples = sorted(self._samples.get(klass, ()))
        if not samples:
            return None
        index = min(len(samples) - 1, max(0, math.ceil(q * len(samples)) - 1))
        return samples[index]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{class: {p50, p99, count}}`` for metrics and health."""
        out: Dict[str, Dict[str, float]] = {}
        for klass in CLASSES:
            p50 = self.percentile(klass, 0.50)
            p99 = self.percentile(klass, 0.99)
            out[klass] = {
                "p50_s": p50 if p50 is not None else 0.0,
                "p99_s": p99 if p99 is not None else 0.0,
                "count": self.count(klass),
            }
        return out


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Admission:
    """The verdict on one submission."""

    admitted: bool
    klass: str
    retry_after_s: Optional[float] = None
    reason: Optional[str] = None


class AdmissionController:
    """Bounded per-class admission over the lanes' live-job counts.

    ``slots`` is a class's concurrency quota (its lane's
    ``workers × depth`` — jobs past it queue inside the lane), and
    ``max_queue`` bounds that queue: a submission that would make the
    class's backlog exceed ``slots + max_queue`` is *rejected* so
    overload degrades to fast 429s instead of an unbounded queue whose
    every entry times out.  The suggested Retry-After is the backlog
    drained at the class's measured p50 (1s floor when unmeasured).

    **Brownout.**  When the interactive lane has been *saturated*
    (``live >= slots``) continuously for ``brownout_enter_after_s``,
    the controller enters brownout: batch submissions are shed with
    ``reason="brownout"`` regardless of batch capacity, while
    interactive admissions keep their normal bounds.  Brownout exits
    after the interactive lane has been below saturation continuously
    for ``brownout_exit_after_s`` (hysteresis, so the mode does not
    flap on a single completion).  The clock is injectable for tests.
    """

    def __init__(
        self,
        slots: Dict[str, int],
        max_queue: Dict[str, int],
        latency: Optional[LatencyTracker] = None,
        brownout_enter_after_s: float = 2.0,
        brownout_exit_after_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.slots = dict(slots)
        self.max_queue = dict(max_queue)
        self.latency = latency if latency is not None else LatencyTracker()
        self._lock = threading.Lock()
        self._live: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.rejected: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.brownout_enter_after_s = float(brownout_enter_after_s)
        self.brownout_exit_after_s = float(brownout_exit_after_s)
        self._clock = clock
        self.brownout_active = False
        self.brownout_rejections = 0
        self._saturated_since: Optional[float] = None
        self._calm_since: Optional[float] = None

    def live(self, klass: str) -> int:
        """Jobs currently admitted (queued or running) in ``klass``."""
        with self._lock:
            return self._live.get(klass, 0)

    # -- brownout state machine ---------------------------------------
    def _saturated_locked(self) -> bool:
        slots = max(1, self.slots.get(CLASS_INTERACTIVE, 1))
        return self._live.get(CLASS_INTERACTIVE, 0) >= slots

    def _update_brownout_locked(self, now: float) -> None:
        if self._saturated_locked():
            self._calm_since = None
            if self._saturated_since is None:
                self._saturated_since = now
            if (
                not self.brownout_active
                and now - self._saturated_since >= self.brownout_enter_after_s
            ):
                self.brownout_active = True
        else:
            self._saturated_since = None
            if self._calm_since is None:
                self._calm_since = now
            if (
                self.brownout_active
                and now - self._calm_since >= self.brownout_exit_after_s
            ):
                self.brownout_active = False

    def interactive_saturated(self) -> bool:
        """Is the interactive lane at (or past) its concurrency quota?"""
        with self._lock:
            return self._saturated_locked()

    def try_admit(self, klass: str) -> Admission:
        """Admit (and count) one job, or reject with a Retry-After."""
        capacity = self.slots.get(klass, 1) + self.max_queue.get(klass, 0)
        now = self._clock()
        with self._lock:
            self._update_brownout_locked(now)
            if klass == CLASS_BATCH and self.brownout_active:
                self.brownout_rejections += 1
                self.rejected[klass] = self.rejected.get(klass, 0) + 1
                return Admission(
                    admitted=False,
                    klass=klass,
                    retry_after_s=max(1.0, self.brownout_exit_after_s),
                    reason="brownout",
                )
            live = self._live.get(klass, 0)
            if live >= capacity:
                self.rejected[klass] = self.rejected.get(klass, 0) + 1
                queued = max(0, live - self.slots.get(klass, 1))
                return Admission(
                    admitted=False,
                    klass=klass,
                    retry_after_s=self.retry_after(klass, queued),
                    reason="%s queue full (%d live, capacity %d)"
                    % (klass, live, capacity),
                )
            self._live[klass] = live + 1
            self._update_brownout_locked(now)
        return Admission(admitted=True, klass=klass)

    def release(self, klass: str) -> None:
        """One admitted job finished (any terminal state)."""
        with self._lock:
            self._live[klass] = max(0, self._live.get(klass, 0) - 1)
            self._update_brownout_locked(self._clock())

    def transfer(self, source: str, target: str) -> None:
        """Move one admitted job's live count from ``source`` to
        ``target``.  The job was admitted once, so ``target``'s bound
        and brownout do not apply: a demoted job is never shed
        mid-run."""
        with self._lock:
            self._live[source] = max(0, self._live.get(source, 0) - 1)
            self._live[target] = self._live.get(target, 0) + 1
            self._update_brownout_locked(self._clock())

    def retry_after(self, klass: str, queued: int) -> float:
        """Seconds until the class's backlog plausibly has room."""
        p50 = self.latency.percentile(klass, 0.50)
        if p50 is None or p50 <= 0.0:
            p50 = 1.0
        slots = max(1, self.slots.get(klass, 1))
        return max(1.0, math.ceil(queued * p50 / slots))

    def depth_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-class live counts against the configured bounds."""
        with self._lock:
            return {
                klass: {
                    "live": self._live.get(klass, 0),
                    "slots": self.slots.get(klass, 0),
                    "max_queue": self.max_queue.get(klass, 0),
                    "rejected": self.rejected.get(klass, 0),
                }
                for klass in CLASSES
            }

    def brownout_snapshot(self) -> Dict[str, object]:
        """Brownout mode state for ``/metrics`` and ``/healthz``."""
        with self._lock:
            self._update_brownout_locked(self._clock())
            return {
                "active": self.brownout_active,
                "rejections": self.brownout_rejections,
            }


__all__ = [
    "Admission",
    "AdmissionController",
    "CLASS_BATCH",
    "CLASS_INTERACTIVE",
    "CLASSES",
    "DEFAULT_LATENCY_TARGET_S",
    "LatencyTracker",
]
