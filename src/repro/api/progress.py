"""Progress streaming and cancellation primitives of the session API.

A request's ``on_progress`` callback receives one :class:`ProgressEvent`
per completed cost level and a final event with :attr:`ProgressEvent.done`
set and the finished result attached — the serving-layer hook for
streaming an incumbent to impatient clients.  :class:`CancellationToken`
is the matching write-once switch for the ``cancel`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ProgressEvent:
    """A snapshot of a running (or just-finished) search.

    ``cost`` is the highest fully-built cost level, ``generated`` and
    ``stored`` the cumulative candidate and cache counters, and
    ``elapsed_seconds`` the serving-side wall-clock since the request
    started.  ``elapsed_s`` is the *engine's own* monotonic clock
    (``time.monotonic()`` since the sweep began, populated by the
    engine-level hooks): it travels with the event, so a progress stream
    forwarded across a process boundary stays self-describing — the
    receiver never has to reconstruct timing from its own clocks.  On
    the final event ``done`` is True and ``incumbent`` carries the
    :class:`~repro.core.result.SynthesisResult` — the minimal solution
    when the status is ``"success"`` (the bottom-up sweep makes the
    first solution the best one, so there is never a weaker incumbent
    to stream before it).
    """

    cost: int
    generated: int
    stored: int
    elapsed_seconds: float
    done: bool = False
    incumbent: Optional[object] = None
    elapsed_s: float = 0.0

    # ------------------------------------------------------------------
    # Wire codec (used by the HTTP event stream): the engine-side
    # ``elapsed_s`` monotonic clock must survive the trip, so a streamed
    # event reads exactly like an in-process one.
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """JSON-serialisable form; a result incumbent becomes its
        ``to_dict()`` summary."""
        data = {
            "cost": self.cost,
            "generated": self.generated,
            "stored": self.stored,
            "elapsed_seconds": self.elapsed_seconds,
            "done": self.done,
            "elapsed_s": self.elapsed_s,
        }
        if self.incumbent is not None:
            incumbent = self.incumbent
            data["incumbent"] = (
                incumbent.to_dict()
                if hasattr(incumbent, "to_dict")
                else incumbent
            )
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProgressEvent":
        """Inverse of :meth:`to_json_dict`.

        The incumbent (when present) stays the plain result *dict* —
        the receiving side of a network stream has no engine state to
        rebuild a live :class:`~repro.core.result.SynthesisResult`
        from, and the dict already carries every reportable field.
        """
        return cls(
            cost=int(data.get("cost", -1)),
            generated=int(data.get("generated", 0)),
            stored=int(data.get("stored", 0)),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            done=bool(data.get("done", False)),
            incumbent=data.get("incumbent"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


class CancellationToken:
    """A write-once cancellation switch, polled at the engine's safe
    points and level ends.

    Pass the token itself as a request's ``cancel`` hook (it is
    callable) and flip it from any other control flow::

        token = CancellationToken()
        request = SynthesisRequest(spec, cancel=token)
        ...
        token.cancel()        # next safe point stops the search
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self._cancelled

    def __call__(self) -> bool:
        return self._cancelled
