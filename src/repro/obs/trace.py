"""Trace contexts and the per-process span recorder.

Everything here is deliberately boring: ids are random hex strings,
spans are epoch-stamped (``time.time()`` — every process in this stack
runs on one machine, so wall-clock timestamps from different processes
line up on one timeline), and the recorder is a bounded ring buffer so
a runaway query can never grow memory without bound.

The *wire* form of a span is a plain dict (see :meth:`Span.to_dict`) —
that is what crosses multiprocessing pipes inside shard replies and
``SynthesisResult.extra["trace"]``, and what the exporters consume.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Default ring-buffer capacity per :class:`Tracer` (spans, not bytes).
DEFAULT_CAPACITY = 4096


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id (unique within one trace)."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a trace: its id plus the remote parent span.

    Minted once per job at the system edge and handed down unchanged —
    each process seeds its local :class:`Tracer` with it, so spans
    recorded three hops apart still form one tree.
    """

    trace_id: str
    parent_span_id: Optional[str] = None

    def child(self, parent_span_id: str) -> "TraceContext":
        """The context a downstream process should record under."""
        return TraceContext(self.trace_id, parent_span_id)

    def to_json_dict(self) -> Dict[str, object]:
        """The wire form carried inside ``WireRequest`` JSON."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> Optional["TraceContext"]:
        """Parse the wire form; tolerates ``None``/malformed (→ None)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = data.get("parent_span_id")
        return cls(trace_id, parent if isinstance(parent, str) else None)

    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new root context (no parent span yet)."""
        return cls(new_trace_id())


def span_record(
    name: str,
    trace_id: str,
    parent_id: Optional[str],
    start_s: float,
    end_s: Optional[float],
    process: str,
    args: Optional[Dict[str, object]] = None,
    span_id: Optional[str] = None,
) -> Dict[str, object]:
    """One span in wire form, the dict :meth:`Span.to_dict` returns.

    Also builds the spans a process stamps itself instead of through a
    :class:`Tracer` (the server's request stages, the pool's queue
    wait).  ``span_id`` defaults to a fresh id; ``end_s`` is None while
    the span is still open.
    """
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id if span_id is not None else new_span_id(),
        "parent_id": parent_id,
        "start_s": start_s,
        "end_s": end_s,
        "process": process,
        "args": args if args is not None else {},
    }


class Span:
    """One timed unit of work.  Mutable until :meth:`Tracer.finish`."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "process",
        "args",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_s: float,
        process: str,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.process = process
        self.args = args or {}

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.time()
        return max(0.0, end - self.start_s)

    def to_dict(self) -> Dict[str, object]:
        """The wire/export form (what crosses process boundaries)."""
        return span_record(
            self.name,
            self.trace_id,
            self.parent_id,
            self.start_s,
            self.end_s if self.end_s is not None else self.start_s,
            self.process,
            dict(self.args),
            span_id=self.span_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, %s, %.6fs)" % (self.name, self.span_id, self.duration_s)


class Tracer:
    """Lock-free span recorder for one process (ring-buffered).

    All methods run on whatever thread does the work; the stack used
    for implicit parenting assumes the strictly nested call pattern the
    engine actually has (a level span inside the job span, a shard
    fan-out span inside the level span).  Spans adopted from *other*
    processes (:meth:`adopt`) bypass the stack entirely.
    """

    __slots__ = ("trace_id", "process", "capacity", "dropped", "_spans", "_stack")

    def __init__(
        self,
        trace_id: str,
        process: str = "main",
        parent_span_id: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.trace_id = trace_id
        self.process = process
        self.capacity = max(1, int(capacity))
        self.dropped = 0
        self._spans: List[object] = []
        #: Implicit-parent stack, seeded with the remote parent so the
        #: first local span hangs off the upstream process's span.
        self._stack: List[str] = [parent_span_id] if parent_span_id else []

    def __len__(self) -> int:
        return len(self._spans)

    # -- recording -----------------------------------------------------
    def start(
        self, name: str, parent_id: Optional[str] = None, **args: object
    ) -> Span:
        """Open a span (implicit parent = innermost open span)."""
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        span = Span(
            name,
            self.trace_id,
            new_span_id(),
            parent_id,
            time.time(),
            self.process,
            args or None,
        )
        self._stack.append(span.span_id)
        self._record(span)
        return span

    def finish(self, span: Span, **args: object) -> Span:
        """Close a span (merging any late args, e.g. counts)."""
        span.end_s = time.time()
        if args:
            span.args.update(args)
        # Pop from the implicit-parent stack; tolerate out-of-order
        # finishes by removing the *last* matching entry.
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] == span.span_id:
                del self._stack[index]
                break
        return span

    @contextmanager
    def span(self, name: str, **args: object):
        """``with tracer.span("staging"):`` convenience wrapper."""
        span = self.start(name, **args)
        try:
            yield span
        finally:
            self.finish(span)

    def adopt(self, spans: List[Dict[str, object]]) -> None:
        """Absorb wire-form spans recorded by another process."""
        for span in spans:
            self._record(span)

    def _record(self, span: object) -> None:
        if len(self._spans) >= self.capacity:
            self._spans.pop(0)
            self.dropped += 1
        self._spans.append(span)

    # -- harvesting ----------------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Return every recorded span (wire form) and clear the buffer."""
        out = self.snapshot()
        self._spans = []
        return out

    def snapshot(self) -> List[Dict[str, object]]:
        """Wire-form view of the buffer without clearing it."""
        return [
            span.to_dict() if isinstance(span, Span) else dict(span)
            for span in self._spans
        ]
