"""Deterministic fault injection for the durability layer.

Production code marks its crash-interesting seams with
:func:`fault_point` — a named no-op unless a matching fault has been
armed.  Tests (and the CI recovery-smoke job) arm faults either
programmatically with :func:`inject` or through the ``REPRO_FAULTS``
environment variable, which child processes inherit — that is how a
*pool worker* or a *shard worker* is made to die at a precise point
while the parent test process keeps running.

Spec grammar (comma-separated entries)::

    point:action[:hit][:once]

``point``
    The :func:`fault_point` name, e.g. ``pool.worker.before_job``.
``action``
    ``raise`` — raise ``OSError(ENOSPC)`` at the point;
    ``kill``  — ``SIGKILL`` the current process (a real crash: no
    atexit handlers, no finally blocks);
    ``exit``  — ``os._exit(3)`` (crash without a signal).
``hit``
    Fire on the *N*-th arrival at the point (per process), default 1.
    Arrivals before the N-th are no-ops; after firing a ``raise`` fault
    stays disarmed in that process.
``once``
    Fire at most once *globally*, across processes and respawns, via an
    ``O_EXCL`` sentinel file in ``REPRO_FAULTS_DIR`` (falls back to
    per-process semantics when the directory is unset).  This is how
    "kill the worker once, then let the retry succeed" is expressed.

Injection points wired into the codebase:

==============================  =========================================
``store.atomic_write_bytes``    between temp-file write and ``os.replace``
``checkpoint.append``           a journal round with records to write,
                                before it writes its first byte
``pool.worker.before_job``      worker received a job, not yet served
``pool.worker.after_job``       result computed, not yet reported
``pool.worker.preempt``         preempted result computed, not yet
                                reported back to the parent
``shard.worker.emit``           shard worker about to run an emit round
==============================  =========================================
"""

from __future__ import annotations

import errno
import os
import signal
from typing import Dict, List, Optional

#: Environment variable holding the armed fault spec.
ENV_FAULTS = "REPRO_FAULTS"
#: Directory for ``once`` sentinel files (shared across processes).
ENV_FAULTS_DIR = "REPRO_FAULTS_DIR"

_ACTIONS = ("raise", "kill", "exit")


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` entry."""


class _Fault:
    __slots__ = ("point", "action", "hit", "once", "arrivals", "disarmed")

    def __init__(self, point: str, action: str, hit: int = 1,
                 once: bool = False) -> None:
        if action not in _ACTIONS:
            raise FaultSpecError("unknown fault action %r" % action)
        if hit < 1:
            raise FaultSpecError("fault hit count must be >= 1")
        self.point = point
        self.action = action
        self.hit = hit
        self.once = once
        self.arrivals = 0
        self.disarmed = False


#: Armed faults by point name; ``None`` means "parse the environment on
#: the next arrival" (so ``reset()`` also re-arms forked children that
#: inherited a parent's parsed-but-empty table).
_active: Optional[Dict[str, _Fault]] = None


def parse_spec(spec: str) -> Dict[str, _Fault]:
    """Parse a ``REPRO_FAULTS`` value into a fault table."""
    table: Dict[str, _Fault] = {}
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        parts: List[str] = entry.split(":")
        if len(parts) < 2:
            raise FaultSpecError("fault entry %r needs point:action" % entry)
        point, action = parts[0], parts[1]
        hit = 1
        once = False
        for extra in parts[2:]:
            if extra == "once":
                once = True
            else:
                try:
                    hit = int(extra)
                except ValueError:
                    raise FaultSpecError(
                        "fault entry %r: %r is neither a hit count nor "
                        "'once'" % (entry, extra)
                    ) from None
        table[point] = _Fault(point, action, hit=hit, once=once)
    return table


def _table() -> Dict[str, _Fault]:
    global _active
    if _active is None:
        spec = os.environ.get(ENV_FAULTS, "")
        _active = parse_spec(spec) if spec else {}
    return _active


def inject(point: str, action: str, hit: int = 1, once: bool = False) -> None:
    """Arm a fault programmatically (in-process, or pre-fork)."""
    _table()[point] = _Fault(point, action, hit=hit, once=once)


def reset() -> None:
    """Disarm everything; the next arrival re-reads the environment."""
    global _active
    _active = None


def _claim_once(fault: _Fault) -> bool:
    """True when this process wins the cross-process once-sentinel."""
    directory = os.environ.get(ENV_FAULTS_DIR)
    if not directory:
        return True
    sentinel = os.path.join(
        directory, "fault-%s.fired" % fault.point.replace("/", "_")
    )
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return True
    os.close(fd)
    return True


def fault_point(name: str) -> None:
    """Fire any armed fault for ``name``; a no-op otherwise.

    Cheap by design: one dict lookup when nothing is armed, so
    production seams can call it unconditionally.
    """
    table = _table()
    if not table:
        return
    fault = table.get(name)
    if fault is None or fault.disarmed:
        return
    fault.arrivals += 1
    if fault.arrivals < fault.hit:
        return
    fault.disarmed = True
    if fault.once and not _claim_once(fault):
        return
    if fault.action == "raise":
        raise OSError(errno.ENOSPC, "injected fault at %r" % name)
    if fault.action == "exit":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# Corruption helpers for at-rest faults (no fault_point involved): the
# tests use these to damage store entries the way a crash would.
# ----------------------------------------------------------------------
def truncate_file(path, keep: int) -> None:
    """Truncate ``path`` to its first ``keep`` bytes (a torn write)."""
    with open(path, "rb+") as handle:
        handle.truncate(max(0, keep))


def corrupt_file(path, offset: int = 0) -> None:
    """Flip every bit of one byte at ``offset`` (bit rot)."""
    with open(path, "rb+") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            return
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
