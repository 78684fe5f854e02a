"""Durable checkpoints: one self-indexing journal of deltas per key.

Enumeration is a deterministic sequence over cost levels, so any point
in it is a prefix of completed levels plus a cursor inside the next one
(the multicore-recovery recipe: log only what is new, and recovery
replays only the tail).  The :class:`CheckpointStore` persists
:class:`~repro.core.engine.Checkpoint` records — one level's stored rows
and their generation ordinals up to a cursor, where a finished level is
the cursor at the level's end — per *checkpoint key*
(:func:`~repro.core.cache.checkpoint_key`): the content address of an
enumeration, hashed over the engine's universe, the cost function, the
guide-table toggle and the
:func:`~repro.core.cache.cache_version_fingerprint` (so a layout, dedupe
or record-format change invalidates stale journals wholesale, never
replaying rows under the wrong interpretation).  The
spec's masks and the backend are deliberately **excluded**: enumeration
is spec-independent and bit-identical across backends, so one query's
checkpoints serve every query over the same universe and cost function,
from either engine.  A row's provenance is not journalled: replay
re-derives it from the ordinal, as enumeration order is deterministic.

A key is one file, ``<key>.journal``: append-only records, each ::

    RCKP | u64 cost | u64 base cursor | u64 level cursor
         | u64 payload length | sha256 | pickle

where the SHA-256 covers the header and the pickled payload.  A record
is a *delta*: the rows its level stored between the base cursor and the
level cursor.  Because a level's rows up to one cursor are a prefix of
its rows up to any later one, each cost is a *chain* of deltas in file
order — the first with base 0, each next one based on the previous
one's cursor — and a level's rows go to disk once, however many records
it takes.  Each record names its cost and both cursors, so the journal
is its own index: a scan of the headers (no payload is read) gives
every cost's chain and the end of the intact prefix.

Writes are group commits.  The engine queues records on one work
cadence (:data:`~repro.core.engine.CHECKPOINT_EVERY_CANDIDATES` /
:data:`~repro.core.engine.CHECKPOINT_EVERY_S`) and hands them over as
one group, each holding its level's rows from the level's start, and
:meth:`CheckpointStore.append` journals a group in one round under a
``flock`` on the journal itself: one header scan, then, for each record
that advances its cost's cursor, only the rows past the cursor the
journal already holds, then one fsync — plus one of the directory when
the round wrote the journal's first record.  Trimming against the
journal rather than against what one engine sent leaves no gap to
handle: a failed round's rows reappear in the next record, and a pool
sibling's or an earlier attempt's record is simply trimmed against.  A
small job makes one round, when its run returns.  A kill inside a round
loses that round only: what it wrote is at most a torn tail, which the
next append cuts off before writing.

:meth:`CheckpointStore.load` verifies each cost's chain in cost order,
joins it into one record from the level's start and serves the valid
cost-consecutive prefix.  A torn tail or a bit-rotten record is healed
by truncating the journal at the first bad offset, so the next run
re-journals what was lost; the part of a chain before a damaged delta is
still a valid cursor inside its level.  Damage means a shorter resume,
never a wrong answer.  Concurrent appenders (pool siblings at the same
point) serialise on the flock, and since enumeration is deterministic
each one's rows past the other's cursor are the rows the other would
have written.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path
from typing import IO, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import Checkpoint
from ..testing.faults import fault_point
from .store import _fsync_directory

try:  # POSIX only; the store degrades to lock-free on other platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

_RECORD_MAGIC = b"RCKP"
# magic, cost, base cursor, level cursor, payload length
_HEADER = struct.Struct("<4sQQQQ")
_DIGEST_SIZE = hashlib.sha256().digest_size

#: A record's per-row array fields (a row's provenance is decoded from
#: its ordinal, so the journal holds no operand columns).
_ARRAYS = ("rows", "ordinals")

#: One journalled delta: ``(base cursor, level cursor, file offset)``.
_Link = Tuple[int, int, int]


def _scan(handle) -> Tuple[Dict[int, List[_Link]], int, int]:
    """Walk a journal's record headers without reading any payload.

    Returns each cost's chain of deltas in file order, the end of the
    intact prefix and the file size.  A short header, a wrong magic, a
    record running past the end of the file or one that does not extend
    its cost's chain (its base is not the chain's cursor, or 0 for a
    cost's first record) ends the prefix: every record an append writes
    extends its chain, so such a record is damage.
    """
    size = os.fstat(handle.fileno()).st_size
    chains: Dict[int, List[_Link]] = {}
    offset = 0
    while offset < size:
        handle.seek(offset)
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            break
        magic, cost, base, cursor, length = _HEADER.unpack(header)
        end = offset + _HEADER.size + _DIGEST_SIZE + length
        if magic != _RECORD_MAGIC or end > size:
            break
        chain = chains.get(cost)
        if chain is None and base == 0:
            chains[cost] = [(base, cursor, offset)]
        elif chain is not None and base == chain[-1][1] < cursor:
            chain.append((base, cursor, offset))
        else:
            break
        offset = end
    return chains, offset, size


def _delta(record: Checkpoint, base: int) -> dict:
    """The journal payload of ``record`` past cursor ``base``: the rows
    its level stored after its first ``base`` candidates (all of them
    for base 0)."""
    level_start = record.generated_total - record.level_progress
    skip = int(
        np.searchsorted(record.ordinals, level_start + base, side="right")
    )
    payload = {name: getattr(record, name)[skip:] for name in _ARRAYS}
    payload.update(
        cost=record.cost,
        base_progress=base,
        level_progress=record.level_progress,
        generated_total=record.generated_total,
    )
    return payload


def _read_delta(handle, cost: int, link: _Link) -> Optional[dict]:
    """The payload of one journalled delta if its digest, cost and
    cursors check out."""
    base, cursor, offset = link
    try:
        handle.seek(offset)
        header = handle.read(_HEADER.size)
        length = _HEADER.unpack(header)[-1]
        digest = handle.read(_DIGEST_SIZE)
        payload = handle.read(length)
        check = hashlib.sha256(header)
        check.update(payload)
        if check.digest() != digest:
            return None
        delta = pickle.loads(payload)
        named = (delta["cost"], delta["base_progress"], delta["level_progress"])
    except Exception:
        return None
    return delta if named == (cost, base, cursor) else None


def _join(deltas: List[dict]) -> Checkpoint:
    """One record from a chain's verified deltas: their rows from the
    level's start, at the last delta's cursor."""
    last = deltas[-1]
    if len(deltas) == 1:
        arrays = [last[name] for name in _ARRAYS]
    else:
        arrays = [
            np.concatenate([delta[name] for delta in deltas])
            for name in _ARRAYS
        ]
    return Checkpoint(
        int(last["cost"]),
        *arrays,
        generated_total=int(last["generated_total"]),
        level_progress=int(last["level_progress"]),
    )


def _read(handle) -> Tuple[List[Checkpoint], Optional[int]]:
    """A journal's verified cost-consecutive records, ascending, each
    cost's chain joined into one, and the offset of the first damage
    found (None when there is none)."""
    chains, end, size = _scan(handle)
    records: List[Checkpoint] = []
    for cost in sorted(chains):
        if records and cost != records[-1].cost + 1:
            break
        deltas = []
        for link in chains[cost]:
            delta = _read_delta(handle, cost, link)
            if delta is None:
                # The deltas before it still end at a valid cursor.
                if deltas:
                    records.append(_join(deltas))
                return records, link[2]
            deltas.append(delta)
        records.append(_join(deltas))
    return records, (end if end < size else None)


class CheckpointStore:
    """A directory of per-key checkpoint journals (see the module docstring)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _journal_path(self, key: str) -> Path:
        return self.root / ("%s.journal" % key)

    def _open_locked(self, key: str, create: bool = False) -> Optional[IO[bytes]]:
        """The key's journal, open for reading and writing and flocked
        until the handle closes; None when it does not exist and
        ``create`` is false.

        The kernel drops a flock when its fd closes — including on
        SIGKILL, which is the whole point of using flock here.  A
        racing :meth:`prune` may unlink the journal while this call
        waits for the lock, which then guards a dead inode: open again.
        """
        path = self._journal_path(key)
        while True:
            try:
                handle = open(path, "a+b" if create else "r+b")
            except FileNotFoundError:
                if create:
                    raise
                return None
            try:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                if os.fstat(handle.fileno()).st_nlink:
                    return handle
            except BaseException:
                handle.close()
                raise
            handle.close()

    # ------------------------------------------------------------------
    def append(self, key: str, records: Sequence[Checkpoint]) -> int:
        """Journal a group of records in one round; returns how many
        were journalled.

        Each record goes to disk as a delta: the rows past the cursor
        the journal already holds for its cost (all of them for a cost
        it does not hold yet).  A record is skipped when the journal, or
        another record of the group, already holds its cost with at
        least its cursor — a pool sibling got there first, or the level
        already finished.  A delta without rows still advances its
        cost's cursor, so it is written.
        """
        with self._open_locked(key, create=True) as handle:
            chains, end, size = _scan(handle)
            if end < size:
                handle.truncate(end)  # the torn tail of a killed round
            held = {cost: chain[-1][1] for cost, chain in chains.items()}
            cursors = dict(held)
            fresh = {}
            for record in records:
                if record.level_progress > cursors.get(record.cost, -1):
                    cursors[record.cost] = record.level_progress
                    fresh[record.cost] = record
            if not fresh:
                return 0
            # A crash from here on loses this round only: whatever it
            # wrote is a torn tail the next append cuts off.
            fault_point("checkpoint.append")
            handle.seek(end)
            for cost, record in fresh.items():
                base = held.get(cost, 0)
                payload = pickle.dumps(
                    _delta(record, base), protocol=pickle.HIGHEST_PROTOCOL
                )
                header = _HEADER.pack(
                    _RECORD_MAGIC, cost, base, record.level_progress, len(payload)
                )
                digest = hashlib.sha256(header)
                digest.update(payload)
                handle.write(header)
                handle.write(digest.digest())
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        if end == 0:
            # The journal's first record: make its directory entry durable.
            _fsync_directory(self.root)
        return len(fresh)

    # The benchmark's probes (perfbench/probes.py) time journal writes
    # through these two names.
    def append_level(self, key: str, records: Sequence[Checkpoint]) -> int:
        """:meth:`append` (the name the durability sink writes through)."""
        return self.append(key, records)

    def append_partial(self, key: str, records: Sequence[Checkpoint]) -> int:
        """:meth:`append`, under the benchmark probes' second name."""
        return self.append(key, records)

    def load(self, key: str) -> List[Checkpoint]:
        """The valid cost-consecutive records under ``key``, ascending,
        each starting at its level's start.

        Reads without the lock, verifying every delta of each cost's
        chain (digest, cost, both cursors) and joining the chain into
        one record.  It stops at the first failure or cost gap, serving
        the part of a damaged chain before the bad delta, so the result
        is always a replayable prefix.  On a torn tail or a damaged
        record it reads again under the lock (an appender may have been
        mid-round) and truncates the journal at the first bad offset
        (self-healing) — the lost tail is simply re-enumerated and
        re-journalled by the next run.
        """
        try:
            handle = open(self._journal_path(key), "rb")
        except OSError:
            return []
        with handle:
            records, bad = _read(handle)
        if bad is None:
            return records
        try:
            handle = self._open_locked(key)
            if handle is not None:
                with handle:
                    records, bad = _read(handle)
                    if bad is not None:
                        handle.truncate(bad)
        except OSError:
            pass
        return records

    # ------------------------------------------------------------------
    # GC / size budgeting
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every checkpoint key with a journal on disk."""
        return sorted(path.stem for path in self.root.glob("*.journal"))

    def size_of(self, key: str) -> int:
        """Bytes this key's journal holds on disk."""
        try:
            return self._journal_path(key).stat().st_size
        except OSError:
            return 0

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> dict:
        """Evict journals, least-recently-*written* first.

        A long-lived store accretes one journal per (universe, cost
        function) ever enumerated; ``prune`` keeps it inside a byte
        budget.  Recency is the journal's mtime — appends touch it, so
        a universe still receiving traffic keeps advancing while an
        abandoned one ages out.  ``max_age_s`` drops keys idle longer
        than that outright; ``max_bytes`` then evicts oldest-first until
        the remainder fits.  Evicting a checkpoint is always safe: the
        next query over that universe re-enumerates cold and re-journals.

        Returns ``{"removed_keys", "removed_bytes", "kept_keys",
        "kept_bytes"}``.
        """
        import time as _time

        current = _time.time() if now is None else now
        entries = []  # (mtime, key, bytes)
        for key in self.keys():
            try:
                mtime = self._journal_path(key).stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, key, self.size_of(key)))
        entries.sort()  # oldest first
        removed_keys = 0
        removed_bytes = 0
        survivors = []
        for mtime, key, size in entries:
            if max_age_s is not None and current - mtime > max_age_s:
                removed_bytes += self._remove(key, size)
                removed_keys += 1
            else:
                survivors.append((mtime, key, size))
        if max_bytes is not None:
            total = sum(size for _, _, size in survivors)
            while survivors and total > max_bytes:
                mtime, key, size = survivors.pop(0)
                total -= size
                removed_bytes += self._remove(key, size)
                removed_keys += 1
        return {
            "removed_keys": removed_keys,
            "removed_bytes": removed_bytes,
            "kept_keys": len(survivors),
            "kept_bytes": sum(size for _, _, size in survivors),
        }

    def _remove(self, key: str, size: int) -> int:
        """Unlink one key's journal under its flock; returns bytes freed."""
        try:
            handle = self._open_locked(key)
            if handle is not None:
                with handle:
                    self._journal_path(key).unlink()
        except OSError:
            pass
        return size
