"""Durable checkpoints: an append-only journal plus a manifest.

Enumeration is a deterministic sequence over cost levels, so any point
in it is a prefix of completed levels plus a cursor inside the next one
(the multicore-recovery recipe: lightweight logging, recovery replays
only the tail).  The :class:`CheckpointStore` persists
:class:`~repro.core.engine.Checkpoint` records — one level's stored rows
up to a cursor, where a finished level is the cursor at the level's
end — per *checkpoint key*: the content address of an enumeration,
hashed over the staging fingerprint, the cost function, the guide-table
toggle and the :func:`~repro.core.cache.cache_version_fingerprint` (so
a layout, dedupe or record-format change invalidates stale journals
wholesale, never replaying rows under the wrong interpretation).  The
spec's masks and the backend are deliberately **excluded**: enumeration
is spec-independent and bit-identical across backends, so one query's
checkpoints serve every query over the same universe and cost function,
from either engine.

On-disk layout, per key::

    <key>.journal        RLVL | u64 payload-length | sha256 | pickle …
    <key>.manifest.json  {"records": [{cost, offset, length,
                                       level_progress}, …]}
    <key>.lock           flock'd around append rounds

Writes are group commits.  The engine queues records on one work
cadence (:data:`~repro.core.engine.CHECKPOINT_EVERY_CANDIDATES` /
:data:`~repro.core.engine.CHECKPOINT_EVERY_S`) and hands them over as
one group, and :meth:`CheckpointStore.append` journals a group in one
round under one flock: one manifest read, the records that advance
their cost's cursor (each digest-framed), one journal fsync and one
atomic manifest rewrite.  A small job makes one round, when its run
returns.

The manifest holds one entry per cost, the record with the largest
cursor: a newer record of a cost replaces the older entry, whose
journal bytes become unreachable orphans.  Crash safety is the classic
journal/manifest split: a round's records are appended and fsynced
*before* the manifest is atomically rewritten to mention them.  A crash
between the two leaves orphan bytes after the last manifest offset —
skipped forever, harmlessly — and loses that round only.  A torn or
bit-rotten record fails its digest on load; the loader serves the valid
cost-consecutive prefix and rewrites the manifest down to it
(self-healing), so recovery is never worse than a shorter resume.  Concurrent appenders (pool siblings at the same
point) serialise on the lock file and keep the largest cursor, and
since enumeration is deterministic they would write identical payloads
anyway.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence

from ..core.cache import cache_version_fingerprint
from ..core.engine import Checkpoint
from ..regex.cost import CostFunction
from ..testing.faults import fault_point
from .store import atomic_write_bytes
from .wire import _sha256_of

try:  # POSIX only; the store degrades to lock-free on other platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

_RECORD_MAGIC = b"RLVL"
_HEADER = struct.Struct("<4sQ")
_DIGEST_SIZE = hashlib.sha256().digest_size
_ENTRY_FIELDS = ("cost", "offset", "length", "level_progress")


def checkpoint_key(
    staging_fp: str, cost_fn: CostFunction, use_guide_table: bool = True
) -> str:
    """Content address of one enumeration's level sequence.

    Spec masks, budgets and the backend are excluded on purpose — none
    of them changes what a level's record contains (the spec only
    decides when the sweep *stops*, budgets only where it is cut, and
    the engines are bit-identical).
    """
    return _sha256_of(
        {
            "staging": staging_fp,
            "cost_fn": list(cost_fn.as_tuple()),
            "use_guide_table": bool(use_guide_table),
            "cache_version": cache_version_fingerprint(),
        }
    )


class CheckpointStore:
    """A directory of per-key checkpoint journals (see the module docstring)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _journal_path(self, key: str) -> Path:
        return self.root / ("%s.journal" % key)

    def _manifest_path(self, key: str) -> Path:
        return self.root / ("%s.manifest.json" % key)

    @contextmanager
    def _locked(self, key: str):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.root / ("%s.lock" % key)
        fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            # The kernel drops the flock when the fd closes — including
            # on SIGKILL, which is the whole point of using flock here.
            os.close(fd)

    def _read_manifest(self, key: str) -> List[dict]:
        """The manifest's entries up to the first malformed one (empty
        on an absent or corrupt manifest)."""
        try:
            data = json.loads(
                self._manifest_path(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return []
        entries = data.get("records") if isinstance(data, dict) else None
        if not isinstance(entries, list):
            return []
        out = []
        for entry in entries:
            try:
                out.append({name: int(entry[name]) for name in _ENTRY_FIELDS})
            except (KeyError, TypeError, ValueError):
                return out
        return out

    def _write_manifest(self, key: str, entries: List[dict]) -> None:
        payload = json.dumps(
            {"version": 2, "records": entries}, indent=2, sort_keys=True
        )
        atomic_write_bytes(self._manifest_path(key), payload.encode("utf-8"))

    # ------------------------------------------------------------------
    def _journal_records(self, key: str, payloads: List[bytes]) -> List[int]:
        """Append digest-framed records with one fsync; returns their
        journal offsets."""
        offsets = []
        with open(self._journal_path(key), "ab") as handle:
            for payload in payloads:
                offsets.append(handle.tell())
                handle.write(_HEADER.pack(_RECORD_MAGIC, len(payload)))
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        return offsets

    def append(self, key: str, records: Sequence[Checkpoint]) -> int:
        """Journal a group of records in one round; returns how many
        were journalled.

        A record is skipped when the manifest, or another record of the
        group, already holds its cost with at least its cursor — a pool
        sibling got there first, or the level already finished.
        """
        with self._locked(key):
            entries = self._read_manifest(key)
            cursors = {entry["cost"]: entry["level_progress"] for entry in entries}
            fresh = {}
            for record in records:
                if record.level_progress > cursors.get(record.cost, -1):
                    cursors[record.cost] = record.level_progress
                    fresh[record.cost] = record
            if not fresh:
                return 0
            payloads = [
                pickle.dumps(record.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)
                for record in fresh.values()
            ]
            offsets = self._journal_records(key, payloads)
            # A crash here (the injection point) loses only the manifest
            # update: the journal bytes become unreachable orphans and
            # the records are re-journalled at the end of the file later.
            fault_point("checkpoint.append")
            by_cost = {entry["cost"]: entry for entry in entries}
            for record, offset, payload in zip(fresh.values(), offsets, payloads):
                by_cost[record.cost] = {
                    "cost": int(record.cost),
                    "offset": offset,
                    "length": len(payload),
                    "level_progress": int(record.level_progress),
                }
            self._write_manifest(key, [by_cost[cost] for cost in sorted(by_cost)])
            return len(fresh)

    # The benchmark's probes (perfbench/probes.py) time journal writes
    # through these two names.
    def append_level(self, key: str, records: Sequence[Checkpoint]) -> int:
        """:meth:`append` (the name the durability sink writes through)."""
        return self.append(key, records)

    def append_partial(self, key: str, records: Sequence[Checkpoint]) -> int:
        """:meth:`append`, under the benchmark probes' second name."""
        return self.append(key, records)

    def _read_record(self, handle, entry: dict) -> Optional[Checkpoint]:
        """One verified journal record, or None when it fails any check."""
        try:
            handle.seek(entry["offset"])
            header = handle.read(_HEADER.size)
            if len(header) != _HEADER.size:
                return None
            magic, length = _HEADER.unpack(header)
            if magic != _RECORD_MAGIC or length != entry["length"]:
                return None
            digest = handle.read(_DIGEST_SIZE)
            payload = handle.read(length)
            if len(digest) != _DIGEST_SIZE or len(payload) != length:
                return None
            if hashlib.sha256(payload).digest() != digest:
                return None
            record = Checkpoint.from_payload(pickle.loads(payload))
        except Exception:
            return None
        if (record.cost, record.level_progress) != (
            entry["cost"],
            entry["level_progress"],
        ):
            return None
        return record

    def load(self, key: str) -> List[Checkpoint]:
        """The valid cost-consecutive records under ``key``, ascending.

        Verifies every record (magic, length, digest, cost, cursor) and
        stops at the first failure or cost gap, so the result is always
        a replayable prefix.  When damage shortened it, the manifest is
        rewritten to match (self-healing) — the lost tail is simply
        re-enumerated and re-journalled by the next run.
        """
        entries = self._read_manifest(key)
        if not entries:
            return []
        records: List[Checkpoint] = []
        try:
            handle = open(self._journal_path(key), "rb")
        except OSError:
            self._heal(key, [])
            return []
        with handle:
            for entry in entries:
                if records and entry["cost"] != records[-1].cost + 1:
                    break
                record = self._read_record(handle, entry)
                if record is None:
                    break
                records.append(record)
        if len(records) != len(entries):
            self._heal(key, records)
        return records

    # ------------------------------------------------------------------
    # GC / size budgeting
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every checkpoint key with a journal on disk."""
        return sorted(path.stem for path in self.root.glob("*.journal"))

    def size_of(self, key: str) -> int:
        """Bytes this key holds on disk (journal + manifest)."""
        total = 0
        for path in (self._journal_path(key), self._manifest_path(key)):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> dict:
        """Evict journal/manifest pairs, least-recently-*written* first.

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
        """Delete one key's files under its lock; returns bytes freed."""
        with self._locked(key):
            for path in (
                self._journal_path(key),
                self._manifest_path(key),
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
        try:
            (self.root / ("%s.lock" % key)).unlink()
        except OSError:
            pass
        return size

    def _heal(self, key: str, kept: List[Checkpoint]) -> None:
        """Rewrite the manifest down to the verified prefix (best-effort).

        Another appender may have advanced the manifest since it was
        read, so the rewrite keeps the current entries *below* the first
        unverified cost rather than the ones read earlier.
        """
        upto = kept[-1].cost if kept else None
        try:
            with self._locked(key):
                current = self._read_manifest(key)
                self._write_manifest(
                    key,
                    [e for e in current if upto is not None and e["cost"] <= upto],
                )
        except OSError:
            pass
