"""Content-addressed persistence: staging artifacts and finished results.

The service's durability layer, after the multicore-recovery insight
(Wu et al.): the expensive state to recover after a restart is not the
queue — it is the *warm* state, the staged ``(Universe, GuideTable,
FlatGuideTable)`` triples and the completed answers.  Both stores are
plain content-addressed pickle directories with atomic writes (tmp +
``os.replace``), so a restarted service warm-starts by loading instead
of re-enumerating, and concurrent writers of the same key are harmless
(they write identical bytes to the same address).

:class:`StoreBackedSession` splices a :class:`StagingStore` under a
:class:`~repro.api.session.Session`: staging cache misses fall through
to the store before building, and fresh builds are persisted — the
worker-side half of the service's warm-start story.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

from ..api.config import EngineConfig
from ..api.session import Session, staging_key_of
from ..core.result import SynthesisResult
from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..spec import Spec
from ..testing.faults import fault_point
from .wire import staging_fingerprint

#: Version tag wrapped around every pickled store value.  Bump it when
#: the on-disk payload shape changes: old blobs then load as misses (and
#: are quarantined) instead of deserialising into the wrong shape.
STORE_VERSION = 1
_STORE_TAG = "repro-store"


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry table to disk (best-effort).

    Without this an ``os.replace`` can survive a process crash but be
    lost in a *machine* crash — the rename lived only in the page cache.
    Platforms whose directories cannot be opened/fsynced are skipped.
    """
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically and durably.

    The single implementation of the store-and-outbox write idiom:
    the payload is flushed to a temp file (``fsync`` before the rename,
    so the replace can never expose an empty or partial file after a
    power cut), ``os.replace``\\ d into place, and the parent directory
    is fsynced so the rename itself survives a crash.  Readers (a pool
    sibling, a consumer of ``repro serve``'s outbox answers) never
    observe a partial file, and the temp file is cleaned up when the
    write fails.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=".%s." % path.name[:16], suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("store.atomic_write_bytes")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


class _PickleStore:
    """A directory of ``<key>.pkl`` blobs with atomic writes."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / ("%s.pkl" % key)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """All stored content addresses."""
        for path in sorted(self.root.glob("*.pkl")):
            yield path.stem

    def save(self, key: str, value: object) -> Path:
        """Persist ``value`` under ``key`` atomically; returns the path."""
        path = self._path(key)
        envelope = (_STORE_TAG, STORE_VERSION, value)
        atomic_write_bytes(
            path, pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return path

    def load(self, key: str) -> Optional[object]:
        """The stored value, or None when the key is absent *or
        unreadable*.

        A corrupt or version-skewed blob (bit rot, a truncated write, a
        code upgrade that changed the pickled classes or bumped
        ``STORE_VERSION``) is treated as a miss rather than an error,
        so callers rebuild and overwrite — the store self-heals instead
        of permanently failing one content address.  The bad file is
        renamed to ``<name>.corrupt`` so the next ``save`` is not racing
        a reader of the damaged blob and an operator can post-mortem it
        (see docs/README.md).
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self._quarantine(path)
            return None
        if (
            not isinstance(envelope, tuple)
            or len(envelope) != 3
            or envelope[0] != _STORE_TAG
            or envelope[1] != STORE_VERSION
        ):
            self._quarantine(path)
            return None
        return envelope[2]

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a damaged blob aside (``x.pkl`` → ``x.pkl.corrupt``)."""
        try:
            os.replace(str(path), str(path) + ".corrupt")
        except OSError:
            pass


class StagingStore(_PickleStore):
    """Persisted staging artifacts, keyed by :func:`staging_fingerprint`.

    Each entry is a ``(Universe, GuideTable)`` pair with the flat numpy
    view already materialised, so a load is immediately hot for the
    vectorised kernels.
    """

    def __init__(self, root) -> None:
        super().__init__(Path(root))

    def save_staging(
        self, key: str, universe: Universe, guide: GuideTable
    ) -> str:
        """Persist a staged pair under its content address.

        ``key`` must be the :func:`staging_fingerprint` of the *original
        example strings* — it cannot be recovered from the universe,
        whose word set is already the infix closure.
        """
        guide.flat  # materialise before pickling: loads must be hot
        self.save(key, (universe, guide))
        return key

    def load_staging(self, key: str) -> Optional[Tuple[Universe, GuideTable]]:
        """The staged ``(universe, guide)`` pair, or None."""
        value = self.load(key)
        if value is None:
            return None
        universe, guide = value
        return universe, guide


class ResultStore(_PickleStore):
    """Completed :class:`SynthesisResult`\\ s, keyed by request fingerprint."""

    def __init__(self, root) -> None:
        super().__init__(Path(root))

    def save_result(self, fingerprint: str, result: SynthesisResult) -> Path:
        """Persist a finished result under its request fingerprint."""
        return self.save(fingerprint, result)

    def load_result(self, fingerprint: str) -> Optional[SynthesisResult]:
        """The stored result, or None."""
        value = self.load(fingerprint)
        return value if isinstance(value, SynthesisResult) else None


class StoreBackedSession(Session):
    """A :class:`Session` whose staging cache falls through to disk.

    On a staging miss the session first consults the
    :class:`StagingStore`; only when the store also misses does it build
    — and then persists the fresh artifact, so the *next* process (a
    pool sibling, or the service after a restart) loads instead of
    re-enumerating.  ``store_loads``/``store_saves`` count the traffic.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        max_staged: Optional[int] = None,
        staging_store: Optional[StagingStore] = None,
        checkpoint_store=None,
    ) -> None:
        super().__init__(config, max_staged=max_staged)
        self.staging_store = staging_store
        self.checkpoint_store = checkpoint_store
        self.store_loads = 0
        self.store_saves = 0
        #: Checkpoint records restored / journalled by this session.
        self.checkpoint_loads = 0
        self.checkpoint_saves = 0
        #: Durability failures absorbed instead of failing the query: a
        #: load or restore error (the run then starts cold) or an
        #: ``OSError`` on a journal write.
        self.checkpoint_errors = 0
        self.resumed_queries = 0

    def staging_for(self, spec: Spec) -> Tuple[Universe, GuideTable]:
        key = staging_key_of(spec)
        if self.staging_store is None or key in self._staged:
            return super().staging_for(spec)
        fingerprint = staging_fingerprint(spec)
        loaded = self.staging_store.load_staging(fingerprint)
        if loaded is not None:
            self.store_loads += 1
            self._remember(key, loaded)
            return loaded
        universe, guide = super().staging_for(spec)
        self.staging_store.save_staging(fingerprint, universe, guide)
        self.store_saves += 1
        return universe, guide

    # ------------------------------------------------------------------
    # Checkpoints (see repro.service.checkpoint)
    # ------------------------------------------------------------------
    def _durability(self, engine, control):
        """Add the engine's checkpoint records and the journal writer
        to ``control``.

        Eligibility mirrors what makes a checkpoint replayable at all:
        engines with a bounded cache (OnTheFly fallback changes what is
        stored) or with dedupe disabled (the stored sequence is no
        longer the canonical first-occurrence sequence) are excluded.
        Durability must never make a query fail that would otherwise
        succeed, so a failed restore runs cold and a failed write is
        skipped — each counted in :attr:`checkpoint_errors`.
        """
        store = self.checkpoint_store
        if store is None:
            return control
        if engine.max_cache_size is not None or not engine.check_uniqueness:
            return control
        from .checkpoint import checkpoint_key

        key = checkpoint_key(
            staging_fingerprint(engine.spec),
            engine.cost_fn,
            engine.use_guide_table,
        )
        tracer = control.tracer
        span = tracer.start("checkpoint-restore") if tracer is not None else None
        try:
            records = store.load(key)
        except Exception:
            records = []
            self.checkpoint_errors += 1
        if span is not None:
            tracer.finish(span, levels=len(records))
        if records:
            self.checkpoint_loads += len(records)
            self.resumed_queries += 1

        def journal(records) -> None:
            # One group, one journal round.  The engine hands over every
            # level it built before a run returns, so a cancel or
            # progress hook that stops the run still leaves its levels
            # on disk.  (append_level is append under the name the
            # benchmark's probes time.)
            try:
                self.checkpoint_saves += store.append_level(key, records)
            except OSError:
                self.checkpoint_errors += 1

        return dataclasses.replace(control, restored=records, on_checkpoint=journal)
