"""The language cache: Paresy's core data structure.

The cache is a write-once sequence of characteristic sequences (CSs),
laid out by strictly increasing cost: a "matrix of matrices of matrices"
(§3).  The translation from cost to position is the ``startPoints``
indirection, reproduced here as :class:`LevelIndex`: each *complete* cost
level records the half-open range of global indices holding its CSs.

Two concrete caches exist:

* :class:`IntCache` — scalar engine; CSs are Python ints.
* :class:`PackedCache` — vectorised engine; CSs are rows of a contiguous
  ``(capacity, lanes)`` uint64 numpy matrix (the paper's contiguous byte
  array, power-of-two padded).

Both also store, per CS, its 1-based generation ordinal.  The paper's
"auxiliary data, allowing the conversion of a CS to a corresponding
regular expression" — the provenance triple ``(op, left, right)`` that
:mod:`repro.core.reconstruct` reads — is a function of that ordinal,
decoded on demand by :attr:`repro.core.engine.SearchEngine.provenance`.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bitops import bitslice_rows

#: Default byte budget of a :class:`PackedCache`'s plane cache (the
#: bit-sliced copies of completed cost levels).  A level's planes cost
#: roughly as much as its packed rows, so this bounds the overhead of
#: plane residency to a constant factor of the hot working set.
DEFAULT_PLANE_CACHE_BYTES = 1 << 27

#: The on-disk-relevant layout contract of the caches.  Any change that
#: alters what a stored level *means* — row packing, dedupe discipline
#: (which decides what gets stored at all), provenance or ordinal
#: encoding, the checkpoint record format (v5: each record a delta past
#: its cost's journalled cursor, holding rows and ordinals only; a row's
#: provenance is decoded from its ordinal) — must be reflected here so
#: persisted checkpoints keyed by :func:`cache_version_fingerprint`
#: invalidate instead of replaying rows under the wrong interpretation.
CACHE_SCHEMA = {
    "rows": "uint64-le-lanes/pow2-padded/v1",
    "dedupe": "two-tier-fingerprint-exact/v1",
    "provenance": "decoded-from-ordinal/v5",
    "ordinals": "absolute-1based-generation-int64/v1",
    "checkpoints": "self-indexed-journal-cost-delta-chains/v5",
}


def cache_version_fingerprint() -> str:
    """SHA-256 of :data:`CACHE_SCHEMA` (canonical JSON).

    Part of the checkpoint key: two builds agree on this fingerprint
    exactly when a completed level journalled by one is bit-for-bit
    meaningful to the other.
    """
    text = json.dumps(CACHE_SCHEMA, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def checkpoint_key(universe, cost_fn, use_guide_table: bool = True) -> str:
    """Content address of one enumeration's level sequence: what its
    checkpoint records are filed under, in the durable journal and in
    :meth:`repro.api.session.Session.synthesize_many`'s per-call store.

    Hashed over the universe's shortlex words and alphabet — the
    engine's own universe, which may be a superset of a spec's infixes
    (an incremental removal keeps the wider one) — the cost function,
    the guide-table toggle and :func:`cache_version_fingerprint`.  Spec
    masks, budgets and the backend are excluded on purpose: none of
    them changes what a level's record contains (the spec only decides
    when the sweep *stops*, budgets only where it is cut, and the
    engines are bit-identical).
    """
    payload = {
        "words": list(universe.words),
        "alphabet": list(universe.alphabet),
        "cost_fn": list(cost_fn.as_tuple()),
        "use_guide_table": bool(use_guide_table),
        "cache_version": cache_version_fingerprint(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class LevelIndex:
    """``startPoints``: cost level → half-open global index range.

    Only *complete* levels are recorded; a level interrupted by cache
    exhaustion (OnTheFly mode) is never registered, so operand iteration
    automatically restricts itself to trustworthy levels.
    """

    __slots__ = ("_bounds", "_costs")

    def __init__(self) -> None:
        self._bounds: Dict[int, Tuple[int, int]] = {}
        self._costs: List[int] = []

    def mark(self, cost: int, start: int, end: int) -> None:
        """Record that the CSs of ``cost`` occupy ``[start, end)``."""
        if cost in self._bounds:
            raise ValueError("cost level %d recorded twice" % cost)
        if self._costs and cost <= self._costs[-1]:
            raise ValueError("cost levels must be recorded in increasing order")
        self._bounds[cost] = (start, end)
        self._costs.append(cost)

    def bounds(self, cost: int) -> Optional[Tuple[int, int]]:
        """The range of ``cost``, or None if that level is not recorded."""
        return self._bounds.get(cost)

    def costs(self) -> Tuple[int, ...]:
        """All recorded costs, ascending."""
        return tuple(self._costs)

    @property
    def last_complete_cost(self) -> Optional[int]:
        """The highest recorded (hence complete) cost level."""
        return self._costs[-1] if self._costs else None

    def size_of(self, cost: int) -> int:
        """Number of CSs stored at ``cost`` (0 if unrecorded)."""
        bounds = self._bounds.get(cost)
        return 0 if bounds is None else bounds[1] - bounds[0]


class IntCache:
    """Scalar language cache: CSs as Python ints, plus ordinals."""

    __slots__ = ("cs_list", "ordinals", "levels", "max_size")

    def __init__(self, max_size: Optional[int] = None) -> None:
        self.cs_list: List[int] = []
        self.ordinals: List[int] = []
        self.levels = LevelIndex()
        self.max_size = max_size

    def __len__(self) -> int:
        return len(self.cs_list)

    @property
    def is_full(self) -> bool:
        """True once the configured capacity has been reached."""
        return self.max_size is not None and len(self.cs_list) >= self.max_size

    def append(self, cs: int, ordinal: int = 0) -> int:
        """Store a CS; returns its global index.

        ``ordinal`` is the 1-based absolute generation ordinal of the
        candidate (the engine's ``generated`` counter after counting
        it) — what the engine decodes the row's provenance from, and
        what level checkpoints use to replay budget semantics.
        """
        self.cs_list.append(cs)
        self.ordinals.append(ordinal)
        return len(self.cs_list) - 1

    def cs_at(self, index: int) -> int:
        """The CS stored at a global index."""
        return self.cs_list[index]


class PackedCache:
    """Vectorised language cache: a contiguous uint64 bit-matrix.

    Rows are CSs (``lanes`` little-endian 64-bit words each, power-of-two
    padded as in the paper's second space-time trade-off); the matrix
    grows by doubling but rows, once written, never change.  Beside it
    one int64 column holds each row's generation ordinal, so a batch
    append is two slice assignments.
    """

    __slots__ = (
        "lanes",
        "matrix",
        "n_rows",
        "levels",
        "max_size",
        "plane_cache_bytes",
        "plane_stats",
        "_ordinals",
        "_planes",
        "_plane_bytes",
    )

    def __init__(
        self,
        lanes: int,
        max_size: Optional[int] = None,
        plane_cache_bytes: int = DEFAULT_PLANE_CACHE_BYTES,
    ) -> None:
        self.lanes = lanes
        self.matrix = np.zeros((64, lanes), dtype=np.uint64)
        self.n_rows = 0
        self._ordinals = np.zeros(64, dtype=np.int64)
        self.levels = LevelIndex()
        self.max_size = max_size
        self.plane_cache_bytes = plane_cache_bytes
        #: ``{"builds": …, "hits": …, "evictions": …}`` — exposed for
        #: tests and the benchmark harness.
        self.plane_stats = {"builds": 0, "hits": 0, "evictions": 0}
        self._planes: "OrderedDict[Tuple[int, int, int], np.ndarray]" = (
            OrderedDict()
        )
        self._plane_bytes = 0

    def __len__(self) -> int:
        return self.n_rows

    @property
    def is_full(self) -> bool:
        """True once the configured capacity has been reached."""
        return self.max_size is not None and self.n_rows >= self.max_size

    @property
    def ordinals(self) -> np.ndarray:
        """A read-only view of the stored rows' generation ordinals."""
        return self._ordinals[: self.n_rows]

    def _ensure(self, extra: int) -> None:
        needed = self.n_rows + extra
        capacity = self.matrix.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.zeros((capacity, self.lanes), dtype=np.uint64)
        grown[: self.n_rows] = self.matrix[: self.n_rows]
        self.matrix = grown
        grown_ordinals = np.zeros(capacity, dtype=np.int64)
        grown_ordinals[: self.n_rows] = self.ordinals
        self._ordinals = grown_ordinals

    def append_rows(
        self, rows: np.ndarray, ordinals: Optional[np.ndarray] = None
    ) -> None:
        """Bulk-store CS rows: two slice assignments.  ``ordinals`` are
        the rows' 1-based absolute generation ordinals (zeros when
        omitted)."""
        count = rows.shape[0]
        if count == 0:
            return
        if ordinals is not None and count != len(ordinals):
            raise ValueError("rows and ordinals lengths differ")
        self._ensure(count)
        lo, hi = self.n_rows, self.n_rows + count
        self.matrix[lo:hi] = rows
        if ordinals is not None:
            self._ordinals[lo:hi] = ordinals
        self.n_rows += count

    def planes(self, start: int, end: int, n_bits: int) -> np.ndarray:
        """Bit-sliced planes of rows ``[start, end)`` — sliced once,
        served from the plane cache afterwards.

        The returned ``(8 * ceil(n_bits / 8), ceil((end - start) / 8))``
        uint8 matrix holds bit ``w`` of every row in the range, packed 8
        rows per byte (see :func:`repro.core.bitops.bitslice_rows`).
        Rows are write-once, so a cached entry for a fully-stored range
        can never go stale; ranges that reach past ``n_rows`` are
        rejected outright, which is what makes "append to a level →
        stale planes served" impossible: a grown range is a *different*
        cache key, and it can only be built once its rows exist.

        Entries are evicted least-recently-used once the cache exceeds
        ``plane_cache_bytes``.  Treat the result as read-only — it is
        shared across calls.
        """
        if not 0 <= start <= end <= self.n_rows:
            raise ValueError(
                "plane range [%d, %d) not fully stored (n_rows=%d)"
                % (start, end, self.n_rows)
            )
        key = (start, end, n_bits)
        cached = self._planes.get(key)
        if cached is not None:
            self._planes.move_to_end(key)
            self.plane_stats["hits"] += 1
            return cached
        planes = bitslice_rows(self.matrix[start:end], n_bits)
        self.plane_stats["builds"] += 1
        self._planes[key] = planes
        self._plane_bytes += planes.nbytes
        while self._plane_bytes > self.plane_cache_bytes and len(self._planes) > 1:
            _, evicted = self._planes.popitem(last=False)
            self._plane_bytes -= evicted.nbytes
            self.plane_stats["evictions"] += 1
        return planes

    def rows(self, start: int, end: int) -> np.ndarray:
        """A read-only view of rows ``[start, end)``."""
        return self.matrix[start:end]

    def row(self, index: int) -> np.ndarray:
        """One stored CS row."""
        return self.matrix[index]
