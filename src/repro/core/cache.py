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

Both also store, per CS, the provenance triple ``(op, left, right)`` that
:mod:`repro.core.reconstruct` uses to rebuild a regular expression — the
paper's "auxiliary data, allowing the conversion of a CS to a
corresponding regular expression".
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
#: encoding, the checkpoint record format — must be reflected here so
#: persisted checkpoints keyed by :func:`cache_version_fingerprint`
#: invalidate instead of replaying rows under the wrong interpretation.
CACHE_SCHEMA = {
    "rows": "uint64-le-lanes/pow2-padded/v1",
    "dedupe": "two-tier-fingerprint-exact/v1",
    "provenance": "op-left-right-int64-columns/v1",
    "ordinals": "absolute-1based-generation-int64/v1",
    "checkpoints": "one-record-per-cost-with-level-cursor/v2",
}


def cache_version_fingerprint() -> str:
    """SHA-256 of :data:`CACHE_SCHEMA` (canonical JSON).

    Part of the checkpoint key: two builds agree on this fingerprint
    exactly when a completed level journalled by one is bit-for-bit
    meaningful to the other.
    """
    text = json.dumps(CACHE_SCHEMA, sort_keys=True, separators=(",", ":"))
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
    """Scalar language cache: CSs as Python ints, plus provenance."""

    __slots__ = ("cs_list", "provenance", "ordinals", "levels", "max_size")

    def __init__(self, max_size: Optional[int] = None) -> None:
        self.cs_list: List[int] = []
        self.provenance: List[Tuple[int, int, int]] = []
        self.ordinals: List[int] = []
        self.levels = LevelIndex()
        self.max_size = max_size

    def __len__(self) -> int:
        return len(self.cs_list)

    @property
    def is_full(self) -> bool:
        """True once the configured capacity has been reached."""
        return self.max_size is not None and len(self.cs_list) >= self.max_size

    def append(
        self, cs: int, op: int, left: int, right: int, ordinal: int = 0
    ) -> int:
        """Store a CS with its provenance; returns its global index.

        ``ordinal`` is the 1-based absolute generation ordinal of the
        candidate (the engine's ``generated`` counter after counting
        it) — what level checkpoints use to replay budget semantics.
        """
        self.cs_list.append(cs)
        self.provenance.append((op, left, right))
        self.ordinals.append(ordinal)
        return len(self.cs_list) - 1

    def cs_at(self, index: int) -> int:
        """The CS stored at a global index."""
        return self.cs_list[index]


class PackedCache:
    """Vectorised language cache: a contiguous uint64 bit-matrix.

    Rows are CSs (``lanes`` little-endian 64-bit words each, power-of-two
    padded as in the paper's second space-time trade-off); the matrix
    grows by doubling but rows, once written, never change.

    Provenance is held column-wise (three parallel int64 arrays) so a
    batch append is three slice assignments — the store-side analogue of
    the batched kernels; the row-wise :attr:`provenance` view used by
    reconstruction and the equivalence tests is materialised lazily.
    """

    __slots__ = (
        "lanes",
        "matrix",
        "n_rows",
        "levels",
        "max_size",
        "plane_cache_bytes",
        "plane_stats",
        "_ops",
        "_lefts",
        "_rights",
        "_gen",
        "_provenance_view",
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
        self._ops = np.zeros(64, dtype=np.int64)
        self._lefts = np.zeros(64, dtype=np.int64)
        self._rights = np.zeros(64, dtype=np.int64)
        self._gen = np.zeros(64, dtype=np.int64)
        self._provenance_view: Optional[List[Tuple[int, int, int]]] = None
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
    def provenance(self) -> List[Tuple[int, int, int]]:
        """Row-wise ``(op, left, right)`` triples (lazily materialised)."""
        if (
            self._provenance_view is None
            or len(self._provenance_view) != self.n_rows
        ):
            n = self.n_rows
            self._provenance_view = list(
                zip(
                    self._ops[:n].tolist(),
                    self._lefts[:n].tolist(),
                    self._rights[:n].tolist(),
                )
            )
        return self._provenance_view

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
        for name in ("_ops", "_lefts", "_rights", "_gen"):
            column = getattr(self, name)
            grown_col = np.zeros(capacity, dtype=np.int64)
            grown_col[: self.n_rows] = column[: self.n_rows]
            setattr(self, name, grown_col)

    def append_row(
        self,
        row: np.ndarray,
        op: int,
        left: int,
        right: int,
        ordinal: int = 0,
    ) -> int:
        """Store one CS row with provenance; returns its global index."""
        self._ensure(1)
        self.matrix[self.n_rows] = row
        self._ops[self.n_rows] = op
        self._lefts[self.n_rows] = left
        self._rights[self.n_rows] = right
        self._gen[self.n_rows] = ordinal
        self.n_rows += 1
        return self.n_rows - 1

    def append_rows(
        self,
        rows: np.ndarray,
        op,
        lefts: np.ndarray,
        rights: np.ndarray,
        ordinals: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk-store CS rows built by one ``op`` from operand indices.

        Slice assignments instead of a Python loop over provenance
        tuples.  ``op`` may be a scalar (the usual single-operator
        batch) or a per-row array (checkpoint replay, which restores a
        whole mixed-operator level at once); ``ordinals`` are the rows'
        1-based absolute generation ordinals (zeros when omitted).
        """
        count = rows.shape[0]
        if count == 0:
            return
        if count != len(lefts) or count != len(rights):
            raise ValueError("rows and provenance lengths differ")
        if ordinals is not None and count != len(ordinals):
            raise ValueError("rows and ordinals lengths differ")
        self._ensure(count)
        lo, hi = self.n_rows, self.n_rows + count
        self.matrix[lo:hi] = rows
        self._ops[lo:hi] = op
        self._lefts[lo:hi] = lefts
        self._rights[lo:hi] = rights
        if ordinals is not None:
            self._gen[lo:hi] = ordinals
        self.n_rows += count

    def gen_ordinals(self, start: int, end: int) -> np.ndarray:
        """A read-only view of the generation ordinals of ``[start, end)``."""
        return self._gen[start:end]

    def provenance_arrays(
        self, start: int, end: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-wise ``(ops, lefts, rights)`` views of ``[start, end)``."""
        return (
            self._ops[start:end],
            self._lefts[start:end],
            self._rights[start:end],
        )

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
