"""Micro-benchmarks of the primitive kernels both engines are built on.

Not a paper table, but the evidence behind the Table 1 speed-up: the
batched array-level kernels amortise Python overhead across a whole
candidate block, while the scalar kernels pay it per candidate (see
``docs/ARCHITECTURE.md``, "Kernel design").

Besides the pytest-benchmark timings, :func:`test_emit_kernel_bench_artifact`
writes ``BENCH_kernels.json`` to the repo root: one record per vector
op with its ns/candidate and ``speedup_vs_scalar``, the same work timed
in the same run on the scalar engine's counterpart.
``benchmarks/check_perf_ceilings.py`` gates the records against
``benchmarks/perf_ceilings.json``.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import pytest

from _bench_utils import REPO_ROOT, bench_scale, is_full
from repro.core.bitops import concat_cs, int_to_lanes, lanes_to_int, star_cs
from repro.core.engine import cs_solves
from repro.core.hashset import FingerprintHashSet, PackedKeySet
from repro.core.scalar_engine import ScalarEngine
from repro.core.shard import LaneMatcher
from repro.core.vector_engine import VectorEngine, _Kernels
from repro.language.guide_table import GuideTable
from repro.language.universe import Universe
from repro.regex.cost import CostFunction
from repro.spec import Spec

WORDS = ["110100", "001011", "111000", "010101"]

#: Universe for the perf-trajectory artifact: 10-char heterogeneous
#: words, like the paper's harder Table 1 rows (larger guide table,
#: multi-lane CSs) — the regime the batched kernels are built for.
ARTIFACT_WORDS = ["1101001010", "0010110101", "1110001110"]

#: The end-to-end workload of the ``level_build`` record: the multi-lane
#: synthesis task of ``tests/test_wide_universe.py``.
WIDE_SPEC = Spec(
    positive=["0110100101", "1010010110", "01"],
    negative=["", "0", "1", "11", "10", "0011001100"],
)

#: Consecutive vector sweeps of the ``level_build`` workload timed as
#: one repeat: a single sweep takes ~35 ms, too short to time steadily
#: against the scalar engine's ~2 s.
LEVEL_BUILD_SWEEPS = 10


@pytest.fixture(scope="module")
def setting():
    universe = Universe(WORDS)
    guide = GuideTable(universe)
    return universe, guide


def test_bench_guide_table_build(benchmark):
    universe = Universe(WORDS)
    guide = benchmark(lambda: GuideTable(universe))
    assert guide.n_splits > 0


def test_bench_scalar_concat(benchmark, setting):
    universe, guide = setting
    left = universe.cs_of_predicate(lambda w: w.endswith("0"))
    right = universe.cs_of_predicate(lambda w: w.startswith("1"))
    result = benchmark(lambda: concat_cs(left, right, guide))
    assert result >= 0


def test_bench_scalar_star(benchmark, setting):
    universe, guide = setting
    cs = universe.cs_of_predicate(lambda w: len(w) == 1)
    result = benchmark(lambda: star_cs(cs, guide, universe))
    assert result & universe.eps_bit


def test_bench_vector_concat_batch(benchmark, setting):
    universe, guide = setting
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 2**63, size=(4096, universe.lanes),
                         dtype=np.uint64)
    out = benchmark(lambda: kernels.concat(batch, batch))
    assert out.shape == batch.shape


def test_bench_vector_star_batch(benchmark, setting):
    universe, guide = setting
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(2)
    batch = rng.integers(0, 2**63, size=(1024, universe.lanes),
                         dtype=np.uint64)
    out = benchmark(lambda: kernels.star(batch))
    assert out.shape == batch.shape


def test_bench_vector_dedupe_batch(benchmark, setting):
    universe, _ = setting
    rng = np.random.default_rng(3)
    batch = rng.integers(0, 1 << 12, size=(4096, universe.lanes),
                         dtype=np.uint64)

    def run():
        seen = PackedKeySet(universe.lanes, initial_capacity=1 << 12)
        return seen.insert_batch(batch)

    novelty = benchmark(run)
    assert novelty.shape == (4096,)


def test_vector_kernel_throughput_beats_scalar(setting):
    """The per-candidate cost of the batched kernel must be far below
    the scalar kernel's — the microscopic source of Table 1."""
    universe, guide = setting
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(1)
    n = 4096
    batch = rng.integers(0, 2**63, size=(n, universe.lanes), dtype=np.uint64)

    started = time.perf_counter()
    kernels.concat(batch, batch)
    vector_per_item = (time.perf_counter() - started) / n

    left = universe.cs_of_predicate(lambda w: w.endswith("0"))
    right = universe.cs_of_predicate(lambda w: w.startswith("1"))
    started = time.perf_counter()
    for _ in range(200):
        concat_cs(left, right, guide)
    scalar_per_item = (time.perf_counter() - started) / 200

    assert vector_per_item < scalar_per_item


def test_bench_hashset_inserts(benchmark):
    def run():
        hs = FingerprintHashSet(initial_capacity=1 << 12)
        for key in range(5000):
            hs.insert((key * 2654435761) % (1 << 61))
        return hs

    hs = benchmark(run)
    assert len(hs) == 5000


def test_bench_universe_build(benchmark):
    words = ["1101001010", "0010110101", "1110001110"]
    universe = benchmark(lambda: Universe(words))
    assert universe.n_words > 50


# ----------------------------------------------------------------------
# Perf-trajectory artifact: BENCH_kernels.json at the repo root
# ----------------------------------------------------------------------

def _timed(fn):
    """``fn`` as a callable that returns its own wall-clock seconds."""
    def run():
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    return run


def _paired(vector, scalar, rounds, vector_runs=1):
    """Time ``vector()`` and ``scalar()``, callables that return the
    seconds they timed, back to back: per round the best of
    ``vector_runs`` vector timings, then one scalar timing.  Returns the
    rounds' ``(vector_s, scalar_s)`` pairs."""
    return [
        (min(vector() for _ in range(vector_runs)), scalar())
        for _ in range(rounds)
    ]


def test_emit_kernel_bench_artifact():
    """Time every vector op against its scalar counterpart.

    Each record's ``speedup_vs_scalar`` divides the scalar engine's time
    for the same work, measured in this run, by the vector op's:
    ``concat_cs``, ``star_cs``, the scalar seen-set
    (``FingerprintHashSet.insert``), ``cs_solves`` and, for
    ``level_build``, a whole ``ScalarEngine`` sweep of the wide spec.
    The two sides are timed back to back in rounds, and the ratio is
    the median of the rounds' ratios: a slow spell of a shared machine
    lands on both sides of a round's ratio, and one lucky or unlucky
    timing moves no median.  The ``ns_per_candidate`` fields are the
    best of all rounds.  ``check_perf_ceilings.py`` gates
    ``ns_per_candidate`` against its ceilings and ``speedup_vs_scalar``
    against its floors.
    """
    universe = Universe(ARTIFACT_WORDS)
    guide = GuideTable(universe)
    kernels = _Kernels(universe, guide)
    batch_size = 1 << 17 if is_full() else 1 << 16
    rounds = 5
    rng = np.random.default_rng(42)
    batch = rng.integers(0, 2**63, size=(batch_size, universe.lanes),
                         dtype=np.uint64)
    left_int = universe.cs_of_predicate(lambda w: w.endswith("0"))
    right_int = universe.cs_of_predicate(lambda w: w.startswith("1"))

    results = []

    def record(op, items, scalar_items, pairs, **extra):
        results.append({
            "op": op,
            **extra,
            "ns_per_candidate": min(v for v, _ in pairs) * 1e9 / items,
            "ns_per_candidate_scalar": (
                min(s for _, s in pairs) * 1e9 / scalar_items
            ),
            "speedup_vs_scalar": statistics.median(
                s * items / (v * scalar_items) for v, s in pairs
            ),
        })

    # --- concat: plane fold vs the scalar guide-table concat ----------
    # A scalar repeat of ~60 ms, and twice the rounds of the other ops:
    # with 200 calls per repeat and 5 rounds the ratio read 174-299 over
    # five full-scale runs on a shared 2-core box.
    scalar_reps = 1000
    pairs = _paired(
        _timed(lambda: kernels.concat(batch, batch)),
        _timed(lambda: [concat_cs(left_int, right_int, guide)
                        for _ in range(scalar_reps)]),
        2 * rounds, vector_runs=2,
    )
    record("concat", batch_size, scalar_reps, pairs, batch_size=batch_size)

    # --- star: plane-resident fixpoint vs the scalar fixpoint ---------
    star_batch = batch[: max(batch_size // 4, 1)]
    star_reps = 50
    pairs = _paired(
        _timed(lambda: kernels.star(star_batch)),
        _timed(lambda: [star_cs(left_int, guide, universe)
                        for _ in range(star_reps)]),
        rounds,
    )
    record("star", star_batch.shape[0], star_reps, pairs,
           batch_size=int(star_batch.shape[0]))

    # --- dedupe: two-tier set vs the scalar seen-set ------------------
    dedupe_batch = rng.integers(0, 1 << 12, size=(batch_size, universe.lanes),
                                dtype=np.uint64)
    dedupe_keys = [lanes_to_int(row) for row in dedupe_batch]

    def vector_dedupe():
        seen = PackedKeySet(universe.lanes, initial_capacity=1 << 12)
        return seen.insert_batch(dedupe_batch)

    def scalar_dedupe():
        seen = FingerprintHashSet(initial_capacity=1 << 12)
        return [seen.insert(key) for key in dedupe_keys]

    assert vector_dedupe().tolist() == scalar_dedupe()
    # A cheap op: more vector runs per round ride out timer noise.
    pairs = _paired(
        _timed(vector_dedupe), _timed(scalar_dedupe), rounds, vector_runs=3
    )
    record("dedupe_two_tier", batch_size, batch_size, pairs,
           batch_size=batch_size)

    # --- level_build: end-to-end wide-spec synthesis ------------------
    wide_universe = Universe(WIDE_SPEC.all_words)
    wide_guide = GuideTable(wide_universe)
    cost_fn = CostFunction.uniform()
    engines = {}

    def sweeps(engine_class, count):
        """Mean ``run`` seconds of ``count`` sweeps, each on a fresh
        engine (built untimed); the last engine is kept."""
        def run():
            total = 0.0
            for _ in range(count):
                engine = engine_class(
                    WIDE_SPEC, cost_fn, wide_universe, wide_guide,
                    max_generated=300_000,
                )
                started = time.perf_counter()
                engine.run(40)
                total += time.perf_counter() - started
            engines[engine_class] = engine
            return total / count
        return run

    # Three scalar sweeps, each after the best of three ten-sweep vector
    # blocks: at two of each, one slow spell of a shared 2-core box put
    # the ratio 17% under its median of 20 runs.
    pairs = _paired(
        sweeps(VectorEngine, LEVEL_BUILD_SWEEPS), sweeps(ScalarEngine, 1),
        rounds=3, vector_runs=3,
    )
    engine, scalar_engine = engines[VectorEngine], engines[ScalarEngine]
    # The same enumeration on both engines: the licence to compare
    # their clocks.
    assert engine.status == scalar_engine.status
    assert engine.generated == scalar_engine.generated
    record(
        "level_build", engine.generated, engine.generated, pairs,
        workload="wide-spec synthesis (%d words, %d lanes)" % (
            wide_universe.n_words, wide_universe.lanes),
        generated=engine.generated,
        sweeps_per_repeat=LEVEL_BUILD_SWEEPS,
        seconds=min(v for v, _ in pairs),
        seconds_scalar=min(s for _, s in pairs),
    )

    # --- solve: lane-wise spec check vs the scalar predicate ----------
    pos_mask = left_int
    neg_mask = right_int & ~left_int
    pos_lanes = int_to_lanes(pos_mask, universe.lanes)
    neg_lanes = int_to_lanes(neg_mask, universe.lanes)
    matcher = LaneMatcher(pos_lanes, neg_lanes, 0)
    solve_batch = batch.copy()
    solve_batch[::3] |= pos_lanes
    solve_batch[::3] &= ~neg_lanes
    solve_ints = [lanes_to_int(row) for row in solve_batch]

    def scalar_solve():
        return [cs_solves(cs, pos_mask, neg_mask, 0) for cs in solve_ints]

    # The lane matcher against the whole-row form of the predicate.
    whole_row = ((solve_batch & pos_lanes) == pos_lanes).all(axis=1)
    whole_row &= ((solve_batch & neg_lanes) == 0).all(axis=1)
    flags = matcher.flags(solve_batch)
    assert np.array_equal(flags, whole_row)
    assert flags.tolist() == scalar_solve()
    pairs = _paired(
        _timed(lambda: matcher.flags(solve_batch)), _timed(scalar_solve),
        rounds, vector_runs=3,
    )
    record("solve", batch_size, batch_size, pairs, batch_size=batch_size)

    artifact = {
        "scale": bench_scale(),
        "universe_words": universe.n_words,
        "guide_splits": guide.n_splits,
        "lanes": universe.lanes,
        "results": results,
    }
    (REPO_ROOT / "BENCH_kernels.json").write_text(
        json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
    )
    print("\n" + json.dumps(artifact, indent=2))
