"""Intra-query sharding benchmark: serial vs sharded level construction.

One hard specification, one engine run, all cores: the sharded vector
engine (``shard_workers=N``) must produce **bit-identical**
enumeration-visible state to the serial sweep — asserted on every run —
and beat it on wall-clock when real cores are available.  Following the
service benchmark's convention, the speedup is asserted only on
multi-core machines (``cpu_count >= 4``); a single-core box records the
honest slowdown (process round-trips with no parallelism to pay for
them) in the artifact instead.

:func:`test_emit_shard_bench_artifact` writes ``BENCH_shard.json`` to
the repo root.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _bench_utils import REPO_ROOT, is_full
from repro.core.bitops import lanes_to_int
from repro.core.vector_engine import VectorEngine
from repro.language.guide_table import GuideTable
from repro.language.universe import Universe
from repro.regex.cost import CostFunction
from repro.spec import Spec

#: Shards of the headline comparison (the acceptance criterion's
#: "multi-core speedup >= 1.5x" is stated against this fan-out).
SHARD_WORKERS = 4

#: Quick-scale workload: a deep 4-lane alternation task — ~1.1M
#: candidates over 13 cost levels, with the late levels' pair groups
#: far above the sharding threshold.
QUICK_SPEC = Spec(
    positive=["01101001011", "10100101101", "01011010011", "10010110101"],
    negative=["", "0", "1", "11", "10", "00110011001", "11100011101",
              "00000111110", "10110100101", "01100110100"],
)

#: Full-scale workload (nightly): ~68M candidates over 17 levels.
FULL_SPEC = Spec(
    positive=["0110100101", "1010010110", "0101101001", "1001011010",
              "0110011010"],
    negative=["", "0", "1", "11", "10", "0011001100", "1110001110",
              "0000011111", "1011010010", "1100110011", "0101010101"],
)


def run_once(spec, shard_workers):
    universe = Universe(spec.all_words, alphabet=spec.alphabet)
    guide = GuideTable(universe)
    engine = VectorEngine(
        spec,
        CostFunction.uniform(),
        universe,
        guide,
        shard_workers=shard_workers,
    )
    started = time.perf_counter()
    status = engine.run(60)
    elapsed = time.perf_counter() - started
    return engine, status, elapsed


def state_digest(engine, status):
    """Enumeration-visible state, hashed small enough to compare."""
    cache = engine.cache
    rows = np.ascontiguousarray(cache.matrix[: len(cache)])
    return {
        "status": status,
        "generated": engine.generated,
        "stored": len(cache),
        "levels_built": engine.levels_built,
        "level_stats": engine.level_stats,
        "solution": engine.solution,
        "solution_cost": engine.solution_cost,
        "rows_hash": hash(rows.tobytes()),
        # Provenance is decoded from the ordinals: equal ordinals (and
        # level stats) mean equal provenance.
        "ordinals_hash": hash(cache.ordinals.tobytes()),
    }


def measure(spec, name):
    serial_engine, serial_status, serial_seconds = run_once(spec, 1)
    shard_engine, shard_status, shard_seconds = run_once(spec, SHARD_WORKERS)
    serial_state = state_digest(serial_engine, serial_status)
    shard_state = state_digest(shard_engine, shard_status)
    assert serial_state == shard_state, (
        "sharded run diverged from serial on %s" % name
    )
    assert serial_status == "success"
    # Spot-check a stored row end-to-end, beyond the digest.
    assert lanes_to_int(serial_engine.cache.row(0)) == lanes_to_int(
        shard_engine.cache.row(0)
    )
    speedup = serial_seconds / shard_seconds if shard_seconds else 0.0
    return {
        "workload": name,
        "universe_words": serial_engine.universe.n_words,
        "lanes": serial_engine.universe.lanes,
        "generated": serial_engine.generated,
        "stored": len(serial_engine.cache),
        "levels_built": serial_engine.levels_built,
        "serial_seconds": serial_seconds,
        "sharded_seconds": shard_seconds,
        "shard_workers": SHARD_WORKERS,
        "speedup": speedup,
        "bit_identical": True,
    }


def test_emit_shard_bench_artifact():
    """Measure sharded-vs-serial level construction; write the artifact."""
    records = [measure(QUICK_SPEC, "wide-spec synthesis (quick)")]
    if is_full():
        records.append(measure(FULL_SPEC, "wide-spec synthesis (full)"))

    cpu_count = os.cpu_count() or 1
    headline = records[-1]
    if cpu_count >= 4:
        assert headline["speedup"] >= 1.5, (
            "sharded engine (%d shards) must reach >= 1.5x on %d cores, "
            "got %.2fx" % (SHARD_WORKERS, cpu_count, headline["speedup"])
        )

    artifact = {
        "benchmark": "intra-query sharded level construction",
        "cpu_count": cpu_count,
        "scale": "full" if is_full() else "quick",
        "results": records,
    }
    (REPO_ROOT / "BENCH_shard.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\nBENCH_shard.json:")
    print(json.dumps(artifact, indent=2, sort_keys=True))
