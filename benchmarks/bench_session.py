"""Serving-layer benchmarks: cold vs warm staging and batched serving.

The evidence behind the session API redesign: staging (universe + guide
table) is paid once per example-string set, and ``synthesize_many``
serves a shared-universe batch with each search replaying the levels
the earlier ones built.

:func:`test_emit_session_bench_artifact` writes ``BENCH_session.json``
to the repo root — cold-vs-warm staging times, the 50-spec batch
throughput against 50 cold ``synthesize()`` calls, and a batch of 50
distinct partitions against 50 warm solo calls — and asserts the
acceptance criteria: ≥ 3× batch speedup on both batches, with results
equal to the solo ones.
"""

from __future__ import annotations

import json
import random
import time
import tracemalloc

from _bench_utils import REPO_ROOT, is_full
from repro import EngineConfig, Session, Spec, synthesize

#: The shared word set of the batch workload: the paper's introduction
#: example strings.  Every batched spec is a partition of this set, so
#: all 50 share one universe ``ic(P ∪ N)``.
BATCH_WORDS = ("", "0", "1", "00", "10", "100", "1000", "1001", "101",
               "1010", "11", "010")

BATCH_SIZE = 50

#: Seed of the distinct batch's partitions.
DISTINCT_SEED = 7


def batch_specs(count: int = BATCH_SIZE) -> list:
    """``count`` deterministic non-trivial partitions of the word set
    (3 distinct ones, repeated)."""
    specs = []
    for k in range(count):
        positives = [w for i, w in enumerate(BATCH_WORDS)
                     if (i + k) % 3 == 0]
        if not positives or len(positives) == len(BATCH_WORDS):
            positives = [BATCH_WORDS[k % len(BATCH_WORDS)]]
        negatives = [w for w in BATCH_WORDS if w not in positives]
        specs.append(Spec(positives, negatives))
    return specs


def distinct_specs(count: int = BATCH_SIZE, seed: int = DISTINCT_SEED) -> list:
    """``count`` seeded, pairwise distinct partitions of the word set,
    none answered by ∅ or ε (each has a positive other than ε, and a
    negative)."""
    rng = random.Random(seed)
    specs, seen = [], set()
    while len(specs) < count:
        positives = tuple(w for w in BATCH_WORDS if rng.random() < 0.5)
        if (
            positives in seen
            or not set(positives) - {""}
            or len(positives) == len(BATCH_WORDS)
        ):
            continue
        seen.add(positives)
        negatives = [w for w in BATCH_WORDS if w not in positives]
        specs.append(Spec(positives, negatives))
    return specs


def _answer(result) -> tuple:
    return (result.status, result.regex_str, result.cost, result.generated)


def distinct_batch_record(backend: str, runs: int) -> dict:
    """``synthesize_many`` over :func:`distinct_specs` on one warm
    session (best of ``runs`` calls) against 50 warm solo calls, and
    the tracemalloc peak of one more call.  Asserts that every answer
    equals the solo one in status, regex, cost and ``generated``, and a
    ≥ 3× speedup over the solo calls."""
    specs = distinct_specs()
    session = Session(EngineConfig(backend=backend))
    session.staging_for(specs[0])
    started = time.perf_counter()
    solo = [session.synthesize(spec) for spec in specs]
    solo_s = time.perf_counter() - started
    many_s = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        batch = session.synthesize_many(specs)
        many_s = min(many_s, time.perf_counter() - started)
        assert [_answer(r) for r in batch] == [_answer(r) for r in solo]
    tracemalloc.start()
    try:
        session.synthesize_many(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    speedup = solo_s / many_s
    assert speedup >= 3.0, (
        "%s synthesize_many on distinct specs must be >= 3x faster than "
        "warm solo calls, got %.2fx" % (backend, speedup)
    )
    return {
        "batch_size": len(specs),
        "seed": DISTINCT_SEED,
        "runs": runs,
        "warm_solo_seconds": solo_s,
        "synthesize_many_seconds": many_s,
        "speedup_vs_warm_solo": speedup,
        "tracemalloc_peak_mb": peak / 1e6,
        "results_equal_to_solo": True,
        "solved": sum(1 for r in solo if r.found),
    }


def test_bench_cold_staging(benchmark):
    spec = batch_specs(1)[0]

    def cold():
        return Session().staging_for(spec)

    universe, _ = benchmark(cold)
    assert universe.n_words > 10


def test_bench_warm_staging(benchmark):
    spec = batch_specs(1)[0]
    session = Session()
    session.staging_for(spec)
    universe, _ = benchmark(lambda: session.staging_for(spec))
    assert universe.n_words > 10
    assert session.stats.staging_builds == 1


def test_bench_synthesize_many(benchmark):
    specs = batch_specs(10)

    def serve():
        return Session().synthesize_many(specs)

    results = benchmark(serve)
    assert all(r.found for r in results)


# ----------------------------------------------------------------------
# Perf-trajectory artifact: BENCH_session.json at the repo root
# ----------------------------------------------------------------------

def test_emit_session_bench_artifact():
    """Measure the serving layer and record the perf trajectory.

    Asserts the headline acceptance criteria of the session redesign:
    ``synthesize_many`` on a 50-spec shared-universe batch is ≥ 3×
    faster than 50 cold ``synthesize()`` calls, with bit-identical
    results, and warm staging lookups cost (much) less than cold
    builds.
    """
    specs = batch_specs(BATCH_SIZE)

    # Cold vs warm staging.
    probe = Session()
    started = time.perf_counter()
    probe.staging_for(specs[0])
    staging_cold_s = time.perf_counter() - started
    started = time.perf_counter()
    probe.staging_for(specs[0])
    staging_warm_s = time.perf_counter() - started
    assert probe.stats.staging_builds == 1

    # 50 cold facade calls (each pays staging + its own sweep).
    started = time.perf_counter()
    cold_results = [synthesize(spec) for spec in specs]
    cold_s = time.perf_counter() - started

    # One session, one staging build; duplicates share an answer, and
    # each distinct spec replays the records the earlier ones left.
    session = Session()
    started = time.perf_counter()
    warm_results = session.synthesize_many(specs)
    warm_s = time.perf_counter() - started
    assert session.stats.staging_builds == 1
    assert session.stats.requests_served == BATCH_SIZE

    identical = all(
        _answer(a) == _answer(b) for a, b in zip(cold_results, warm_results)
    )
    assert identical, "batched results must be bit-identical to the facade"

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= 3.0, (
        "synthesize_many must be >= 3x faster than cold calls, got %.2fx"
        % speedup
    )

    # The distinct batch: vector always, the scalar engine (about a
    # minute of solo calls) at full scale only.
    distinct = {"vector": distinct_batch_record("vector", runs=5)}
    if is_full():
        distinct["scalar"] = distinct_batch_record("scalar", runs=2)

    artifact = {
        "benchmark": "session serving layer",
        "batch_size": BATCH_SIZE,
        "universe_words": warm_results[0].universe_size,
        # Per-phase attribution (staging / enumerate / dedupe / solve /
        # store) so future perf PRs can see *where* serving time goes
        # without re-instrumenting: one cold solo run and the batch's
        # first run, straight from the engines' own phase timers.
        "phase_seconds_solo": cold_results[0].extra.get("phase_seconds"),
        "phase_seconds_batch_first": warm_results[0].extra.get(
            "phase_seconds"
        ),
        "staging_cold_seconds": staging_cold_s,
        "staging_warm_seconds": staging_warm_s,
        "staging_speedup": (
            staging_cold_s / staging_warm_s if staging_warm_s > 0
            else float("inf")
        ),
        "cold_synthesize_seconds": cold_s,
        "synthesize_many_seconds": warm_s,
        "batch_speedup": speedup,
        "batch_throughput_specs_per_second": BATCH_SIZE / warm_s,
        "results_bit_identical": identical,
        "solved": sum(1 for r in warm_results if r.found),
        "distinct_batch": distinct,
    }
    (REPO_ROOT / "BENCH_session.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\nBENCH_session.json:")
    print(json.dumps(artifact, indent=2, sort_keys=True))
