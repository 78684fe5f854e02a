"""Service-layer benchmarks: pool-of-N vs solo Session, cold vs warm start.

The evidence behind the concurrent synthesis service:

* **pool vs solo** — the AlphaRegex suite swept over several cost
  functions, served once by a single warm :class:`Session` and once by
  a pool of 4 worker processes through the same
  :func:`repro.eval.harness.run_suite` entry point.  Answers must be
  bit-identical; the speedup is recorded (and asserted only on
  multi-core machines — on one core a process pool can only add
  overhead, which the artifact records honestly via ``cpu_count``).
* **cold vs warm start** — a staging-heavy workload (few large
  universes, cheap sweeps) against a persistent store: the first pool
  builds and persists the staging artifacts, the second pool *loads*
  them.  The warm run must beat the cold run, and the per-worker
  session stats must show store loads displacing builds.

:func:`test_emit_service_bench_artifact` writes ``BENCH_service.json``
to the repo root.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time

from _bench_utils import REPO_ROOT, is_full
from repro import CostFunction, Session, SynthesisRequest, Spec
from repro.eval.harness import records_to_json, run_suite
from repro.service import WorkerPool
from repro.suites.alpharegex_suite import easy_tasks

WORKERS = 4

#: Cost functions of the suite sweep (uniform, expensive star, expensive
#: literal) — enough to exercise both "success" and "budget" verdicts.
SWEEP_COST_FUNCTIONS = (
    (1, 1, 1, 1, 1),
    (1, 1, 10, 1, 1),
    (4, 1, 1, 1, 1),
)


def suite_jobs():
    """The pool-vs-solo workload: ``(name, spec, cost_fn)`` triples."""
    n_examples = 16 if is_full() else 14
    cost_fns = SWEEP_COST_FUNCTIONS if is_full() else SWEEP_COST_FUNCTIONS[:2]
    jobs = []
    for task in easy_tasks():
        spec = task.build_spec(n_pos=n_examples, n_neg=n_examples,
                               max_len=7, clamp=True)
        for values in cost_fns:
            jobs.append(("%s/c%s" % (task.name, "".join(map(str, values))),
                         spec, CostFunction.from_tuple(values)))
    return jobs


def staging_heavy_specs():
    """The warm-start workload: partitions of a few large word sets.

    The universes are big (long random words → large infix closures),
    the sweeps tiny (``max_cost=3``), so staging dominates and the
    cold-vs-warm difference isolates build-vs-load.
    """
    rng = random.Random(7)
    n_universes = 6 if is_full() else 4
    word_count, word_len = (64, 24) if is_full() else (48, 22)
    requests = []
    for u in range(n_universes):
        words = sorted({
            "".join(rng.choice("01") for _ in range(word_len))
            for _ in range(word_count)
        })
        for k in range(2):  # two partitions per universe share staging
            positives = words[k::2]
            negatives = [w for w in words if w not in positives]
            requests.append(SynthesisRequest(
                spec=Spec(positives, negatives), max_cost=3))
    return requests


def _keys(results):
    return [(r.status, r.regex_str, r.cost) for r in results]


def _run_requests(pool, requests):
    handles = [pool.submit(request) for request in requests]
    return [handle.result(timeout=600) for handle in handles]


def test_emit_service_bench_artifact():
    """Measure the service layer and record the perf trajectory."""
    jobs = suite_jobs()
    budget = 3_000_000

    # Solo baseline: one warm session, sequential.
    session = Session()
    named_specs_by_cf = {}
    for name, spec, cost_fn in jobs:
        named_specs_by_cf.setdefault(cost_fn.as_tuple(), []).append(
            (name, spec, cost_fn))
    started = time.perf_counter()
    solo_records = []
    for grouped in named_specs_by_cf.values():
        cost_fn = grouped[0][2]
        solo_records.extend(run_suite(
            [(name, spec) for name, spec, _ in grouped],
            cost_fn=cost_fn, max_generated=budget, session=session))
    solo_seconds = time.perf_counter() - started

    # Pool of 4 via the same harness entry point.
    store_root = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        started = time.perf_counter()
        with WorkerPool(workers=WORKERS,
                        store_dir=os.path.join(store_root, "suite"),
                        per_worker_depth=2) as pool:
            pool_records = []
            for grouped in named_specs_by_cf.values():
                cost_fn = grouped[0][2]
                pool_records.extend(run_suite(
                    [(name, spec) for name, spec, _ in grouped],
                    cost_fn=cost_fn, max_generated=budget, pool=pool))
            pool_stats = pool.stats
        pool_seconds = time.perf_counter() - started

        solo_keys = [(r.name, r.status, r.regex, r.cost)
                     for r in solo_records]
        pool_keys = [(r.name, r.status, r.regex, r.cost)
                     for r in pool_records]
        identical = solo_keys == pool_keys
        assert identical, "pool answers must be bit-identical to solo"

        pool_speedup = solo_seconds / pool_seconds if pool_seconds else 0.0
        cpu_count = os.cpu_count() or 1
        if cpu_count >= 2:
            assert pool_speedup > 1.0, (
                "pool-of-%d must beat a solo session on %d cores, got %.2fx"
                % (WORKERS, cpu_count, pool_speedup))

        # Cold vs warm start against one persistent store.
        warm_requests = staging_heavy_specs()
        warm_store = os.path.join(store_root, "warmstart")
        started = time.perf_counter()
        with WorkerPool(workers=WORKERS, store_dir=warm_store) as pool:
            cold_results = _run_requests(pool, warm_requests)
            cold_worker_stats = pool.worker_stats()
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        with WorkerPool(workers=WORKERS, store_dir=warm_store) as pool:
            warm_results = _run_requests(pool, warm_requests)
            warm_worker_stats = pool.worker_stats()
        warm_seconds = time.perf_counter() - started

        assert _keys(cold_results) == _keys(warm_results), (
            "warm-started answers must be bit-identical to cold ones")
        cold_builds = sum(w["session"].get("staging_builds", 0)
                          for w in cold_worker_stats)
        warm_builds = sum(w["session"].get("staging_builds", 0)
                          for w in warm_worker_stats)
        warm_loads = sum(w["session"].get("store_loads", 0)
                         for w in warm_worker_stats)
        assert cold_builds > 0, "cold run must build staging"
        assert warm_builds == 0, (
            "warm run must not rebuild staging (built %d)" % warm_builds)
        assert warm_loads > 0, "warm run must load persisted staging"
        warm_speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
        assert warm_speedup > 1.0, (
            "warm start (persisted staging) must beat the cold run, "
            "got %.2fx" % warm_speedup)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    artifact = {
        "benchmark": "concurrent synthesis service",
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "suite_jobs": len(jobs),
        "solo_session_seconds": solo_seconds,
        "pool_seconds": pool_seconds,
        "pool_speedup": pool_speedup,
        "pool_scheduler": {k: pool_stats[k] for k in
                           ("affinity_hits", "steals", "cold_assignments")},
        "results_bit_identical": identical,
        "warmstart_requests": len(warm_requests),
        "cold_start_seconds": cold_seconds,
        "warm_start_seconds": warm_seconds,
        "warm_start_speedup": warm_speedup,
        "warm_staging_builds": warm_builds,
        "warm_staging_loads": warm_loads,
        # Per-record detail of the solo baseline, including each run's
        # per-phase timing (staging / enumerate / dedupe / solve /
        # store) from the engine's own timers.
        "solo_run_records": records_to_json(solo_records),
    }
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\nBENCH_service.json:")
    print(json.dumps(artifact, indent=2, sort_keys=True))
