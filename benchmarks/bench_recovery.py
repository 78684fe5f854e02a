"""Crash-recovery benchmarks: checkpoint resume vs cold re-enumeration,
and the price of worker-death retries.

The evidence behind the durability layer:

* **resume vs cold** — one query is killed after each checkpointed cost
  level (every level at full scale, a spread of levels at quick scale),
  then re-served from the checkpoint store by a fresh session.  Each
  resumed answer must be bit-identical to the uninterrupted reference;
  the artifact records recovery time against cold re-enumeration per
  kill level, which is the measured shape of "recovery cost shrinks as
  the crash lands later in the sweep".  Cold is timed twice: a plain
  ``Session`` (``cold_seconds``) and a ``StoreBackedSession`` on an
  empty checkpoint store (``durable_cold_seconds``), which pays the
  same journal round a resume pays.
* **retry overhead** — the same job batch served by a pool twice: once
  undisturbed, once with an injected ``SIGKILL`` of a worker mid-job
  (``pool.worker.before_job:kill:1:once``).  The faulted run must
  return identical answers; the artifact records the slowdown plus the
  retry/respawn counters.

:func:`test_emit_recovery_bench_artifact` writes ``BENCH_recovery.json``
to the repo root.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from _bench_utils import REPO_ROOT, is_full
from repro import EngineConfig, Session, Spec, SynthesisRequest
from repro.service import CheckpointStore, StoreBackedSession, WorkerPool
from repro.testing import faults

#: Deep enough that the sweep builds a meaningful number of levels.
RESUME_SPEC = (
    Spec(
        positive=["0110100101", "1010010110"],
        negative=["", "0", "1", "0011001100"],
    )
    if is_full()
    else Spec(
        positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
        negative=["", "0", "1", "00", "11", "010"],
    )
)

RETRY_SPECS = [
    Spec(positive=["00", "010", "0110"], negative=["", "11", "101"]),
    Spec(positive=["10", "101", "100"], negative=["", "0", "11"]),
    Spec(positive=["1", "11", "111"], negative=["", "0", "00"]),
]


def _identity(result):
    return (
        result.status,
        result.regex_str,
        result.cost,
        result.generated,
        result.unique_cs,
        result.levels_built,
    )


def _interrupted_run(config, store, spec, levels):
    session = StoreBackedSession(config, checkpoint_store=store)
    count = {"n": 0}

    def on_progress(event):
        if not event.done:
            count["n"] += 1

    session.synthesize(SynthesisRequest(
        spec=spec,
        on_progress=on_progress,
        cancel=lambda: count["n"] >= levels,
    ))


def _bench_resume(config):
    """Kill-at-level K, resume, compare against cold re-enumeration."""
    started = time.perf_counter()
    reference = Session(config).synthesize(RESUME_SPEC)
    cold_seconds = time.perf_counter() - started
    total_levels = reference.levels_built
    if is_full():
        kill_levels = list(range(1, total_levels + 1))
    else:
        kill_levels = sorted({
            max(1, total_levels // 4),
            max(1, total_levels // 2),
            max(1, (3 * total_levels) // 4),
            total_levels,
        })
    per_level = []
    root = tempfile.mkdtemp(prefix="repro-bench-recovery-")
    try:
        store = CheckpointStore(os.path.join(root, "cold"))
        started = time.perf_counter()
        StoreBackedSession(config, checkpoint_store=store).synthesize(
            RESUME_SPEC
        )
        durable_cold_seconds = time.perf_counter() - started
        for kill_after in kill_levels:
            store = CheckpointStore(os.path.join(root, "k%d" % kill_after))
            _interrupted_run(config, store, RESUME_SPEC, kill_after)
            started = time.perf_counter()
            resumed = StoreBackedSession(
                config, checkpoint_store=store
            ).synthesize(RESUME_SPEC)
            resume_seconds = time.perf_counter() - started
            assert _identity(resumed) == _identity(reference), (
                "resume after level %d must be bit-identical" % kill_after)
            assert resumed.extra["resumed_levels"] >= kill_after
            per_level.append({
                "kill_after_level": kill_after,
                "resumed_levels": resumed.extra["resumed_levels"],
                "resume_seconds": resume_seconds,
                "speedup_vs_cold": (
                    cold_seconds / resume_seconds if resume_seconds else 0.0
                ),
                "speedup_vs_durable_cold": (
                    durable_cold_seconds / resume_seconds
                    if resume_seconds else 0.0
                ),
            })
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if is_full():
        deepest = per_level[-1]
        assert deepest["resume_seconds"] < cold_seconds, (
            "resuming from the deepest checkpoint must beat cold "
            "re-enumeration (%.3fs vs %.3fs)"
            % (deepest["resume_seconds"], cold_seconds))
    return {
        "cold_seconds": cold_seconds,
        "durable_cold_seconds": durable_cold_seconds,
        "levels_built": total_levels,
        "per_kill_level": per_level,
    }


def _run_pool(store_dir, fault_spec=None):
    sentinel_dir = None
    if fault_spec is not None:
        sentinel_dir = tempfile.mkdtemp(prefix="repro-bench-faults-")
        os.environ[faults.ENV_FAULTS] = fault_spec
        os.environ[faults.ENV_FAULTS_DIR] = sentinel_dir
    faults.reset()
    try:
        started = time.perf_counter()
        with WorkerPool(
            workers=2,
            config=EngineConfig(backend="vector"),
            store_dir=store_dir,
            retry_backoff_s=0.02,
        ) as pool:
            handles = [pool.submit(spec) for spec in RETRY_SPECS]
            results = [handle.result(timeout=600) for handle in handles]
            stats = pool.stats
        return time.perf_counter() - started, results, stats
    finally:
        if fault_spec is not None:
            os.environ.pop(faults.ENV_FAULTS, None)
            os.environ.pop(faults.ENV_FAULTS_DIR, None)
            shutil.rmtree(sentinel_dir, ignore_errors=True)
        faults.reset()


def _bench_retry_overhead():
    """The same pool batch with and without an injected worker death."""
    root = tempfile.mkdtemp(prefix="repro-bench-retry-")
    try:
        baseline_seconds, baseline, _ = _run_pool(os.path.join(root, "a"))
        faulted_seconds, faulted, stats = _run_pool(
            os.path.join(root, "b"),
            fault_spec="pool.worker.before_job:kill:1:once",
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert [(r.status, r.regex_str, r.cost) for r in baseline] == [
        (r.status, r.regex_str, r.cost) for r in faulted
    ], "answers must survive an injected worker death unchanged"
    assert stats["retries"] >= 1, "the injected death must trigger a retry"
    assert stats["respawns"] >= 1, "the dead worker must be respawned"
    assert stats["quarantined"] == 0
    attempts = [r.extra.get("attempts") for r in faulted]
    assert max(attempts) == 2, "exactly one job should need a second attempt"
    return {
        "jobs": len(RETRY_SPECS),
        "baseline_seconds": baseline_seconds,
        "faulted_seconds": faulted_seconds,
        "retry_overhead_seconds": faulted_seconds - baseline_seconds,
        "retries": stats["retries"],
        "respawns": stats["respawns"],
        "attempts_per_job": attempts,
    }


def test_emit_recovery_bench_artifact():
    """Measure crash recovery and record the evidence."""
    artifact = {
        "benchmark": "crash recovery",
        "scale": "full" if is_full() else "quick",
        "cpu_count": os.cpu_count(),
        "resume": _bench_resume(EngineConfig(backend="vector")),
        "retry": _bench_retry_overhead(),
    }
    (REPO_ROOT / "BENCH_recovery.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\nBENCH_recovery.json:")
    print(json.dumps(artifact, indent=2, sort_keys=True))
