"""Load benchmark of the HTTP synthesis server: latency under mix.

The evidence behind the admission-controlled, two-lane scheduler:

* **interactive-only closed loop** — a few client threads submit small
  distinct specs over HTTP and wait for each answer; the per-request
  round-trip latencies give the interactive baseline (p50/p99) and the
  sustained QPS.
* **mixed traffic** — the same closed loop runs again while an
  *open-loop* injector keeps heavy batch sweeps in flight on the batch
  lane.  The assertion is the whole point of the two-lane design:
  interactive p99 under batch load stays within ``P99_RATIO_LIMIT`` of
  the interactive-only baseline (sub-``P99_FLOOR_S`` baselines are
  noise-dominated on shared CI runners, so the ratio is taken against
  the floor).
* **overload** — interactive submissions past the lane's bounded
  backlog are rejected with 429 + Retry-After, and every rejection
  returns promptly: overload degrades to fast feedback, never a hang.
* **unhinted mixed traffic** — the mixed phase again, on a server with
  the same lanes and admission bounds, with fresh specs and fresh heavy
  jobs and no class named anywhere.  Every job starts interactive, so
  the heavy jobs count against the interactive bound until they move: a
  client that gets a 429 waits out its Retry-After and submits again,
  and its latency includes the wait.  Each heavy job is demoted to the
  batch lane after one quantum (``DEFAULT_LATENCY_TARGET_S``) and runs
  there to its end.  The phase asserts one demotion per heavy job,
  every answer, interactive and heavy, against an in-process run, and
  that no unhinted admission preempted a demoted job; it records the
  429s, brownout and the heavy jobs' completion times.  Its p99 ratio
  has no bound: each heavy job holds the interactive worker for one
  quantum before it moves, so the interactive tail pays one quantum
  per heavy job ahead of it.

:func:`test_emit_load_artifact` writes ``BENCH_load.json`` to the repo
root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import tempfile
import threading
import time

from _bench_utils import REPO_ROOT, bench_scale, is_full
from repro import CostFunction, EngineConfig, Session, Spec
from repro.server import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    HttpServiceClient,
    OverloadedError,
    SynthesisServer,
)
from repro.service import WireRequest

#: Mixed-load interactive p99 must stay within this factor of the
#: interactive-only p99 (the two-lane isolation claim).
P99_RATIO_LIMIT = 3.0

#: Baselines below this are timer/scheduler noise on shared runners;
#: the ratio is taken against ``max(p99, floor)``.
P99_FLOOR_S = 0.05

#: Per-request candidate budget of the interactive specs — bounds the
#: worst case so "interactive" stays interactive even on slow runners.
INTERACTIVE_BUDGET = 200_000


def interactive_specs(count):
    """``count`` distinct, quickly-solvable specs (distinct
    fingerprints, so nothing is answered by in-flight dedupe)."""
    specs = []
    for index in range(count):
        word = format(index + 2, "b")
        specs.append(
            Spec(
                positive=[word, word + word],
                negative=["" if "1" in word else "1", word[::-1] + "01"],
            )
        )
    return specs


def interactive_wire(spec):
    return WireRequest(
        spec=spec,
        max_generated=INTERACTIVE_BUDGET,
        config=EngineConfig(backend="vector"),
    )


def batch_wire(index):
    """A heavy sweep (expensive star over a >64-word universe) that
    keeps a batch worker busy for seconds; ``allowed_error`` varies the
    fingerprint so each injection is a fresh job."""
    return WireRequest(
        spec=Spec(
            positive=["0110100101", "1010010110"],
            negative=["", "0", "1", "0011001100"],
        ),
        cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1)),
        max_generated=5_000_000,
        allowed_error=index / 1000.0,
        config=EngineConfig(backend="vector"),
    )


def unhinted_heavy_wire(index):
    """:func:`batch_wire`'s sweep with one more negative example, an
    infix of a positive.  The universe, and so the work, stays the
    same, but each job gets a word set, hence a checkpoint journal, of
    its own: no heavy job can finish within its quantum by resuming the
    levels another one journalled."""
    wire = batch_wire(0)
    positive = wire.spec.positive[0]
    spec = Spec(
        positive=wire.spec.positive,
        negative=[*wire.spec.negative, positive[index:index + 5]],
    )
    return dataclasses.replace(wire, spec=spec)


def percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def submit_admitted(client, wire, klass, rejections):
    """Submit ``wire`` until it is admitted, waiting out each 429's
    Retry-After; appends one entry per 429 to ``rejections``."""
    while True:
        try:
            return client.submit(wire, klass=klass)
        except OverloadedError as exc:
            rejections.append(exc.retry_after_s)
            time.sleep(exc.retry_after_s)


def closed_loop(address, specs, clients, klass=CLASS_INTERACTIVE,
                answers=None, rejections=None):
    """Serve ``specs`` from ``clients`` threads, one request in flight
    per thread, each submitted with ``klass`` (None names no class);
    returns (latencies, wall_seconds).  ``answers``, when given,
    collects each spec's result document.  With ``rejections`` a 429
    is waited out and counted there (:func:`submit_admitted`)."""
    latencies = []
    lock = threading.Lock()
    queue = list(specs)

    def worker():
        client = HttpServiceClient(address)
        while True:
            with lock:
                if not queue:
                    return
                spec = queue.pop()
            started = time.perf_counter()
            if rejections is None:
                job = client.submit(interactive_wire(spec), klass=klass)
            else:
                job = submit_admitted(
                    client, interactive_wire(spec), klass, rejections
                )
            done = client.result(job["job_id"], timeout=300)
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if answers is not None:
                    answers[spec] = done["result"]

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.perf_counter() - started


def unhinted_phase(store_dir, requests, clients, batch_jobs, max_queue,
                   baseline):
    """Mixed traffic with no class named anywhere, under ``max_queue``
    (see the module docstring); returns the phase's stats."""
    rejections = []
    heavy = []  # (job id, perf_counter of its first submit)
    with SynthesisServer(
        store_dir=store_dir,
        interactive_workers=1,
        batch_workers=1,
        per_worker_depth=2,
        max_queue=max_queue,
        reuse_results=False,
    ) as server:

        def inject():
            with HttpServiceClient(server.address) as client:
                for index in range(batch_jobs):
                    started = time.perf_counter()
                    job = submit_admitted(
                        client, unhinted_heavy_wire(index), None, rejections
                    )
                    heavy.append((job["job_id"], started))

        injector = threading.Thread(target=inject)
        injector.start()
        specs = interactive_specs(3 * requests)[2 * requests:]
        answers = {}
        latencies, wall = closed_loop(
            server.address, specs, clients, klass=None, answers=answers,
            rejections=rejections,
        )
        injector.join()
        heavy_docs = [None] * batch_jobs
        heavy_seconds = [0.0] * batch_jobs

        def finish(slot):
            job_id, started = heavy[slot]
            with HttpServiceClient(server.address) as client:
                heavy_docs[slot] = client.result(job_id, timeout=300)
            heavy_seconds[slot] = time.perf_counter() - started

        waiters = [
            threading.Thread(target=finish, args=(slot,))
            for slot in range(batch_jobs)
        ]
        for waiter in waiters:
            waiter.start()
        for waiter in waiters:
            waiter.join()
        health = HttpServiceClient(server.address).healthz()
        demotions = server.demotions
    assert [(doc["class"], doc["demotions"]) for doc in heavy_docs] == [
        (CLASS_BATCH, 1)
    ] * batch_jobs, "every heavy job must be demoted exactly once"
    assert demotions == batch_jobs, "no interactive request may be demoted"
    assert health["preemptions_triggered"] == 0, (
        "an unhinted admission must not preempt the demoted jobs"
    )
    session = Session(EngineConfig(backend="vector"))
    checks = [
        (interactive_wire(spec), answers[spec]) for spec in specs
    ] + [
        (unhinted_heavy_wire(index), doc["result"])
        for index, doc in enumerate(heavy_docs)
    ]
    for wire, answer in checks:
        reference = session.synthesize(wire.to_request())
        assert (
            answer["status"], answer["regex"], answer["cost"],
            answer["generated"], answer["unique_cs"],
        ) == (
            reference.status, reference.regex_str, reference.cost,
            reference.generated, reference.unique_cs,
        ), wire.spec
    stats = phase_stats(latencies, wall)
    stats["interactive_p99_ratio"] = stats["p99_s"] / baseline
    stats["rejected_429"] = len(rejections)
    stats["preemptions_triggered"] = health["preemptions_triggered"]
    stats["brownout"] = health["brownout"]
    stats["heavy"] = {
        "jobs": batch_jobs,
        "demotions": demotions,
        "p50_s": percentile(heavy_seconds, 0.50),
        "max_s": max(heavy_seconds),
        "batch_preemptions": sum(
            doc["result"]["extra"].get("preemptions", 0)
            for doc in heavy_docs
        ),
    }
    return stats


def phase_stats(latencies, wall_seconds):
    return {
        "requests": len(latencies),
        "wall_seconds": wall_seconds,
        "qps": len(latencies) / wall_seconds if wall_seconds else 0.0,
        "p50_s": percentile(latencies, 0.50),
        "p99_s": percentile(latencies, 0.99),
    }


def test_emit_load_artifact():
    """Drive the four load phases and record the evidence."""
    if is_full():
        requests, clients, batch_jobs = 60, 4, 6
    else:
        requests, clients, batch_jobs = 12, 2, 2

    max_queue = {CLASS_INTERACTIVE: 2, CLASS_BATCH: 2 * batch_jobs}
    store_root = tempfile.mkdtemp(prefix="repro-bench-load-")
    try:
        with SynthesisServer(
            store_dir=store_root,
            interactive_workers=1,
            batch_workers=1,
            per_worker_depth=2,
            max_queue=max_queue,
            reuse_results=False,
        ) as server:
            address = server.address
            control = HttpServiceClient(address)

            # Phase 1: interactive-only closed loop (the baseline).
            solo_specs = interactive_specs(requests)
            solo_latencies, solo_wall = closed_loop(
                address, solo_specs, clients
            )
            solo = phase_stats(solo_latencies, solo_wall)

            # Phase 2: the same closed loop under open-loop batch load.
            batch_ids = []
            for index in range(batch_jobs):
                job = control.submit(batch_wire(index), klass=CLASS_BATCH)
                batch_ids.append(job["job_id"])
            mixed_specs = interactive_specs(2 * requests)[requests:]
            mixed_latencies, mixed_wall = closed_loop(
                address, mixed_specs, clients
            )
            mixed = phase_stats(mixed_latencies, mixed_wall)
            batch_live = sum(
                1
                for job_id in batch_ids
                if control.status(job_id)["state"] in ("queued", "running")
            )
            for job_id in batch_ids:
                control.cancel(job_id)
            for job_id in batch_ids:
                control.result(job_id, timeout=300)
            assert batch_live > 0, (
                "batch injections must still be in flight while the "
                "mixed interactive phase runs, or the phase measured "
                "nothing"
            )

            # The two-lane isolation claim, asserted at every scale.
            baseline = max(solo["p99_s"], P99_FLOOR_S)
            ratio = mixed["p99_s"] / baseline
            assert mixed["p99_s"] <= P99_RATIO_LIMIT * baseline, (
                "interactive p99 under batch load must stay within "
                "%.1fx of the interactive-only baseline: %.4fs vs "
                "%.4fs (%.2fx)"
                % (P99_RATIO_LIMIT, mixed["p99_s"], baseline, ratio)
            )

            # Phase 3: overload -> fast 429s, never a hang.
            fillers = []
            rejected = 0
            reject_latencies = []
            for index in range(8):
                started = time.perf_counter()
                try:
                    job = control.submit(
                        batch_wire(100 + index), klass=CLASS_INTERACTIVE
                    )
                except OverloadedError as exc:
                    reject_latencies.append(time.perf_counter() - started)
                    rejected += 1
                    assert exc.retry_after_s >= 1.0
                else:
                    fillers.append(job["job_id"])
            for job_id in fillers:
                control.cancel(job_id)
            for job_id in fillers:
                control.result(job_id, timeout=300)
            assert rejected > 0, "overload must reject past the backlog"
            max_reject = max(reject_latencies)
            assert max_reject < 5.0, (
                "a 429 must come back promptly, slowest took %.2fs"
                % max_reject
            )
            health = control.healthz()

        # Phase 4: the mixed phase with no class hints (no ratio bound).
        unhinted = unhinted_phase(
            os.path.join(store_root, "unhinted"), requests, clients,
            batch_jobs, max_queue, baseline,
        )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    artifact = {
        "benchmark": "HTTP server under mixed load",
        "scale": bench_scale(),
        "cpu_count": os.cpu_count(),
        "lanes": {"interactive_workers": 1, "batch_workers": 1,
                  "per_worker_depth": 2},
        "closed_loop_clients": clients,
        "interactive_only": solo,
        "mixed": mixed,
        "mixed_unhinted": unhinted,
        "batch_jobs_injected": len(batch_ids),
        "interactive_p99_ratio": ratio,
        "p99_ratio_limit": P99_RATIO_LIMIT,
        "p99_floor_s": P99_FLOOR_S,
        "overload": {
            "attempts": 8,
            "rejected_429": rejected,
            "max_reject_latency_s": max_reject,
        },
        "server_admission": health["admission"],
        "server_latency": health["latency"],
    }
    (REPO_ROOT / "BENCH_load.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\nBENCH_load.json:")
    print(json.dumps(artifact, indent=2, sort_keys=True))
