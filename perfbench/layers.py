"""Per-layer attribution: span self times, probe records, the report.

Every per-layer metric is built from two outside views of a request:
the spans the program already records (``GET /jobs/<id>/trace``) and
the records of the kernel probes (:mod:`probes`).  A span's *self time* is its duration
minus the part of it that its child spans cover, so the self times of
one request's spans never count the same interval twice.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

from repro.eval.reporting import render_markdown

#: Timed layers.  Each is reported as the per-request median
#: (``<name>.p50``) and the per-run sum (``<name>.sum``), in seconds.
TIMED = (
    "engine.concat_s",
    "engine.fold_s",
    "engine.star_s",
    "engine.bitslice_s",
    "engine.dedupe_s",
    "engine.solve_s",
    "engine.store_s",
    "engine.reconstruct_s",
    "engine.other_s",
    "engine.level_s",
    "staging.build_s",
    "pool.submit_s",
    "pool.queue_wait_s",
    "pool.worker_job_s",
    "pool.return_s",
    "checkpoint.save_s",
    "checkpoint.partial_save_s",
    "checkpoint.restore_s",
    "store.result_write_s",
    "shard.fanout_s",
    "server.parse_s",
    "server.admission_s",
    "server.job_s",
    "client.submit_s",
    "client.notify_lag_s",
)

#: Counted layers, summed over the run.
COUNTED = (
    "checkpoint.saves",
    "checkpoint.partial_saves",
    "checkpoint.resumed_levels",
    "shard.fanouts",
    "shard.failovers",
    "server.rejected",
    "server.preemptions",
    "pool.retries",
    "pool.respawns",
    "client.polls",
    "server.unclean_stops",
)

RATIOS = (
    "engine.novel_frac",
    "engine.plane_hit_frac",
    "staging.hit_frac",
    "trace.attributed_frac",
    "trace.overhead_frac",
)

LADDER = (
    "ladder.session_p50_s",
    "ladder.store_session_p50_s",
    "ladder.pool_p50_s",
    "ladder.http_p50_s",
)

#: Span name -> timed layer its self time is charged to.
SPAN_LAYERS = {
    "level": "engine.level_s",
    "seed-level": "engine.level_s",
    "staging": "staging.build_s",
    "pool-submit": "pool.submit_s",
    "queue-wait": "pool.queue_wait_s",
    "worker-job": "pool.worker_job_s",
    "checkpoint-save": "checkpoint.save_s",
    "partial-save": "checkpoint.partial_save_s",
    "checkpoint-restore": "checkpoint.restore_s",
    "checkpoint-replay": "checkpoint.restore_s",
    "result-store-write": "store.result_write_s",
    "shard-fanout": "shard.fanout_s",
    "http-parse": "server.parse_s",
    "admission": "server.admission_s",
    "job": "server.job_s",
}

#: Span name -> counted layer incremented once per span.
SPAN_COUNTS = {
    "checkpoint-save": "checkpoint.saves",
    "partial-save": "checkpoint.partial_saves",
    "shard-fanout": "shard.fanouts",
}


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for name in TIMED:
        names += [name + ".p50", name + ".sum"]
    return names + list(COUNTED) + list(RATIOS) + list(LADDER)


def unit_of(name: str) -> str:
    if name in COUNTED:
        return "count"
    if name in RATIOS:
        return "ratio"
    return "s"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _end(span: dict) -> float:
    end = span.get("end_s")
    return float(span["start_s"] if end is None else end)


def self_times(spans: Sequence[dict]) -> List[tuple]:
    """``(span, duration, self_time)`` for every span."""
    children = defaultdict(list)
    for span in spans:
        children[span.get("parent_id")].append(span)
    out = []
    for span in spans:
        start, end = float(span["start_s"]), _end(span)
        covered = 0.0
        cursor = start
        for lo, hi in sorted(
            (max(start, float(c["start_s"])), min(end, _end(c)))
            for c in children.get(span.get("span_id"), ())
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span, end - start, end - start - covered))
    return out


def span_layers(spans: Sequence[dict]) -> Dict[str, float]:
    """Timed and counted layers of one request's spans, plus
    ``_job_s`` (the root span's duration) and ``_covered_s`` (the part
    of it the root's descendants cover)."""
    values: Dict[str, float] = defaultdict(float)
    worker_end = None
    job_end = None
    for span, duration, self_s in self_times(spans):
        name = span.get("name")
        layer = SPAN_LAYERS.get(name)
        if layer is not None:
            values[layer] += self_s
        if name in SPAN_COUNTS:
            values[SPAN_COUNTS[name]] += 1
        if name == "shard-fanout" and (span.get("args") or {}).get("failover"):
            values["shard.failovers"] += 1
        if name == "worker-job":
            worker_end = _end(span)
        if name == "job":
            job_end = _end(span)
            values["_job_s"] += duration
            values["_covered_s"] += duration - self_s
    if worker_end is not None and job_end is not None:
        values["pool.return_s"] += max(0.0, job_end - worker_end)
    return values


# ----------------------------------------------------------------------
# Probe records
# ----------------------------------------------------------------------
def probe_layers(records: Iterable[dict]) -> Dict[str, float]:
    """Kernel self times and engine counters of one request's probe
    records (its session request plus any shard-worker emits)."""
    values: Dict[str, float] = defaultdict(float)
    for record in records:
        for name, seconds in record.get("self_s", {}).items():
            if name.startswith("engine."):
                values[name] += seconds
        if record.get("kind") == "request":
            for key in ("generated", "unique_cs", "plane_hits",
                        "plane_builds", "staging_hits", "staging_builds"):
                values["_" + key] += record.get(key, 0)
    return values


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def quartiles(samples: Sequence[float]):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def nearest_rank(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(requests: List[Dict[str, float]], run: Dict[str, float]):
    """Per-layer metrics of one traced pass.

    ``requests`` holds one dict of layer values per answered request
    (``_wall_s`` is its client-observed wall time); ``run`` holds the
    run-level counts (health counter deltas, unclean stops, ladder,
    overhead)."""
    metrics: Dict[str, float] = {}
    for name in TIMED:
        samples = [request.get(name, 0.0) for request in requests]
        metrics[name + ".p50"] = statistics.median(samples) if samples else 0.0
        metrics[name + ".sum"] = sum(samples)
    for name in COUNTED:
        metrics[name] = sum(r.get(name, 0.0) for r in requests) + run.get(name, 0)
    total = defaultdict(float)
    for request in requests:
        for key, value in request.items():
            total[key] += value
    metrics["engine.novel_frac"] = _ratio(total["_unique_cs"], total["_generated"])
    metrics["engine.plane_hit_frac"] = _ratio(
        total["_plane_hits"], total["_plane_hits"] + total["_plane_builds"]
    )
    metrics["staging.hit_frac"] = _ratio(
        total["_staging_hits"], total["_staging_hits"] + total["_staging_builds"]
    )
    metrics["trace.attributed_frac"] = _ratio(total["_covered_s"], total["_wall_s"])
    metrics["trace.overhead_frac"] = run.get("trace.overhead_frac", 0.0)
    for name in LADDER:
        metrics[name] = run.get(name, 0.0)
    return metrics


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return "%.4g" % value
    return "%.4f" % value


def end_to_end_table(workload: str, metrics: Dict[str, dict],
                     samples: Dict[str, Sequence[float]]) -> str:
    rows = []
    for name, entry in metrics.items():
        q1, _, q3 = quartiles(samples.get(name) or [entry["value"]])
        rows.append((name, _fmt(entry["value"]), _fmt(q1), _fmt(q3),
                     len(samples.get(name) or [entry["value"]]), entry["unit"]))
    return render_markdown(("metric", "median", "q1", "q3", "n", "unit"), rows,
                           title="%s: end to end" % workload)


def layer_table(workload: str, requests: List[Dict[str, float]],
                metrics: Dict[str, float]) -> str:
    wall = sum(request.get("_wall_s", 0.0) for request in requests)
    rows = []
    for name in TIMED:
        samples = [request.get(name, 0.0) for request in requests]
        q1, median, q3 = quartiles(samples)
        rows.append((name, _fmt(median), _fmt(q1), _fmt(q3), len(samples),
                     "s", "%.1f%%" % (100.0 * _ratio(sum(samples), wall))))
    for name in COUNTED:
        rows.append((name, "%d" % metrics[name], "", "", "", "count", ""))
    for name in RATIOS + LADDER:
        rows.append((name, _fmt(metrics[name]), "", "", "", unit_of(name), ""))
    return render_markdown(
        ("layer", "median", "q1", "q3", "n", "unit", "share of wall"), rows,
        title="%s: per layer (self time)" % workload,
    )


def ladder_table(rungs: Dict[str, Optional[float]]) -> str:
    rows = []
    previous = None
    for name, value in rungs.items():
        added = "" if previous is None or value is None else _fmt(value - previous)
        rows.append((name, _fmt(value or 0.0), added))
        previous = value
    return render_markdown(("rung", "p50 (s)", "added (s)"), rows,
                           title="interactive: layer ladder")
