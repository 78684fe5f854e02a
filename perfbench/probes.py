"""Self-time probes installed from outside the program.

A probe replaces a function or method with a wrapper that times each
call and charges the call's *self* time (its duration minus the time
spent in wrapped calls it made) to a layer name.  Nested calls charged
to the same name therefore add up to that name's total time, never
more.  Nothing here edits the program: the wrappers are set on the
public classes and module attributes the kernels are reached through,
and a forked child process inherits them.

A *request* boundary (``Session.synthesize``, or one shard-worker emit)
flushes the self times gathered since the last boundary into one record
and hands it to the probe's sink, a JSON-lines file per server, pool or
shard process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Kernel entry points of the vector engine, as ``(module, owner,
#: attribute, layer)``; ``owner`` None patches a module attribute (every
#: module that imported the function by name gets its own entry).
KERNELS = (
    ("repro.core.vector_engine", "_Kernels", "concat_pair_planes", "engine.concat_s"),
    ("repro.core.vector_engine", "_Kernels", "fold_planes", "engine.fold_s"),
    ("repro.core.vector_engine", "_Kernels", "star_planes", "engine.star_s"),
    ("repro.core.cache", "PackedCache", "planes", "engine.bitslice_s"),
    ("repro.core.cache", None, "bitslice_rows", "engine.bitslice_s"),
    ("repro.core.vector_engine", None, "bitslice_rows", "engine.bitslice_s"),
    ("repro.core.vector_engine", None, "unbitslice_rows", "engine.bitslice_s"),
    ("repro.core.shard", None, "unbitslice_rows", "engine.bitslice_s"),
    ("repro.core.hashset", "PackedKeySet", "insert_batch", "engine.dedupe_s"),
    ("repro.core.hashset", "PackedKeySet", "contains_batch", "engine.dedupe_s"),
    ("repro.core.shard", "LaneMatcher", "flags", "engine.solve_s"),
    ("repro.core.cache", "PackedCache", "append_rows", "engine.store_s"),
    ("repro.api.session", None, "reconstruct", "engine.reconstruct_s"),
    # Checkpoint journal writes run inside the sweep (level hooks and
    # safe points); charging them here keeps them out of other_s.  The
    # checkpoint spans report them.
    ("repro.service.checkpoint", "CheckpointStore", "append_level", "checkpoint.io_s"),
    ("repro.service.checkpoint", "CheckpointStore", "append_partial", "checkpoint.io_s"),
    ("repro.core.engine", "SearchEngine", "run", "engine.other_s"),
)


def _resolve(module_name: str, owner_name: Optional[str]):
    module = __import__(module_name, fromlist=["_"])
    return module if owner_name is None else getattr(module, owner_name)


class Probe:
    """Self-time accounting for a set of wrapped callables."""

    def __init__(self, sink: Callable[[dict], None]) -> None:
        self.sink = sink
        self.context: Optional[str] = None
        self._originals: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget every open frame and unflushed total (used at the
        start of a forked child, which inherits its parent's stack)."""
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _enter(self) -> List[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: List[float], name: str, elapsed: float) -> None:
        self._stack.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][0] += elapsed

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Charge the self time of every ``owner.attr`` call to ``name``."""
        probe = self

        def wrapper(original):
            def timed(*args, **kwargs):
                frame = probe._enter()
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe._leave(frame, name, time.perf_counter() - started)

            return timed

        self._patch(owner, attr, wrapper)

    def boundary(self, owner, attr: str, describe) -> None:
        """Make ``owner.attr`` a request boundary: when its outermost
        call returns, flush one record built by
        ``describe(args, result, before)`` (``before`` is what
        ``describe(args, None, None)`` returned at entry)."""
        probe = self

        def wrapper(original):
            def bounded(*args, **kwargs):
                outermost = not probe._stack
                before = describe(args, None, None) if outermost else None
                frame = probe._enter()
                started = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    elapsed = time.perf_counter() - started
                    probe._leave(frame, "request", elapsed)
                    if outermost:
                        record = describe(args, result, before) or {}
                        record.update(
                            pid=os.getpid(),
                            context=probe.context,
                            wall_s=elapsed,
                            self_s=probe.self_s,
                            calls=probe.calls,
                        )
                        probe.self_s, probe.calls = {}, {}
                        probe.sink(record)

            return bounded

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# The engine probe set
# ----------------------------------------------------------------------
def _describe_request(args, result, before):
    """Per-request counters read from the session and its result."""
    session = args[0]
    request = args[1] if len(args) > 1 else None
    stats = session.stats
    if result is None:
        return {"hits": stats.staging_hits, "builds": stats.staging_builds}
    trace_id = None
    for holder in (getattr(request, "tracer", None),
                   getattr(request, "trace_ctx", None)):
        trace_id = trace_id or getattr(holder, "trace_id", None)
    extra = result.extra if isinstance(result.extra, dict) else {}
    plane = extra.get("plane_stats") or {}
    return {
        "kind": "request",
        "trace_id": trace_id,
        "generated": int(result.generated),
        "unique_cs": int(result.unique_cs),
        "plane_hits": int(plane.get("hits", 0)),
        "plane_builds": int(plane.get("builds", 0)),
        "staging_hits": stats.staging_hits - before["hits"],
        "staging_builds": stats.staging_builds - before["builds"],
    }


def _describe_emit(args, result, before):
    return {"kind": "shard-emit"} if result is not None else {}


def install_engine_probes(sink: Callable[[dict], None]) -> Probe:
    """Wrap every kernel entry point and the request boundaries
    (``Session.synthesize`` and shard-worker emits)."""
    from repro.api.session import Session
    from repro.core import shard

    probe = Probe(sink)
    for module_name, owner_name, attr, name in KERNELS:
        probe.wrap(_resolve(module_name, owner_name), attr, name)
    probe.boundary(Session, "synthesize", _describe_request)
    probe.boundary(shard._ShardWorker, "emit", _describe_emit)

    def worker_main(original):
        def main(*args, **kwargs):
            # A forked shard worker inherits the coordinator's open
            # frames; its own records start clean, tagged with the
            # trace id of the run that spawned it.
            probe.reset()
            probe.context = kwargs.get("trace_id")
            if probe.context is None and len(args) > 10:
                probe.context = args[10]
            return original(*args, **kwargs)

        return main

    probe._patch(shard, "_shard_worker_main", worker_main)
    return probe


def file_sink(directory: str) -> Callable[[dict], None]:
    """A sink appending JSON lines to ``<directory>/probe-<pid>.jsonl``."""

    def write(record: dict) -> None:
        path = Path(directory) / ("probe-%d.jsonl" % os.getpid())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    return write


def read_records(directory: str) -> List[dict]:
    """Every record the server-side probes wrote."""
    records = []
    for path in sorted(Path(directory).glob("probe-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records
