"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands
--------
synth        infer a regex from --pos/--neg examples
serve        answer a JSONL file of jobs on the multi-core worker pool
server       run the HTTP synthesis server (admission-controlled lanes)
client       talk to a running `repro server` over HTTP
trace        fetch a job's trace: text waterfall + Chrome trace JSON
report       render BENCH_*.json benchmark artifacts as markdown
backends     list the registered engines, aliases and capabilities
table1       regenerate Table 1 (scalar vs vector engines)
table2       regenerate Table 2 (AlphaRegex vs Paresy)
figure1      regenerate Figure 1 (cost-function impact)
outliers     duration-distribution table over a Figure-1 sweep
error-table  regenerate the §5.2 allowed-error table
ablations    run the E6 design-choice ablations
suite        print a generated Type 1/2 benchmark suite

``server``/``client`` are the online path: ``server`` puts the worker
pool behind HTTP with admission control and two latency lanes (see
:mod:`repro.server`), and ``client`` submits, watches and cancels jobs
on it.  ``serve --jobs FILE`` is the offline batch path: it runs every
job of a JSONL file on the pool and writes each answer to
``<store>/outbox/<fingerprint>.json``.  Both keep the persistent
staging/result caches in their store directory, so a restart
warm-starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .api import (
    EngineConfig,
    ProgressEvent,
    Session,
    SynthesisRequest,
    default_registry,
)
from .errors import ReproError
from .eval.figures import figure1
from .eval.tables import (
    ERROR_TABLE_SPEC,
    ablation_cache_capacity,
    ablation_guide_table,
    ablation_uniqueness,
    error_table,
    outlier_table,
    table1,
    table2,
)
from .regex.cost import CostFunction
from .service import (
    PRIORITY_NORMAL,
    JobFailedError,
    WireRequest,
    WorkerPool,
)
from .service.store import atomic_write_bytes
from .spec import Spec
from .suites.generator import (
    SCALED_TYPE1_PARAMS,
    SCALED_TYPE2_PARAMS,
    generate_suite,
)


def _parse_cost(text: str) -> CostFunction:
    """argparse type for ``--cost``: five comma-separated positive ints.

    Malformed strings become clean ``argparse`` usage errors instead of
    bare tracebacks.
    """
    cleaned = text.replace("(", "").replace(")", "").strip()
    parts = [piece.strip() for piece in cleaned.split(",")] if cleaned else []
    try:
        values = tuple(int(piece) for piece in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected five comma-separated integers c1,c2,c3,c4,c5, got %r"
            % text
        )
    if len(values) != 5:
        raise argparse.ArgumentTypeError(
            "expected exactly five cost components c1,c2,c3,c4,c5, got %d in %r"
            % (len(values), text)
        )
    try:
        return CostFunction.from_tuple(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_spec_file(path_text: str) -> Spec:
    """argparse type for ``--spec-file``: a JSON spec (``Spec.to_json``
    layout: ``positive``/``negative`` lists plus optional ``alphabet``)."""
    try:
        payload = Path(path_text).read_text(encoding="utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError("cannot read spec file: %s" % exc)
    try:
        return Spec.from_json(payload)
    except (ValueError, KeyError, TypeError, ReproError) as exc:
        raise argparse.ArgumentTypeError(
            "invalid spec JSON in %r: %s" % (path_text, exc)
        )


def _parse_bytes(text: str) -> int:
    """argparse type for byte budgets: plain int or K/M/G suffixed."""
    cleaned = text.strip().upper()
    factor = 1
    for suffix, scale in (("K", 1024), ("M", 1024 ** 2), ("G", 1024 ** 3)):
        if cleaned.endswith(suffix):
            cleaned, factor = cleaned[: -len(suffix)], scale
            break
    try:
        value = int(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a byte count like 500000, 64M or 2G, got %r" % text
        )
    if value < 0:
        raise argparse.ArgumentTypeError("byte budget must be >= 0")
    return value * factor


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.spec_file is not None:
        if args.pos or args.neg:
            sys.stderr.write(
                "repro synth: error: --spec-file cannot be combined with "
                "--pos/--neg\n"
            )
            return 2
        spec = args.spec_file
    else:
        spec = Spec(args.pos, args.neg)

    def show_progress(event: ProgressEvent) -> None:
        if not event.done:
            print("  level %3d: %8d REs, %7d CSs, %.3f s"
                  % (event.cost, event.generated, event.stored,
                     event.elapsed_seconds))

    session = Session(
        EngineConfig(
            backend=args.backend,
            max_cache_size=args.max_cache,
            max_generated=args.max_generated,
        )
    )
    result = session.synthesize(
        SynthesisRequest(
            spec=spec,
            cost_fn=args.cost,
            allowed_error=args.error,
            time_limit=args.time_limit,
            on_progress=show_progress if args.progress else None,
        )
    )
    print("status     :", result.status)
    if result.found:
        print("regex      :", result.regex_str)
        print("cost       :", result.cost)
    print("# REs      :", result.generated)
    print("unique CSs :", result.unique_cs)
    print("|ic(P∪N)|  :", result.universe_size,
          "(padded to %d bits)" % result.padded_bits)
    print("elapsed    : %.4f s" % result.elapsed_seconds)
    return 0 if result.found else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    registry = default_registry()
    for name in registry.names():
        info = registry.resolve(name)
        aliases = ", ".join(info.aliases) if info.aliases else "-"
        capabilities = ", ".join(sorted(info.capabilities)) or "-"
        print("%-8s aliases: %-14s capabilities: %s" % (name, aliases,
                                                        capabilities))
        if info.description:
            print("         %s" % info.description)
    return 0


#: Service-store subdirectory that ``serve --jobs`` answers into.
OUTBOX_SUBDIR = "outbox"


def _result_payload(fingerprint: str, handle, result) -> dict:
    payload = result.to_dict()
    payload["fingerprint"] = fingerprint
    payload["job_id"] = handle.job_id
    payload["deduplicated"] = handle.deduplicated
    payload["from_store"] = handle.from_store
    return payload


#: Everything a malformed JSONL job line can raise while being decoded.
_JOB_PAYLOAD_ERRORS = (ValueError, KeyError, TypeError, ReproError)


def _parse_job_line(text: str):
    """Decode one JSONL job line into a ``(WireRequest, priority)``
    pair; raises `_JOB_PAYLOAD_ERRORS`."""
    payload = json.loads(text)
    priority = int(payload.pop("priority", PRIORITY_NORMAL))
    return WireRequest.from_json_dict(payload), priority


def _write_answer(outbox: Path, fingerprint: str, handle) -> None:
    """Wait for one job and write its answer (atomically, so a reader
    never sees a partial file) to ``<outbox>/<fingerprint>.json``."""
    try:
        result = handle.result()
    except JobFailedError as exc:  # worker crash: answer with the error
        payload = {"fingerprint": fingerprint, "status": "failed",
                   "error": str(exc)}
    else:
        payload = _result_payload(fingerprint, handle, result)
        print("served %s: %s%s" % (
            fingerprint[:12], result.status,
            " %s" % result.regex_str if result.found else ""))
    atomic_write_bytes(
        outbox / ("%s.json" % fingerprint),
        json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    root = Path(args.store)
    outbox = root / OUTBOX_SUBDIR
    outbox.mkdir(parents=True, exist_ok=True)
    if args.checkpoint_budget is not None:
        _prune_checkpoint_budget(root, args.checkpoint_budget)
    config = EngineConfig(backend=args.backend)
    pool = WorkerPool(
        workers=args.workers,
        config=config,
        store_dir=str(root),
        per_worker_depth=args.depth,
        reuse_results=args.reuse_results,
        retry_max_attempts=args.max_attempts,
        checkpoints=args.checkpoints,
    )
    # fingerprint -> the first handle submitted for it
    handles: dict = {}
    with pool:
        print("repro serve: %d workers (%s), store %s"
              % (args.workers, args.backend, root))
        with open(args.jobs, "r", encoding="utf-8") as lines:
            for number, line in enumerate(lines, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    wire, priority = _parse_job_line(line)
                except _JOB_PAYLOAD_ERRORS as exc:
                    sys.stderr.write(
                        "repro serve: skipping %s line %d: %s\n"
                        % (args.jobs, number, exc))
                    continue
                # A duplicate line joins the live job at the pool level
                # (counted in the dedupe stats); keep the FIRST handle
                # so its answer is never dropped even if the job
                # finishes mid-submission.
                handle = pool.submit(wire, priority=priority)
                handles.setdefault(wire.fingerprint(), handle)
        for fingerprint, handle in handles.items():
            _write_answer(outbox, fingerprint, handle)
    print("repro serve: done (%d served, %d deduplicated, %d cancelled, "
          "%d affinity hits, %d steals)"
          % (len(handles), pool.queue.deduplicated, pool.queue.cancelled,
             pool.stats["affinity_hits"], pool.stats["steals"]))
    return 0


def _prune_checkpoint_budget(root: Path, max_bytes: int) -> None:
    """Apply a ``--checkpoint-budget`` to the store's checkpoint dir."""
    from .service.checkpoint import CheckpointStore
    from .service.pool import CHECKPOINTS_SUBDIR

    stats = CheckpointStore(root / CHECKPOINTS_SUBDIR).prune(
        max_bytes=max_bytes
    )
    if stats["removed_keys"]:
        print("checkpoint budget: evicted %d key(s), %d bytes "
              "(%d kept, %d bytes)"
              % (stats["removed_keys"], stats["removed_bytes"],
                 stats["kept_keys"], stats["kept_bytes"]))


def _print_result_summary(answer: dict) -> int:
    print("status     :", answer.get("status"))
    if answer.get("regex"):
        print("regex      :", answer["regex"])
        print("cost       :", answer.get("cost"))
    print("elapsed    : %.4f s" % (answer.get("elapsed_seconds") or 0.0))
    return 0 if answer.get("status") == "success" else 1


def _cmd_server(args: argparse.Namespace) -> int:
    from .server import SynthesisServer

    server = SynthesisServer(
        host=args.host,
        port=args.port,
        store_dir=args.store,
        interactive_workers=args.interactive_workers,
        batch_workers=args.batch_workers,
        per_worker_depth=args.depth,
        max_queue={
            "interactive": args.max_queue_interactive,
            "batch": args.max_queue_batch,
        },
        config=EngineConfig(backend=args.backend),
        reuse_results=args.reuse_results,
        checkpoint_budget_bytes=args.checkpoint_budget,
        checkpoints=args.checkpoints,
        auth_token=args.auth_token,
        preempt_on_saturation=args.preempt,
        brownout_enter_after_s=args.brownout_after,
        brownout_exit_after_s=args.brownout_exit_after,
    )
    with server:
        print("repro server: listening on %s" % server.address)
        print("  lanes: %d interactive / %d batch workers (%s), store %s"
              % (args.interactive_workers, args.batch_workers,
                 args.backend, args.store))
        sys.stdout.flush()
        try:
            server.serve_forever(idle_timeout=args.idle_timeout)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
    print("repro server: stopped")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .server.client import HttpServiceClient, OverloadedError, ServerError

    client = HttpServiceClient(args.server, auth_token=args.auth_token)
    try:
        if args.action == "health":
            print(json.dumps(client.healthz(), indent=2, sort_keys=True))
            return 0
        if args.action == "metrics":
            sys.stdout.write(client.metrics())
            return 0
        if args.action in ("status", "cancel", "events"):
            if args.job_id is None:
                sys.stderr.write(
                    "repro client: error: %s needs a job id\n" % args.action)
                return 2
            if args.action == "status":
                print(json.dumps(client.status(args.job_id), indent=2,
                                 sort_keys=True))
                return 0
            if args.action == "cancel":
                answer = client.cancel(args.job_id)
                print(json.dumps(answer, indent=2, sort_keys=True))
                return 0
            for event in client.events(args.job_id):
                if event.done:
                    print("done: elapsed_s=%.4f" % event.elapsed_s)
                else:
                    print("level %3d: %8d REs, %7d CSs, %.3f s"
                          % (event.cost, event.generated, event.stored,
                             event.elapsed_s))
            return 0
        # submit
        if args.spec_file is not None:
            if args.pos or args.neg:
                sys.stderr.write(
                    "repro client: error: --spec-file cannot be combined "
                    "with --pos/--neg\n")
                return 2
            spec = args.spec_file
        else:
            spec = Spec(args.pos, args.neg)
        wire = WireRequest(
            spec=spec,
            cost_fn=args.cost,
            max_cost=args.max_cost,
            allowed_error=args.error,
            max_generated=args.max_generated,
            time_limit=args.time_limit,
            config=EngineConfig(backend=args.backend),
        )
        job = client.submit(wire, klass=args.klass)
        print("job id     :", job["job_id"])
        print("class      :", job.get("class"))
        if not args.wait:
            return 0
        done = client.result(job["job_id"], timeout=args.timeout)
        return _print_result_summary(done.get("result") or {})
    except OverloadedError as exc:
        sys.stderr.write(
            "repro client: server overloaded; retry after %.0f s\n"
            % exc.retry_after_s)
        return 4
    except TimeoutError:
        sys.stderr.write("repro client: timed out after %.0f s\n"
                         % args.timeout)
        return 3
    except (ServerError, OSError) as exc:
        sys.stderr.write("repro client: %s\n" % exc)
        return 3


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.export import waterfall
    from .server.client import HttpServiceClient, ServerError

    client = HttpServiceClient(args.server, auth_token=args.auth_token)
    try:
        document = client.trace(args.job_id)
    except (ServerError, OSError) as exc:
        sys.stderr.write("repro trace: %s\n" % exc)
        return 3
    finally:
        client.close()
    if args.out is not None:
        payload = json.dumps(
            document.get("chrome_trace") or {}, indent=2, sort_keys=True
        )
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(
            "repro trace: wrote Chrome trace JSON to %s "
            "(load it at https://ui.perfetto.dev)" % args.out
        )
    print(waterfall(document.get("spans") or []))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .eval.report import bench_report

    paths = sorted(Path(args.dir).glob(args.glob))
    text = bench_report(paths)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(
            "repro report: wrote %s (%d artifact files)"
            % (args.out, len(paths))
        )
    else:
        print(text, end="")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(table1(pool_size=args.pool, max_generated=args.max_generated,
                 repeats=args.repeats).render())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    print(table2(paresy_budget=args.paresy_budget,
                 alpharegex_budget=args.ar_budget,
                 repeats=args.repeats).render())
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    data = figure1(type1_count=args.count, type2_count=args.count,
                   max_generated=args.max_generated)
    print(data.render())
    return 0


def _cmd_outliers(args: argparse.Namespace) -> int:
    data = figure1(type1_count=args.count, type2_count=args.count,
                   max_generated=args.max_generated)
    durations = [v for series in data.elapsed.values() for v in series]
    print(outlier_table(durations).render())
    return 0


def _cmd_error_table(args: argparse.Namespace) -> int:
    errors = [e / 100.0 for e in args.errors]
    print(error_table(errors=errors, max_generated=args.max_generated).render())
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    spec = ERROR_TABLE_SPEC
    print(ablation_guide_table(spec).render())
    print()
    print(ablation_uniqueness(spec, max_generated=args.max_generated).render())
    print()
    print(ablation_cache_capacity(spec).render())
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    params = SCALED_TYPE1_PARAMS if args.type == 1 else SCALED_TYPE2_PARAMS
    for bench in generate_suite(args.type, args.count, params, args.seed):
        print("%s  le=%d  #P=%d  #N=%d" % (bench.name, bench.le,
                                           bench.n_pos, bench.n_neg))
        print("   ", bench.spec)
    return 0


def _add_auth_token_arg(p: argparse.ArgumentParser,
                        help_text: str) -> None:
    """``--auth-token`` with the ``REPRO_AUTH_TOKEN`` env default."""
    p.add_argument("--auth-token", dest="auth_token", metavar="TOKEN",
                   default=os.environ.get("REPRO_AUTH_TOKEN"),
                   help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Paresy reproduction: regular expression inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="infer a regex from examples")
    p.add_argument("--pos", nargs="*", default=[], help="positive examples")
    p.add_argument("--neg", nargs="*", default=[], help="negative examples")
    p.add_argument("--spec-file", type=_parse_spec_file, default=None,
                   dest="spec_file", metavar="PATH",
                   help="read the spec from a JSON file (Spec.to_json "
                        "layout) instead of --pos/--neg")
    p.add_argument("--cost", type=_parse_cost, default="1,1,1,1,1",
                   help="cost homomorphism c1,c2,c3,c4,c5")
    registry = default_registry()
    p.add_argument("--backend", default="vector",
                   choices=sorted(registry.names())
                   + sorted(registry.aliases()))
    p.add_argument("--error", type=float, default=0.0, help="allowed error")
    p.add_argument("--max-cache", type=int, default=None, dest="max_cache")
    p.add_argument("--max-generated", type=int, default=None,
                   dest="max_generated")
    p.add_argument("--time-limit", type=float, default=None, dest="time_limit",
                   help="wall-clock budget in seconds (status 'cancelled' "
                        "past it)")
    p.add_argument("--progress", action="store_true",
                   help="stream per-cost-level progress lines")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("backends",
                       help="list registered engines and capabilities")
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser("serve",
                       help="answer a JSONL job file on the worker pool")
    p.add_argument("--store", required=True,
                   help="service store directory (staging/result caches, "
                        "outbox answers)")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--backend", default="vector",
                   choices=sorted(registry.names())
                   + sorted(registry.aliases()))
    p.add_argument("--depth", type=int, default=2,
                   help="max jobs in flight per worker")
    p.add_argument("--jobs", required=True, metavar="FILE",
                   help="JSONL job file to serve")
    p.add_argument("--reuse-results", action="store_true",
                   dest="reuse_results",
                   help="answer repeat submissions from the persistent "
                        "result store without re-running")
    p.add_argument("--max-attempts", type=int, default=3,
                   dest="max_attempts", metavar="N",
                   help="total dispatch attempts per job before a "
                        "worker-killing job is quarantined (default: 3)")
    p.add_argument("--no-checkpoints", action="store_false",
                   dest="checkpoints",
                   help="disable durable level checkpoints (crashed or "
                        "repeated queries re-enumerate from scratch)")
    p.add_argument("--checkpoint-budget", type=_parse_bytes, default=None,
                   dest="checkpoint_budget", metavar="BYTES",
                   help="LRU-evict checkpoint journals beyond this many "
                        "bytes at startup (accepts K/M/G suffixes)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("server",
                       help="run the HTTP synthesis server")
    p.add_argument("--store", required=True,
                   help="service store directory (shared by both lanes)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = OS-assigned, printed at start)")
    p.add_argument("--interactive-workers", type=int, default=1,
                   dest="interactive_workers",
                   help="worker processes in the interactive lane")
    p.add_argument("--batch-workers", type=int, default=2,
                   dest="batch_workers",
                   help="worker processes in the batch lane")
    p.add_argument("--depth", type=int, default=2,
                   help="max jobs in flight per worker")
    p.add_argument("--backend", default="vector",
                   choices=sorted(registry.names())
                   + sorted(registry.aliases()))
    p.add_argument("--max-queue-interactive", type=int, default=16,
                   dest="max_queue_interactive", metavar="N",
                   help="interactive backlog bound past the lane's slots "
                        "(submissions beyond it get 429)")
    p.add_argument("--max-queue-batch", type=int, default=32,
                   dest="max_queue_batch", metavar="N",
                   help="batch backlog bound (see --max-queue-interactive)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   dest="idle_timeout", metavar="SECONDS",
                   help="exit after this long without requests "
                        "(default: run until interrupted)")
    p.add_argument("--no-reuse-results", action="store_false",
                   dest="reuse_results",
                   help="re-run repeat submissions instead of answering "
                        "from the persistent result store")
    p.add_argument("--no-checkpoints", action="store_false",
                   dest="checkpoints",
                   help="disable durable level checkpoints")
    p.add_argument("--checkpoint-budget", type=_parse_bytes, default=None,
                   dest="checkpoint_budget", metavar="BYTES",
                   help="LRU-evict checkpoint journals beyond this many "
                        "bytes (applied at startup and periodically; "
                        "accepts K/M/G suffixes)")
    p.add_argument("--no-preempt", action="store_false",
                   dest="preempt",
                   help="never preempt batch jobs for saturated "
                        "interactive admissions (trades interactive "
                        "p99 for batch throughput)")
    p.add_argument("--brownout-after", type=float, default=2.0,
                   dest="brownout_after", metavar="SECONDS",
                   help="shed batch submissions after the interactive "
                        "lane has been saturated this long")
    p.add_argument("--brownout-exit-after", type=float, default=5.0,
                   dest="brownout_exit_after", metavar="SECONDS",
                   help="leave brownout once the interactive lane has "
                        "been calm this long")
    _add_auth_token_arg(p, "require this bearer token on every request "
                           "(default: $REPRO_AUTH_TOKEN; unset = open)")
    p.set_defaults(func=_cmd_server)

    p = sub.add_parser("client",
                       help="talk to a running `repro server` over HTTP")
    p.add_argument("action",
                   choices=["submit", "status", "cancel", "events",
                            "health", "metrics"])
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id for status/cancel/events")
    p.add_argument("--server", required=True, metavar="URL",
                   help="server address, e.g. http://127.0.0.1:8765")
    p.add_argument("--pos", nargs="*", default=[], help="positive examples")
    p.add_argument("--neg", nargs="*", default=[], help="negative examples")
    p.add_argument("--spec-file", type=_parse_spec_file, default=None,
                   dest="spec_file", metavar="PATH")
    p.add_argument("--cost", type=_parse_cost, default=None,
                   help="cost homomorphism c1,c2,c3,c4,c5")
    p.add_argument("--backend", default="vector",
                   choices=sorted(registry.names())
                   + sorted(registry.aliases()))
    p.add_argument("--error", type=float, default=0.0, help="allowed error")
    p.add_argument("--max-cost", type=int, default=None, dest="max_cost")
    p.add_argument("--max-generated", type=int, default=None,
                   dest="max_generated")
    p.add_argument("--time-limit", type=float, default=None,
                   dest="time_limit")
    p.add_argument("--class", choices=["interactive", "batch"],
                   default=None, dest="klass",
                   help="pin the job to this lane (without it, a job "
                        "starts interactive and moves to batch after one "
                        "quantum of run time)")
    p.add_argument("--wait", action="store_true",
                   help="long-poll the server until the job finishes")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait timeout in seconds")
    _add_auth_token_arg(p, "bearer token for an authenticated server "
                           "(default: $REPRO_AUTH_TOKEN)")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("trace",
                       help="fetch a job's trace from a running server")
    p.add_argument("job_id", help="job id (the submission fingerprint)")
    p.add_argument("--server", required=True, metavar="URL",
                   help="server address, e.g. http://127.0.0.1:8765")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write Chrome trace-event JSON here "
                        "(loadable at https://ui.perfetto.dev)")
    _add_auth_token_arg(p, "bearer token for an authenticated server "
                           "(default: $REPRO_AUTH_TOKEN)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("report",
                       help="render BENCH_*.json artifacts as markdown")
    p.add_argument("--dir", default=".",
                   help="directory holding the artifact files")
    p.add_argument("--glob", default="BENCH_*.json",
                   help="artifact filename pattern")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the markdown here instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("table1", help="scalar vs vector engine comparison")
    p.add_argument("--pool", type=int, default=8)
    p.add_argument("--max-generated", type=int, default=200_000,
                   dest="max_generated")
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="AlphaRegex vs Paresy comparison")
    p.add_argument("--paresy-budget", type=int, default=3_000_000,
                   dest="paresy_budget")
    p.add_argument("--ar-budget", type=int, default=40_000, dest="ar_budget")
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("figure1", help="cost-function impact sweep")
    p.add_argument("--count", type=int, default=10,
                   help="benchmarks per type")
    p.add_argument("--max-generated", type=int, default=400_000,
                   dest="max_generated")
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("outliers", help="duration distribution table")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-generated", type=int, default=400_000,
                   dest="max_generated")
    p.set_defaults(func=_cmd_outliers)

    p = sub.add_parser("error-table", help="allowed-error sweep (§5.2)")
    p.add_argument("--errors", type=int, nargs="*",
                   default=[50, 45, 40, 35, 30, 25, 20, 15],
                   help="allowed error percentages")
    p.add_argument("--max-generated", type=int, default=5_000_000,
                   dest="max_generated")
    p.set_defaults(func=_cmd_error_table)

    p = sub.add_parser("ablations", help="design-choice ablations (E6)")
    p.add_argument("--max-generated", type=int, default=2_000_000,
                   dest="max_generated")
    p.set_defaults(func=_cmd_ablations)

    p = sub.add_parser("suite", help="print a generated benchmark suite")
    p.add_argument("--type", type=int, default=1, choices=[1, 2])
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
