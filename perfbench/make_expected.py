"""Regenerate the reference answers with the scalar engine.

The scalar engine is the repository's reference implementation; the
benchmark compares every answer against what it returned once::

    PYTHONPATH=src python3 perfbench/make_expected.py interactive refine

writes ``perfbench/expected/<workload>.json`` for each workload named
(all of them when none is).  Slow by design: the sweep pool alone takes
the scalar engine about twenty minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import EngineConfig, Session  # noqa: E402

import workloads  # noqa: E402
from bench import answer_of, request_of  # noqa: E402

POOLS = {
    "interactive": workloads.interactive_pool,
    "refine": lambda: [c for s in workloads.refine_pool() for c in s],
    "sweep": lambda: [c for b in workloads.sweep_pool() for c in b],
}


def main(names) -> None:
    session = Session(EngineConfig(backend="scalar"))
    for name in names or sorted(POOLS):
        started = time.perf_counter()
        answers = {}
        for case in POOLS[name]():
            answers[case.key] = answer_of(session.synthesize(request_of(case)))
        path = HERE / "expected" / ("%s.json" % name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(answers, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print("%s: %d answers in %.0f s"
              % (name, len(answers), time.perf_counter() - started))


if __name__ == "__main__":
    main(sys.argv[1:])
