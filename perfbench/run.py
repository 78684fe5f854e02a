"""The repository's benchmark: seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` lists them and why each exists):

* ``interactive``: HTTP closed loop of small distinct specs;
* ``refine``: HTTP closed loop of refinement sessions, whose relabelled
  requests replay checkpointed levels;
* ``sweep``: HTTP bursts of wide jobs on the batch lane, where the
  server fans jobs out to shard workers.

``--trace 0`` sets up ``bench.SETUPS`` times, measures one untraced
pass on the middle set-up and prints the end-to-end metrics.  ``--trace 1`` measures an untraced
pass, runs the layer ladder (``interactive`` only), then a traced pass
with the probes installed, and prints the per-layer metrics; the traced
answers must equal the untraced ones.  Every answer is checked against
``perfbench/expected/<workload>.json`` (scalar-engine reference answers)
and, for found regexes, with Python ``re`` against the examples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a markdown
report precedes it.  Scratch files live under ``.perfbench_tmp/`` in
the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interactive", "refine", "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from bench import Bench

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # Temporary files of this process and of every child stay in the
    # checkout too.
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        result = bench.run(traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
