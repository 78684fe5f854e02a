"""Run ``repro server``, optionally with the engine probes installed.

    python3 perfbench/server_main.py [--probe-dir DIR] server --store DIR ...

Everything after the optional ``--probe-dir DIR`` goes to the ``repro``
command line unchanged.  With ``--probe-dir`` the kernel probes of
:mod:`probes` are installed before the server starts; the pool and
shard workers are forked from this process and inherit them, and each
process appends its per-request records to ``DIR/probe-<pid>.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    if argv[:1] == ["--probe-dir"]:
        import probes

        probes.install_engine_probes(probes.file_sink(argv[1]))
        argv = argv[2:]
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
