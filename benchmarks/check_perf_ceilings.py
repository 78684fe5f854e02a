"""CI perf gate: check the kernel artifact against its ceilings and floors.

Reads the freshly generated ``BENCH_kernels.json`` (repo root) and the
gates in ``benchmarks/perf_ceilings.json``, keyed by op name:

* ``ceilings_ns_per_candidate`` bound each op's ``ns_per_candidate``
  from above.  They are generous absolute values (see the JSON) that
  catch order-of-magnitude regressions on any hardware.
* ``floors_speedup_vs_scalar`` bound an op's ``speedup_vs_scalar`` from
  below.  The scalar engine's counterpart is timed in the same run, so
  a floor is a ratio that a slower machine does not move.

Prints each measured value next to its bound and exits non-zero listing
every breach, and every gated op or field the artifact lacks.

Usage: ``python benchmarks/check_perf_ceilings.py``
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``(section of perf_ceilings.json, artifact field, breach test, the
#: bound's sign in the report)``.
GATES = (
    ("ceilings_ns_per_candidate", "ns_per_candidate", operator.gt, "<="),
    ("floors_speedup_vs_scalar", "speedup_vs_scalar", operator.lt, ">="),
)


def checks(artifact: Dict, gates: Dict) -> List[tuple]:
    """One ``(op, field, value, sign, bound, ok)`` row per gate;
    ``value`` is None when the artifact lacks the op or the field."""
    records = {record["op"]: record for record in artifact["results"]}
    rows = []
    for section, field, breaks, sign in GATES:
        for op, bound in gates.get(section, {}).items():
            value = records.get(op, {}).get(field)
            ok = value is not None and not breaks(value, bound)
            rows.append((op, field, value, sign, bound, ok))
    return rows


def failures(artifact: Dict, gates: Dict) -> List[str]:
    """Every gate the artifact fails, as one message each."""
    return [
        "%s: %s %s, bound %s %g"
        % (op, field, "missing" if value is None else "%.1f" % value, sign, bound)
        for op, field, value, sign, bound, ok in checks(artifact, gates)
        if not ok
    ]


def main() -> int:
    artifact = json.loads(
        (REPO_ROOT / "BENCH_kernels.json").read_text(encoding="utf-8")
    )
    gates = json.loads(
        (REPO_ROOT / "benchmarks" / "perf_ceilings.json").read_text(
            encoding="utf-8"
        )
    )
    for op, field, value, sign, bound, ok in checks(artifact, gates):
        shown = "missing" if value is None else "%.1f" % value
        print("%-16s %-18s %10s  %s %-6g %s"
              % (op, field, shown, sign, bound, "ok" if ok else "FAIL"))
    found = failures(artifact, gates)
    if found:
        print("\nPERF GATE FAILURES:")
        for failure in found:
            print("  - " + failure)
        return 1
    print("\nevery op within its ceiling and floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
