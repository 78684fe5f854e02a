"""Record the provenance digests ``tests/test_provenance.py`` checks.

Runs every case of :data:`CASES` on both backends and writes, per case
and backend, the SHA-256 of the cache's ``(op, left, right)`` triples
(as three int64 columns: every op, then every left, then every right)
and of the solution triple, plus the run's status, ``generated`` and
stored-row count.  ``provenance_digests.json`` was written by this
script while the caches still stored those columns, so the test pins
the triples the engines decode today to the ones they used to store.

Usage (from the repository root)::

    PYTHONPATH=src python tests/make_provenance_digests.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from _fixtures import BUDGET, SPEC, WIDE_SPEC
from repro.core.engine import RunControl
from repro.core.synthesizer import make_engine
from repro.regex.cost import CostFunction
from repro.service.checkpoint import CheckpointStore
from repro.spec import Spec

DIGESTS = Path(__file__).with_name("provenance_digests.json")

BACKENDS = ("scalar", "vector")

#: The paper's introduction example (one lane).
INTRO = Spec(
    positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
    negative=["", "0", "1", "00", "11", "010"],
)

#: Filled at cost 11 of 12 under (1, 2, 2, 2, 2) with 111 rows, so
#: cost 12 runs wholly in OnTheFly mode and holds the solution.
OTF_SPEC = Spec(["10", "101", "100"], ["", "0", "1", "11"])


def _run(spec, backend, max_cost=40, cost=None, control=None, **options):
    """Run one engine to ``max_cost`` under ``control``; returns it."""
    cost_fn = CostFunction.uniform() if cost is None else CostFunction.from_tuple(cost)
    engine = make_engine(spec, cost_fn, backend=backend, **options)
    engine.run(max_cost, control)
    return engine


def _budget_records(backend):
    """The records of SPEC's run stopped by BUDGET inside cost 6."""
    records = []
    _run(SPEC, backend, max_generated=BUDGET,
         control=RunControl(on_checkpoint=records.extend))
    return records


def _mid_level_resume(backend):
    """SPEC resumed from its budget-stopped records, mid-level."""
    records = _budget_records(backend)
    return _run(SPEC, backend, control=RunControl(restored=records))


#: SPEC's words relabelled: first solved at cost 13, so a run to cost 6
#: ends ``not_found`` with levels 1-6 complete.  Records do not depend
#: on the spec, so they are SPEC's.
UNSOLVED_TO_6 = Spec(["00", "0110", "11", "101"], ["010", ""])


def _journal_records(backend):
    """SPEC's levels 1-6 as a run to cost 6 journalled them, loaded back
    from the journal."""
    sweep = make_engine(UNSOLVED_TO_6, CostFunction.uniform(), backend=backend)
    records = []
    assert sweep.run(6, RunControl(on_checkpoint=records.extend)) == "not_found"
    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        store.append("replay", records)
        return store.load("replay")


def _journal_replay(backend):
    """SPEC answered from the journal: its solution lies inside the
    restored cost-6 record."""
    restored = _journal_records(backend)
    return _run(SPEC, backend, control=RunControl(restored=restored))


#: Case name -> ``run(backend)`` returning the finished engine.
CASES = {
    "default-1-lane": lambda b: _run(INTRO, b),
    "default-2-lanes": lambda b: _run(WIDE_SPEC, b),
    "cost-1-1-10-1-1": lambda b: _run(INTRO, b, 80, (1, 1, 10, 1, 1)),
    "cost-10-1-1-1-1": lambda b: _run(INTRO, b, 80, (10, 1, 1, 1, 1)),
    "no-uniqueness-budget": lambda b: _run(
        INTRO, b, check_uniqueness=False, max_generated=3000
    ),
    "no-guide-table": lambda b: _run(INTRO, b, use_guide_table=False),
    "allowed-error-0.2": lambda b: _run(INTRO, b, allowed_error=0.2),
    "onthefly-solution": lambda b: _run(
        OTF_SPEC, b, 80, (1, 2, 2, 2, 2), max_cache_size=111
    ),
    "mid-level-budget": lambda b: _run(SPEC, b, max_generated=BUDGET),
    "mid-level-resume": _mid_level_resume,
    "journal-replay-solved": _journal_replay,
}


def stored_triples(engine):
    """The engine's per-row ``(op, left, right)`` triples, in row order
    (read from the stored columns when the JSON was recorded)."""
    return list(engine.provenance)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(engine) -> dict:
    """What the JSON file holds for one finished engine."""
    triples = np.array(stored_triples(engine), dtype=np.int64).reshape(-1, 3)
    solution = None if engine.solution is None else list(engine.solution)
    return {
        "status": engine.status,
        "generated": engine.generated,
        "rows": int(triples.shape[0]),
        "provenance_sha256": _sha256(np.ascontiguousarray(triples.T).tobytes()),
        "solution_sha256": _sha256(json.dumps(solution).encode("ascii")),
    }


def main() -> None:
    table = {
        name: {backend: digests(run(backend)) for backend in BACKENDS}
        for name, run in CASES.items()
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d cases)" % (DIGESTS, len(table)))


if __name__ == "__main__":
    main()
