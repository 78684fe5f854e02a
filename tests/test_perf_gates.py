"""The kernel perf gate checker (``benchmarks/check_perf_ceilings.py``).

CI runs the checker after the kernel benchmark writes
``BENCH_kernels.json``; these tests pin what it reports as a failure on
synthetic artifacts, and that the committed artifact passes the
committed gates.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_perf_ceilings",
        REPO_ROOT / "benchmarks" / "check_perf_ceilings.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

GATES = {
    "ceilings_ns_per_candidate": {"concat": 800, "solve": 20},
    "floors_speedup_vs_scalar": {"concat": 200},
}

WITHIN = {
    "results": [
        {"op": "concat", "ns_per_candidate": 240.0, "speedup_vs_scalar": 260.0},
        {"op": "solve", "ns_per_candidate": 5.0, "speedup_vs_scalar": 30.0},
    ]
}


def _with(op, field, value):
    artifact = copy.deepcopy(WITHIN)
    for record in artifact["results"]:
        if record["op"] == op:
            if value is None:
                del record[field]
            else:
                record[field] = value
    return artifact


def test_an_artifact_within_every_bound_passes():
    assert checker.failures(WITHIN, GATES) == []


@pytest.mark.parametrize(
    "artifact, op",
    [
        (_with("solve", "ns_per_candidate", 21.0), "solve"),
        (_with("concat", "speedup_vs_scalar", 199.0), "concat"),
        (_with("concat", "speedup_vs_scalar", None), "concat"),
        (_with("solve", "ns_per_candidate", None), "solve"),
        ({"results": WITHIN["results"][:1]}, "solve"),
    ],
    ids=[
        "over-ceiling", "under-floor", "missing-floor-field",
        "missing-ceiling-field", "missing-op",
    ],
)
def test_each_breach_fails_on_its_op_only(artifact, op):
    found = checker.failures(artifact, GATES)
    assert len(found) == 1
    assert found[0].startswith(op + ":")


def test_the_committed_artifact_passes_the_committed_gates():
    artifact = json.loads(
        (REPO_ROOT / "BENCH_kernels.json").read_text(encoding="utf-8")
    )
    gates = json.loads(
        (REPO_ROOT / "benchmarks" / "perf_ceilings.json").read_text(
            encoding="utf-8"
        )
    )
    assert gates["floors_speedup_vs_scalar"]
    assert checker.failures(artifact, gates) == []
