"""The benchmark's hooks into the program stay valid.

``perfbench/`` instruments the program from outside: its probes patch
kernels and request boundaries by module and attribute name
(``probes.KERNELS``, the shard-worker emit and main), and its per-layer
report charges span self times by span name (``layers.SPAN_LAYERS``).
A rename under ``src/`` that breaks one of these fails here, in the
tier-1 suite, instead of in a later traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro.core.engine as engine_module
from repro import EngineConfig, Spec, SynthesisRequest
from repro.service import CheckpointStore, StoreBackedSession

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Five full cost levels before the solution.
SPEC = Spec(positive=["00", "010", "0110"], negative=["", "11", "101"])


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = _load("probes")
layers = _load("layers")


@pytest.mark.parametrize(
    "module, owner, attr",
    [(module, owner, attr) for module, owner, attr, _ in probes.KERNELS],
)
def test_kernel_probe_targets_resolve(module, owner, attr):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))


def test_shard_worker_boundaries_resolve():
    from repro.core import shard

    assert callable(shard._ShardWorker.emit)
    assert callable(shard._shard_worker_main)


def _span_names(result):
    return {span["name"] for span in result.extra["trace"]["spans"]}


def test_checkpoint_spans_are_the_ones_the_report_maps(tmp_path, monkeypatch):
    config = EngineConfig(backend="vector", trace=True)
    store = CheckpointStore(tmp_path)
    # A short in-level cadence so the writing run also records the
    # in-level saves the sweep workload reports.
    monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY_CANDIDATES", 7)
    written = StoreBackedSession(config, checkpoint_store=store).synthesize(
        SynthesisRequest(spec=SPEC)
    )
    restored = StoreBackedSession(config, checkpoint_store=store).synthesize(
        SynthesisRequest(spec=SPEC)
    )
    assert restored.extra["resumed_levels"] > 0
    saves = {"checkpoint-save", "partial-save"}
    reads = {"checkpoint-restore", "checkpoint-replay"}
    assert saves <= _span_names(written)
    assert reads <= _span_names(restored)
    for name in saves | reads:
        assert name in layers.SPAN_LAYERS, name
    assert layers.SPAN_COUNTS["checkpoint-save"] == "checkpoint.saves"
    assert layers.SPAN_COUNTS["partial-save"] == "checkpoint.partial_saves"
