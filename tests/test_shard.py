"""Intra-query sharded level construction (repro.core.shard).

Three layers of evidence:

* the partition plan is a pure function — unit tests pin its
  determinism, balance, contiguity and the degenerate cases (one
  shard, more shards than units, zero-weight groups);
* the layout/ordinal bookkeeping agrees with a brute-force enumeration
  of the pairings in serial candidate order;
* sharded engines (``shard_workers >= 2``) produce **bit-identical**
  enumeration-visible state — cache rows, provenance, ``generated``
  counters, per-level stats, solution, status — versus
  ``shard_workers=1`` on both backends, across success, not-found,
  budget-truncated and error-tolerant runs, and through the session
  API's ``EngineConfig.shard_workers``.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import EngineConfig, Session, Spec, SynthesisRequest
from repro.core.cache import IntCache
from repro.core.engine import cs_solves
from repro.core.bitops import int_to_lanes, ints_to_matrix, lanes_to_int
from repro.core.scalar_engine import ScalarEngine
from repro.core.shard import (
    LaneMatcher,
    PairGroupLayout,
    plan_shards,
    total_pair_candidates,
)
from repro.core.vector_engine import VectorEngine
from repro.language.guide_table import GuideTable
from repro.language.universe import Universe
from repro.regex.cost import CostFunction

ENGINES = {"scalar": ScalarEngine, "vector": VectorEngine}

#: The wide multi-lane task also used by the kernel benchmarks.
WIDE_SPEC = Spec(
    positive=["0110100101", "1010010110", "01"],
    negative=["", "0", "1", "11", "10", "0011001100"],
)

SMALL_SPEC = Spec(positive=["10", "1010", "101010"], negative=["", "1", "0"])


# ----------------------------------------------------------------------
# The partition planner (pure function)
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_one_shard_covers_everything(self):
        plan = plan_shards([3, 1, 4, 1, 5], 1)
        assert len(plan) == 1
        assert (plan[0].unit_lo, plan[0].unit_hi) == (0, 5)
        assert plan[0].ordinal_lo == 0
        assert plan[0].candidates == 14

    def test_more_shards_than_units(self):
        plan = plan_shards([2, 3], 5)
        assert len(plan) == 5
        # Contiguous cover with empty trailing ranges.
        assert plan[0].unit_lo == 0
        assert plan[-1].unit_hi == 2
        for before, after in zip(plan, plan[1:]):
            assert before.unit_hi == after.unit_lo
        assert sum(r.candidates for r in plan) == 5
        assert sum(1 for r in plan if r.unit_lo == r.unit_hi) >= 3

    def test_empty_weights(self):
        plan = plan_shards([], 3)
        assert [(r.unit_lo, r.unit_hi, r.candidates) for r in plan] == [
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 0),
        ]

    def test_zero_total_weight(self):
        plan = plan_shards([0, 0, 0], 2)
        assert len(plan) == 2
        assert plan[0].unit_hi == 3
        assert all(r.candidates == 0 for r in plan)

    def test_contiguity_offsets_and_balance(self):
        rng = np.random.RandomState(7)
        for _ in range(25):
            weights = rng.randint(0, 50, size=rng.randint(1, 40))
            n_shards = int(rng.randint(1, 9))
            plan = plan_shards(weights, n_shards)
            assert len(plan) == n_shards
            total = int(weights.sum())
            cum = np.concatenate([[0], np.cumsum(weights)])
            assert plan[0].unit_lo == 0
            assert plan[-1].unit_hi == len(weights)
            position = 0
            for shard in plan:
                assert shard.unit_lo == position
                position = shard.unit_hi
                assert shard.ordinal_lo == cum[shard.unit_lo]
                assert shard.candidates == cum[shard.unit_hi] - cum[shard.unit_lo]
            assert sum(r.candidates for r in plan) == total
            if total and len(weights) >= n_shards:
                ideal = total / n_shards
                w_max = int(weights.max())
                for shard in plan:
                    assert shard.candidates <= ideal + w_max

    def test_deterministic(self):
        weights = [5, 1, 7, 3, 3, 9, 2]
        assert plan_shards(weights, 3) == plan_shards(weights, 3)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards([1, 2], 0)


def brute_force_pairs(pairings):
    """Every (left, right) operand pair in serial enumeration order."""
    out = []
    for (l0, l1), (r0, r1), triangular in pairings:
        for i in range(l0, l1):
            j_start = i + 1 if triangular else r0
            for j in range(j_start, r1):
                out.append((i, j))
    return out


class TestPairGroupLayout:
    PAIRINGS = [
        ([((2, 6), (9, 14), False)]),
        ([((3, 9), (3, 9), True)]),
        ([((0, 4), (7, 9), False), ((4, 7), (4, 7), True), ((7, 8), (0, 4), False)]),
        ([((5, 5), (0, 3), False), ((0, 2), (2, 9), False)]),
    ]

    @pytest.mark.parametrize("pairings", PAIRINGS)
    def test_total_matches_brute_force(self, pairings):
        layout = PairGroupLayout(pairings)
        pairs = brute_force_pairs(pairings)
        assert layout.total == len(pairs)
        assert total_pair_candidates(pairings) == len(pairs)

    @pytest.mark.parametrize("pairings", PAIRINGS)
    def test_slices_cover_ordinals_exactly(self, pairings):
        layout = PairGroupLayout(pairings)
        pairs = brute_force_pairs(pairings)
        for n_shards in (1, 2, 3, 5):
            plan = plan_shards(layout.weights, n_shards)
            seen = []
            for shard in plan:
                ordinal = shard.ordinal_lo
                for index, row_lo, row_hi, slice_ord in layout.slices(
                    shard.unit_lo, shard.unit_hi
                ):
                    assert slice_ord == ordinal
                    left, right, triangular = layout.pairings[index]
                    for i in range(row_lo, row_hi):
                        j_start = i + 1 if triangular else right[0]
                        for j in range(j_start, right[1]):
                            assert pairs[ordinal] == (i, j)
                            seen.append(ordinal)
                            ordinal += 1
                assert ordinal == shard.ordinal_lo + shard.candidates
            assert seen == list(range(len(pairs)))


class TestLaneMatcher:
    def test_matches_scalar_predicate(self):
        rng = np.random.RandomState(3)
        lanes = 3
        pos = int_to_lanes(rng.randint(0, 1 << 30), lanes)
        neg = int_to_lanes(rng.randint(0, 1 << 30) << 60, lanes)
        pos_int = lanes_to_int(pos)
        neg_int = lanes_to_int(neg) & ~pos_int
        neg = int_to_lanes(neg_int, lanes)
        cs_ints = [int(x) for x in rng.randint(0, 1 << 62, size=64)]
        rows = ints_to_matrix(cs_ints, lanes)
        for max_errors in (0, 1, 3):
            matcher = LaneMatcher(pos, neg, max_errors)
            flags = matcher.flags(rows)
            for cs, flag in zip(cs_ints, flags):
                assert bool(flag) == cs_solves(cs, pos_int, neg_int, max_errors)

    def test_all_zero_masks_accept_everything(self):
        lanes = 2
        matcher = LaneMatcher(
            np.zeros(lanes, dtype=np.uint64),
            np.zeros(lanes, dtype=np.uint64),
            0,
        )
        rows = ints_to_matrix([0, 5, 1 << 100], lanes)
        assert matcher.flags(rows).all()


# ----------------------------------------------------------------------
# End-to-end bit-identity
# ----------------------------------------------------------------------
def run_engine(backend, spec, shard_workers, max_cost=40, **kwargs):
    universe = Universe(spec.all_words, alphabet=spec.alphabet)
    guide = GuideTable(universe)
    engine = ENGINES[backend](
        spec,
        CostFunction.uniform(),
        universe,
        guide,
        shard_workers=shard_workers,
        **kwargs,
    )
    engine.shard_min_candidates = 0  # shard even tiny levels in tests
    status = engine.run(max_cost)
    return engine, status


def engine_state(engine, status):
    """Everything enumeration-visible, as comparable plain data."""
    cache = engine.cache
    if isinstance(cache, IntCache):
        rows = list(cache.cs_list)
    else:
        rows = [lanes_to_int(row) for row in cache.matrix[: len(cache)]]
    return {
        "status": status,
        "generated": engine.generated,
        "levels_built": engine.levels_built,
        "level_stats": engine.level_stats,
        "solution": engine.solution,
        "solution_cost": engine.solution_cost,
        "rows": rows,
        "provenance": list(cache.provenance),
    }


@pytest.mark.parametrize("backend", ["scalar", "vector"])
@pytest.mark.parametrize("shard_workers", [2, 3])
class TestShardedBitIdentity:
    def test_success_run(self, backend, shard_workers):
        serial, s_status = run_engine(backend, WIDE_SPEC, 1)
        sharded, p_status = run_engine(backend, WIDE_SPEC, shard_workers)
        assert s_status == "success"
        assert engine_state(serial, s_status) == engine_state(sharded, p_status)

    def test_not_found_run(self, backend, shard_workers):
        serial, s_status = run_engine(backend, WIDE_SPEC, 1, max_cost=8)
        sharded, p_status = run_engine(backend, WIDE_SPEC, shard_workers, max_cost=8)
        assert s_status == "not_found"
        assert engine_state(serial, s_status) == engine_state(sharded, p_status)

    def test_budget_truncated_run(self, backend, shard_workers):
        # The budget lands inside a sharded pair group, so the exact
        # stop ordinal (not just the group boundary) must match.
        serial, s_status = run_engine(backend, WIDE_SPEC, 1, max_generated=15000)
        sharded, p_status = run_engine(
            backend, WIDE_SPEC, shard_workers, max_generated=15000
        )
        assert s_status == "budget"
        assert engine_state(serial, s_status) == engine_state(sharded, p_status)

    def test_error_tolerant_run(self, backend, shard_workers):
        serial, s_status = run_engine(backend, WIDE_SPEC, 1, allowed_error=0.2)
        sharded, p_status = run_engine(
            backend, WIDE_SPEC, shard_workers, allowed_error=0.2
        )
        assert s_status == "success"
        assert engine_state(serial, s_status) == engine_state(sharded, p_status)

    def test_small_spec_run(self, backend, shard_workers):
        serial, s_status = run_engine(backend, SMALL_SPEC, 1)
        sharded, p_status = run_engine(backend, SMALL_SPEC, shard_workers)
        assert engine_state(serial, s_status) == engine_state(sharded, p_status)


class TestShardingGates:
    def test_serial_engine_never_spawns(self):
        engine, _ = run_engine("vector", SMALL_SPEC, 1)
        assert engine._shard_coordinator is None

    def test_workers_closed_after_run(self):
        engine, status = run_engine("vector", WIDE_SPEC, 2)
        assert status == "success"
        assert engine._shard_coordinator is None
        assert not [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard")
        ]

    def test_bounded_cache_falls_back_to_serial(self):
        serial, s_status = run_engine("vector", WIDE_SPEC, 1, max_cache_size=4000)
        gated, g_status = run_engine("vector", WIDE_SPEC, 2, max_cache_size=4000)
        assert gated._shard_coordinator is None  # OnTheFly stays serial
        assert engine_state(serial, s_status) == engine_state(gated, g_status)

    def test_no_dedupe_ablation_falls_back_to_serial(self):
        gated, _ = run_engine("vector", SMALL_SPEC, 2, check_uniqueness=False)
        assert gated._shard_coordinator is None

    def test_min_candidates_threshold(self):
        universe = Universe(SMALL_SPEC.all_words)
        engine = VectorEngine(
            SMALL_SPEC,
            CostFunction.uniform(),
            universe,
            GuideTable(universe),
            shard_workers=2,
        )
        # Default threshold: the tiny spec's levels never reach it.
        engine.run(12)
        assert engine._shard_coordinator is None

    def test_invalid_shard_workers(self):
        universe = Universe(SMALL_SPEC.all_words)
        with pytest.raises(ValueError, match="shard_workers"):
            VectorEngine(
                SMALL_SPEC,
                CostFunction.uniform(),
                universe,
                GuideTable(universe),
                shard_workers=0,
            )


class TestSessionPlumbing:
    def test_config_shard_workers_bit_identical(self, monkeypatch):
        import repro.core.engine as engine_mod

        request = SynthesisRequest.of(WIDE_SPEC)
        serial = Session(EngineConfig(backend="vector")).synthesize(request)
        # Force even the small wide-spec levels through the shard pool.
        monkeypatch.setattr(engine_mod, "DEFAULT_SHARD_MIN_CANDIDATES", 0)
        session = Session(EngineConfig(backend="vector", shard_workers=2))
        engine = session.make_engine(request)
        assert engine.shard_workers == 2
        assert engine.shard_min_candidates == 0
        sharded = session.synthesize(request)
        assert (serial.status, serial.regex_str, serial.cost) == (
            sharded.status,
            sharded.regex_str,
            sharded.cost,
        )
        assert serial.generated == sharded.generated
        assert serial.unique_cs == sharded.unique_cs

    def test_batched_sweep_shards_bit_identically(self, monkeypatch):
        # A shared multi-spec sweep runs an enumeration-only engine
        # (unsatisfiable masks); sharding it must not change any
        # per-request answer.
        import repro.core.engine as engine_mod

        words = sorted(WIDE_SPEC.all_words)
        requests = [
            SynthesisRequest(spec=Spec(words[k::2], words[1 - k :: 2]))
            for k in range(2)
        ]
        serial = Session(EngineConfig(backend="vector")).synthesize_many(requests)
        monkeypatch.setattr(engine_mod, "DEFAULT_SHARD_MIN_CANDIDATES", 0)
        session = Session(EngineConfig(backend="vector", shard_workers=2))
        sharded = session.synthesize_many(requests)
        assert session.stats.batch_groups == 1
        assert sharded[0].extra["sharded_emits"] > 0
        for a, b in zip(serial, sharded):
            assert (a.status, a.regex_str, a.cost, a.generated) == (
                b.status,
                b.regex_str,
                b.cost,
                b.generated,
            )

    def test_pool_job_runs_serially_inside_its_worker(self, monkeypatch):
        # The pool's workers are the service's parallelism: a pooled job
        # runs the serial engine in its worker even when the pool's
        # config asks for shards and every level is wide enough to fan
        # out (the wire drops the fan-out).
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("threshold monkeypatch needs fork inheritance")
        import repro.core.engine as engine_mod
        from repro.service import WorkerPool

        serial = Session(EngineConfig(backend="vector")).synthesize(WIDE_SPEC)
        monkeypatch.setattr(engine_mod, "DEFAULT_SHARD_MIN_CANDIDATES", 0)
        config = EngineConfig(backend="vector", shard_workers=2)
        with WorkerPool(workers=1, config=config,
                        per_worker_depth=2) as pool:
            handle = pool.submit(SynthesisRequest.of(WIDE_SPEC))
            assert handle._job.wire.config.shard_workers == 1
            result = handle.result(timeout=120)
        assert result.extra["sharded_emits"] == 0
        assert (result.status, result.regex_str, result.cost,
                result.generated) == (serial.status, serial.regex_str,
                                      serial.cost, serial.generated)
