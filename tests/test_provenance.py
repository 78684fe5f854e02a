"""Provenance is a function of the generation ordinal.

The caches and the checkpoint journal store each row's CS and its
1-based generation ordinal only; :meth:`SearchEngine._decode` reads
enumeration order backwards to give the row's ``(op, left, right)``
triple.  These tests pin the decoded triples, on both backends and in
every mode that shapes enumeration, to the digests
``make_provenance_digests.py`` recorded while the caches still stored
the triples as three int64 columns, and check the decoded view's
semantics row by row.
"""

import functools
import json

import pytest

from make_provenance_digests import (
    BACKENDS,
    CASES,
    DIGESTS,
    _budget_records,
    _journal_records,
    digests,
)
from repro.core.bitops import concat_cs, star_cs
from repro.core.cache_view import _cs_at
from repro.core.engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_EMPTY,
    OP_EPSILON,
    OP_QUESTION,
    OP_STAR,
    OP_UNION,
    _pair_at,
    _pair_candidates,
)

RECORDED = json.loads(DIGESTS.read_text())


@functools.lru_cache(maxsize=None)
def finished(case, backend):
    """The finished engine of one case (each case runs once per backend)."""
    return CASES[case](backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_decoded_provenance_matches_the_stored_columns(case, backend):
    assert digests(finished(case, backend)) == RECORDED[case][backend]


@pytest.mark.parametrize("backend", BACKENDS)
class TestCasesReachTheirModes:
    def test_onthefly_solution_lies_past_the_filled_level(self, backend):
        engine = finished("onthefly-solution", backend)
        assert engine.status == "success" and engine.otf
        # The cache filled inside the level after the last complete one,
        # and the solution lies in a level built wholly in OnTheFly mode.
        last = engine.cache.levels.last_complete_cost
        assert engine.solution_cost > last + 1
        assert len(engine.cache) > engine.cache.levels.bounds(last)[1]

    def test_budget_stops_inside_a_level(self, backend):
        engine = finished("mid-level-budget", backend)
        levels = engine.cache.levels
        assert engine.status == "budget"
        assert len(engine.cache) > levels.bounds(levels.last_complete_cost)[1]

    def test_resume_enters_a_level_mid_way(self, backend):
        engine = finished("mid-level-resume", backend)
        assert engine.status == "success"
        assert engine.partial_resumes == 1
        assert _budget_records(backend)[-1].level_progress > 0

    def test_replay_solves_inside_a_restored_record(self, backend):
        engine = finished("journal-replay-solved", backend)
        record = _journal_records(backend)[-1]
        assert engine.status == "success"
        assert record.cost == engine.solution_cost
        assert record.ordinals[0] < engine.generated <= record.generated_total
        assert engine.partial_resumes == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_decoded_view_is_sound(case, backend):
    """Operands precede their row, each row's CS is its op applied to
    its operands' CSs, and costs add up to the row's level cost."""
    engine = finished(case, backend)
    universe, guide, cost_fn = engine.universe, engine.guide, engine.cost_fn
    provenance = engine.provenance
    cs = [_cs_at(engine, index) for index in range(len(provenance))]
    costs = []
    for index in range(len(provenance)):
        op, left, right = provenance[index]
        if op == OP_CHAR:
            assert right == -1
            assert cs[index] == universe.char_cs(universe.alphabet[left])
            costs.append(cost_fn.literal)
            continue
        assert 0 <= left < index
        if op == OP_QUESTION:
            built, cost = cs[left] | universe.eps_bit, cost_fn.question
        elif op == OP_STAR:
            built, cost = star_cs(cs[left], guide, universe), cost_fn.star
        else:
            assert 0 <= right < index
            if op == OP_CONCAT:
                built, cost = concat_cs(cs[left], cs[right], guide), cost_fn.concat
            else:
                assert op == OP_UNION
                built, cost = cs[left] | cs[right], cost_fn.union
            cost += costs[right]
        assert cs[index] == built, index
        costs.append(cost + costs[left])
    levels = engine.cache.levels
    level_of = [None] * len(costs)
    for cost in levels.costs():
        start, end = levels.bounds(cost)
        level_of[start:end] = [cost] * (end - start)
    # Rows past the complete levels belong to the level a stop, a
    # solution or a full cache cut short: the next cost.
    tail = levels.last_complete_cost + 1
    assert costs == [tail if cost is None else cost for cost in level_of]


class TestDecoder:
    @pytest.mark.parametrize("n", [2, 3, 4, 9, 64, 301])
    def test_triangle_split_is_the_i_major_order(self, n):
        pairing = ((10, 10 + n), (10, 10 + n), True)
        want = [(10 + i, 10 + j) for i in range(n) for j in range(i + 1, n)]
        assert _pair_candidates(pairing) == len(want)
        assert [_pair_at(pairing, k) for k in range(len(want))] == want

    def test_triangle_split_holds_on_a_million_row_level(self):
        n = 1_000_003
        pairing = ((5, 5 + n), (5, 5 + n), True)
        for i in (0, 1, 2, 1000, n // 2, n - 3, n - 2):
            first = i * (2 * n - 1 - i) // 2
            last = first + n - 2 - i
            assert _pair_at(pairing, first) == (5 + i, 5 + i + 1)
            assert _pair_at(pairing, last) == (5 + i, 5 + n - 1)
        assert _pair_at(pairing, _pair_candidates(pairing) - 1) == (
            5 + n - 2, 5 + n - 1
        )

    def test_rectangle_split_is_the_i_major_order(self):
        pairing = ((0, 3), (5, 9), False)
        want = [(i, j) for i in range(0, 3) for j in range(5, 9)]
        assert [_pair_at(pairing, k) for k in range(12)] == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivials_and_unknown_ordinals(self, backend):
        engine = finished("default-1-lane", backend)
        assert engine._decode(1) == (OP_EMPTY, -1, -1)
        assert engine._decode(2) == (OP_EPSILON, -1, -1)
        assert engine._decode(engine.generated) == engine.solution
        with pytest.raises(ValueError):
            engine._decode(engine.generated + 10**6)
        with pytest.raises(IndexError):
            engine.provenance[len(engine.cache)]
