"""White-box tests of the search engines' internal invariants."""

import pytest

from repro.core.engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_QUESTION,
    OP_STAR,
    OP_UNION,
)
from repro.core.synthesizer import make_engine
from repro.regex.cost import CostFunction
from repro.spec import Spec


@pytest.fixture(params=["scalar", "vector"])
def finished_engine(request, intro_spec):
    engine = make_engine(intro_spec, CostFunction.uniform(),
                         backend=request.param)
    engine.run(30)
    return engine


class TestCacheInvariants:
    def test_write_once_levels_are_contiguous(self, finished_engine):
        levels = finished_engine.cache.levels
        previous_end = 0
        for cost in levels.costs():
            start, end = levels.bounds(cost)
            assert start == previous_end
            assert end >= start
            previous_end = end

    def test_provenance_operands_precede_their_row(self, finished_engine):
        provenance = finished_engine.cache.provenance
        for index, (op, a, b) in enumerate(provenance):
            if op in (OP_QUESTION, OP_STAR):
                assert 0 <= a < index
            elif op in (OP_CONCAT, OP_UNION):
                assert 0 <= a < index
                assert 0 <= b < index
            elif op == OP_CHAR:
                assert 0 <= a < len(finished_engine.universe.alphabet)

    def test_all_cached_cs_unique(self, finished_engine):
        from repro.core.cache_view import _cs_at

        seen = set()
        for index in range(len(finished_engine.cache)):
            cs = _cs_at(finished_engine, index)
            assert cs not in seen
            seen.add(cs)

    def test_level_costs_match_provenance_costs(self, finished_engine):
        """Rebuilding each row's regex must yield exactly the row's
        level cost — the dynamic program's core invariant."""
        from repro.core.reconstruct import reconstruct

        cost_fn = CostFunction.uniform()
        levels = finished_engine.cache.levels
        provenance = finished_engine.cache.provenance
        for cost in levels.costs():
            start, end = levels.bounds(cost)
            for index in range(start, end):
                regex = reconstruct(provenance[index], provenance,
                                    finished_engine.universe.alphabet)
                assert cost_fn.cost(regex) == cost

    def test_cs_semantics_match_provenance(self, finished_engine):
        """Every cached CS is exactly its reconstructed regex's language
        restricted to the universe — end-to-end kernel soundness."""
        from repro.core.reconstruct import reconstruct
        from repro.core.cache_view import _cs_at

        provenance = finished_engine.cache.provenance
        universe = finished_engine.universe
        for index in range(len(finished_engine.cache)):
            regex = reconstruct(provenance[index], provenance,
                                universe.alphabet)
            assert _cs_at(finished_engine, index) == universe.cs_of_regex(regex)


class TestSolutionInvariants:
    def test_solution_is_first_at_its_level(self, finished_engine):
        """No cached CS at the solution's cost level may solve the spec
        — the solution terminated the level immediately."""
        from repro.core.cache_view import _cs_at

        cost = finished_engine.solution_cost
        # rows stored at the (unfinished) solution level sit past the
        # last complete level's end
        last = finished_engine.cache.levels.last_complete_cost
        assert last is not None and last < cost
        for index in range(len(finished_engine.cache)):
            assert not finished_engine.solves_int(_cs_at(finished_engine, index))

    def test_level_stats_sum_to_generated(self, finished_engine):
        seeded = len(finished_engine.universe.alphabet) + 2  # + ∅, ε
        total = seeded + sum(
            s["generated"] for s in finished_engine.level_stats
        )
        assert total == finished_engine.generated


class TestConstructorOrderWithinLevel:
    def test_questions_precede_stars_precede_concats_precede_unions(self):
        """Algorithm 1 line 12: ``questions ++ stars ++ concats ++
        unions`` — opcode runs within a level must be ordered."""
        order = {OP_QUESTION: 0, OP_STAR: 1, OP_CONCAT: 2, OP_UNION: 3}
        spec = Spec(["10", "101", "100"], ["", "0", "1", "11"])
        engine = make_engine(spec, CostFunction.uniform(), backend="scalar")
        engine.run(30)
        levels = engine.cache.levels
        for cost in levels.costs():
            start, end = levels.bounds(cost)
            ops = [engine.cache.provenance[i][0] for i in range(start, end)]
            ops = [op for op in ops if op in order]
            ranks = [order[op] for op in ops]
            assert ranks == sorted(ranks), "cost level %d" % cost
