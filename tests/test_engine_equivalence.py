"""Scalar ↔ vector engine equivalence.

The two engines implement the paper's CPU and GPU algorithms; they must
agree on everything observable: the regex found, its cost, the number of
candidates generated ("# REs"), and the entire language cache content in
order.  This is the strongest internal consistency check the
reproduction has, and it is exercised both on fixed paper examples and
on random specifications.
"""

from hypothesis import given, settings

from _fixtures import small_specs
from repro.core.bitops import lanes_to_int
from repro.core.synthesizer import make_engine
from repro.regex.cost import CostFunction
from repro.spec import Spec


def run_both(spec, cost_fn=None, max_cost=30, **kw):
    cost_fn = cost_fn or CostFunction.uniform()
    scalar = make_engine(spec, cost_fn, backend="scalar", **kw)
    vector = make_engine(spec, cost_fn, backend="vector", **kw)
    scalar.run(max_cost)
    vector.run(max_cost)
    return scalar, vector


def assert_equivalent(scalar, vector):
    assert scalar.status == vector.status
    assert scalar.generated == vector.generated
    assert scalar.solution == vector.solution
    assert scalar.solution_cost == vector.solution_cost
    assert len(scalar.cache) == len(vector.cache)
    unpacked = [
        lanes_to_int(vector.cache.matrix[i]) for i in range(len(vector.cache))
    ]
    assert scalar.cache.cs_list == unpacked
    assert scalar.cache.ordinals == vector.cache.ordinals.tolist()
    assert list(scalar.provenance) == list(vector.provenance)
    assert scalar.cache.levels.costs() == vector.cache.levels.costs()


class TestFixedExamples:
    def test_intro_example(self, intro_spec):
        assert_equivalent(*run_both(intro_spec))

    def test_example36(self, example36_spec):
        assert_equivalent(*run_both(example36_spec))

    def test_nonuniform_cost(self, intro_spec):
        cost_fn = CostFunction.from_tuple((1, 1, 10, 1, 1))
        assert_equivalent(*run_both(intro_spec, cost_fn, max_cost=40))

    def test_not_found_status(self):
        spec = Spec(["0101"], ["01"])
        scalar, vector = run_both(spec, max_cost=3)
        assert scalar.status == vector.status == "not_found"
        assert_equivalent(scalar, vector)

    def test_with_cache_capacity(self, intro_spec):
        scalar, vector = run_both(intro_spec, max_cache_size=50)
        assert_equivalent(scalar, vector)

    def test_error_tolerant(self, intro_spec):
        scalar, vector = run_both(intro_spec, allowed_error=0.3)
        assert_equivalent(scalar, vector)

    def test_ternary_alphabet(self):
        spec = Spec(["ab", "abc", "abcc"], ["", "a", "ba", "cab"])
        assert_equivalent(*run_both(spec))


class TestRandomSpecs:
    @given(small_specs(max_len=3, max_each=4))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_on_random_specs(self, spec):
        assert_equivalent(*run_both(spec, max_cost=12))

    @given(small_specs(max_len=3, max_each=3))
    @settings(max_examples=12, deadline=None)
    def test_equivalence_under_nonuniform_costs(self, spec):
        cost_fn = CostFunction.from_tuple((2, 1, 3, 2, 4))
        assert_equivalent(*run_both(spec, cost_fn, max_cost=26))

    @given(small_specs(max_len=3, max_each=3))
    @settings(max_examples=12, deadline=None)
    def test_equivalence_with_tiny_cache(self, spec):
        assert_equivalent(*run_both(spec, max_cost=12, max_cache_size=25))

    @given(small_specs(max_len=4, max_each=5))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_without_uniqueness_checks(self, spec):
        # Without dedupe the cache keeps every candidate, so a budget
        # bounds the run (and covers its truncation).
        assert_equivalent(*run_both(
            spec, max_cost=10, check_uniqueness=False, max_generated=2000
        ))

    @given(small_specs(max_len=4, max_each=6))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_error_tolerant_with_tiny_cache(self, spec):
        assert_equivalent(*run_both(
            spec, max_cost=12, allowed_error=0.2, max_cache_size=10
        ))
