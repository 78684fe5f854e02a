"""Evaluation-harness tests (small, fast configurations)."""

from repro.eval.harness import (
    run_suite,
    staging_for,
    time_alpharegex,
    time_paresy,
)
from repro.regex.cost import ALPHAREGEX_COST, CostFunction
from repro.service import WorkerPool


class TestTimeParesy:
    def test_record_fields(self, tiny_spec):
        record = time_paresy("t", tiny_spec, CostFunction.uniform(), "vector")
        assert record.system == "paresy-vector"
        assert record.status == "success"
        assert record.regex == "00?"
        assert record.generated > 0
        assert record.elapsed_seconds > 0

    def test_repeats_average(self, tiny_spec):
        record = time_paresy("t", tiny_spec, CostFunction.uniform(),
                             "scalar", repeats=3)
        assert record.repeats == 3

    def test_staging_reuse(self, intro_spec):
        staging = staging_for(intro_spec)
        a = time_paresy("a", intro_spec, CostFunction.uniform(), "vector",
                        staging=staging)
        b = time_paresy("b", intro_spec,
                        CostFunction.from_tuple((1, 1, 10, 1, 1)), "vector",
                        staging=staging)
        assert a.status == b.status == "success"

    def test_budget_surfaces_in_status(self, intro_spec):
        record = time_paresy("t", intro_spec, CostFunction.uniform(),
                             "vector", max_generated=5)
        assert record.status == "budget"


class TestRunSuite:
    def test_solo_suite_records(self, tiny_spec, intro_spec):
        records = run_suite([("tiny", tiny_spec), ("intro", intro_spec)])
        assert [r.name for r in records] == ["tiny", "intro"]
        assert all(r.system == "paresy-vector" for r in records)
        assert all(r.status == "success" for r in records)

    def test_pooled_suite_is_bit_identical_to_solo(self, tiny_spec,
                                                   intro_spec):
        named = [("tiny", tiny_spec), ("intro", intro_spec)]
        solo = run_suite(named)
        with WorkerPool(workers=2) as pool:
            pooled = run_suite(named, pool=pool)
        assert [(r.name, r.status, r.regex, r.cost) for r in solo] == [
            (r.name, r.status, r.regex, r.cost) for r in pooled
        ]
        assert all(r.system == "paresy-vector-pool2" for r in pooled)


class TestTimeAlphaRegex:
    def test_record_fields(self, tiny_spec):
        record = time_alpharegex("t", tiny_spec)
        assert record.system == "alpharegex"
        assert record.status == "success"
        assert record.cost_function == ALPHAREGEX_COST.as_tuple()
        assert "expanded" in record.extra

    def test_budget(self, intro_spec):
        record = time_alpharegex("t", intro_spec, max_expanded=3)
        assert record.status == "budget"
