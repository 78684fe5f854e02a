"""Language-cache introspection tests."""

import pytest

from repro.core.synthesizer import make_engine
from repro.core.cache_view import cache_rows, level_growth_table, render_cache
from repro.regex.cost import CostFunction
from repro.regex.derivatives import matches
from repro.regex.parser import parse
from repro.spec import Spec


@pytest.fixture(params=["scalar", "vector"])
def engine(request, example36_spec):
    engine = make_engine(example36_spec, CostFunction.uniform(),
                         backend=request.param)
    engine.run(20)
    return engine


class TestCacheRows:
    def test_annotated_regex_denotes_row_language(self, engine):
        """The paper's figure property: each row's annotation accepts
        exactly the row's language, restricted to the universe."""
        for row in cache_rows(engine, limit=60):
            regex = parse(row["regex"])
            expected = set(row["words"])
            actual = {
                w for w in engine.universe.words if matches(regex, w)
            }
            assert actual == expected, row["regex"]

    def test_annotation_cost_matches_level(self, engine):
        cost_fn = CostFunction.uniform()
        for row in cache_rows(engine, limit=60):
            assert cost_fn.cost(parse(row["regex"])) == row["cost"]

    def test_costs_non_decreasing(self, engine):
        costs = [row["cost"] for row in cache_rows(engine)]
        assert costs == sorted(costs)

    def test_limit(self, engine):
        assert len(cache_rows(engine, limit=3)) == 3


class TestRenderCache:
    def test_render_contains_universe_and_rows(self, engine):
        text = render_cache(engine, limit=10)
        assert "universe (shortlex)" in text
        assert "ε" in text
        assert "cost" in text
        assert "more rows" in text

    def test_bit_columns_width(self, engine):
        text = render_cache(engine, limit=5)
        data_lines = [l for l in text.splitlines()[2:] if l and "more" not in l]
        for line in data_lines:
            bits = line.split()[0]
            assert len(bits) == engine.universe.n_words


class TestLevelGrowth:
    def test_growth_table_consistency(self, engine):
        table = level_growth_table(engine)
        assert table, "at least one level was built"
        for entry in table:
            assert entry["generated"] >= entry["stored"]
            assert entry["duplicates"] == entry["generated"] - entry["stored"]
            assert 0.0 <= entry["keep_ratio"] <= 1.0

    def test_duplicates_appear_quickly(self):
        """Uniqueness checking must be doing real work by mid-search."""
        spec = Spec(["10", "101", "100"], ["", "0", "1", "11"])
        engine = make_engine(spec, CostFunction.uniform(), backend="vector")
        engine.run(20)
        total_dupes = sum(
            e["duplicates"] for e in level_growth_table(engine)
        )
        assert total_dupes > 0
