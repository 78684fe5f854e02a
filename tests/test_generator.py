"""Type 1 / Type 2 benchmark-generator tests (§4.3)."""

import random

import pytest

from repro.errors import InvalidSpecError
from repro.suites.generator import (
    PAPER_TYPE1_PARAMS,
    PAPER_TYPE2_PARAMS,
    SCALED_TYPE1_PARAMS,
    SCALED_TYPE2_PARAMS,
    _count_strings,
    _decode_string,
    generate_suite,
    generate_type1,
    generate_type2,
)


class TestDecoding:
    def test_shortlex_enumeration(self):
        words = [_decode_string(i, "01") for i in range(7)]
        assert words == ["", "0", "1", "00", "01", "10", "11"]

    def test_count_strings(self):
        assert _count_strings(2, 0) == 1
        assert _count_strings(2, 3) == 1 + 2 + 4 + 8

    def test_decode_covers_all_lengths(self):
        total = _count_strings(2, 3)
        words = {_decode_string(i, "01") for i in range(total)}
        assert len(words) == total
        assert max(len(w) for w in words) == 3


class TestType1:
    def test_deterministic(self):
        assert generate_type1(7) == generate_type1(7)

    def test_different_seeds_differ(self):
        assert generate_type1(1) != generate_type1(2)

    def test_counts_and_bounds(self):
        spec = generate_type1(3, le=4, n_pos=5, n_neg=6)
        assert len(spec.positive) == 5
        assert len(spec.negative) == 6
        assert all(len(w) <= 4 for w in spec.all_words)

    def test_disjoint(self):
        spec = generate_type1(11, le=3, n_pos=6, n_neg=6)
        assert not set(spec.positive) & set(spec.negative)

    def test_infeasible_counts_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_type1(0, le=1, n_pos=2, n_neg=2)  # only 3 strings exist

    def test_long_string_bias(self):
        # Type 1 favours long strings: with le=6 most samples have
        # length ≥ 5 (those are 96 of 127 strings).
        spec = generate_type1(5, le=6, n_pos=10, n_neg=10)
        long_share = sum(1 for w in spec.all_words if len(w) >= 5) / 20
        assert long_share > 0.5


class TestType2:
    def test_deterministic(self):
        assert generate_type2(7) == generate_type2(7)

    def test_counts(self):
        spec = generate_type2(3, le=4, n_pos=5, n_neg=6)
        assert len(spec.positive) == 5
        assert len(spec.negative) == 6

    def test_short_string_bias_relative_to_type1(self):
        # Type 2 gives each length equal probability, so short strings
        # appear far more often than under Type 1.
        short_t2 = short_t1 = 0
        for seed in range(20):
            t2 = generate_type2(seed, le=6, n_pos=8, n_neg=8)
            t1 = generate_type1(seed, le=6, n_pos=8, n_neg=8)
            short_t2 += sum(1 for w in t2.all_words if len(w) <= 2)
            short_t1 += sum(1 for w in t1.all_words if len(w) <= 2)
        assert short_t2 > short_t1

    def test_epsilon_often_present(self):
        # The paper: "short strings, like ε, are likely to be in most
        # Type 2 specifications".
        hits = sum(
            1
            for seed in range(20)
            if "" in generate_type2(seed, le=5, n_pos=8, n_neg=8).all_words
        )
        assert hits >= 10


class TestSuite:
    def test_names_and_types(self):
        suite = generate_suite(1, 5, SCALED_TYPE1_PARAMS, base_seed=3)
        assert [b.name for b in suite] == [
            "T1-000", "T1-001", "T1-002", "T1-003", "T1-004"
        ]
        assert all(b.benchmark_type == 1 for b in suite)

    def test_parameters_within_ranges(self):
        suite = generate_suite(2, 10, SCALED_TYPE2_PARAMS, base_seed=1)
        lo, hi = SCALED_TYPE2_PARAMS.le_range
        assert all(lo <= b.le <= hi for b in suite)

    def test_deterministic(self):
        a = generate_suite(1, 4, SCALED_TYPE1_PARAMS, base_seed=9)
        b = generate_suite(1, 4, SCALED_TYPE1_PARAMS, base_seed=9)
        assert [x.spec for x in a] == [x.spec for x in b]

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            generate_suite(3, 1)

    def test_paper_params_exist(self):
        assert PAPER_TYPE1_PARAMS.le_range == (0, 7)
        assert PAPER_TYPE1_PARAMS.p_range == (8, 12)

    @pytest.mark.parametrize("benchmark_type, params", [
        (1, PAPER_TYPE1_PARAMS),
        (2, PAPER_TYPE2_PARAMS),
    ])
    def test_every_paper_range_draw_terminates(self, benchmark_type, params):
        # Draw 17 of the Type 1 suite has le = 0 (only the empty word
        # exists); its count clamp used to loop forever.
        suite = generate_suite(benchmark_type, 40, params)
        assert any(b.le == 0 for b in suite)
        rng = random.Random("suite|%d|0" % benchmark_type)
        for bench in suite:
            le = rng.randint(*params.le_range)
            n_pos = rng.randint(*params.p_range)
            n_neg = rng.randint(*params.n_range)
            assert bench.le == le
            capacity = _count_strings(len(params.alphabet), le)
            assert 1 <= bench.n_pos and bench.n_pos + bench.n_neg <= capacity
            if le >= 1:
                # Unchanged: both counts keep their floor of one.
                while n_pos + n_neg > capacity:
                    n_pos, n_neg = max(1, n_pos - 1), max(1, n_neg - 1)
                assert (bench.n_pos, bench.n_neg) == (n_pos, n_neg)
            else:
                assert (bench.spec.positive, bench.spec.negative) == (("",), ())
