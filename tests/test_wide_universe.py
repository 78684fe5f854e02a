"""Multi-lane coverage: universes wider than 64 bits.

The paper's Table 2 notes that tasks no6/no9 need 128/256-bit CSs, which
the WarpCore build could not handle.  This reproduction supports
arbitrary widths: the scalar engine through Python ints, the vectorised
engine through multiple uint64 lanes.  These tests pin that down.
"""

import pytest

from _fixtures import WIDE_SPEC
from repro import Spec, synthesize
from repro.core.bitops import lanes_to_int
from repro.core.synthesizer import make_engine
from repro.language.universe import Universe
from repro.regex.cost import CostFunction


@pytest.fixture(scope="module")
def wide_universe():
    return Universe(WIDE_SPEC.all_words)


class TestWideUniverse:
    def test_universe_needs_multiple_lanes(self, wide_universe):
        assert wide_universe.n_words > 64
        assert wide_universe.lanes >= 2
        assert wide_universe.padded_bits in (128, 256)

    def test_engines_agree_on_wide_universe(self):
        cost_fn = CostFunction.uniform()
        scalar = make_engine(WIDE_SPEC, cost_fn, backend="scalar",
                             max_generated=30_000)
        vector = make_engine(WIDE_SPEC, cost_fn, backend="vector",
                             max_generated=30_000)
        scalar.run(40)
        vector.run(40)
        assert scalar.status == vector.status
        assert scalar.generated == vector.generated
        unpacked = [
            lanes_to_int(vector.cache.matrix[i])
            for i in range(len(vector.cache))
        ]
        assert scalar.cache.cs_list == unpacked

    def test_synthesis_succeeds_beyond_64_bits(self):
        # An easy target over a wide universe: "contains 00"-ish spec
        # whose solution is found quickly despite 2-lane CSs.
        spec = Spec(
            positive=["0110100101", "1010010110", "01"],
            negative=["", "0", "1", "11", "10", "0011001100"],
        )
        for backend in ("scalar", "vector"):
            result = synthesize(spec, backend=backend,
                                max_generated=300_000)
            assert result.found, backend
            assert spec.is_satisfied_by(result.regex)
            assert result.padded_bits >= 128

    def test_wide_masks_roundtrip(self, wide_universe):
        from repro.core.bitops import int_to_lanes

        cs = wide_universe.cs_of_predicate(lambda w: len(w) % 2 == 0)
        assert cs >> 64 != 0  # genuinely uses high lanes
        assert lanes_to_int(int_to_lanes(cs, wide_universe.lanes)) == cs
