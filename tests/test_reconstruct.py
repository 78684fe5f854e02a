"""Provenance-reconstruction tests."""

import pytest

from repro.core.engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_EMPTY,
    OP_EPSILON,
    OP_QUESTION,
    OP_STAR,
    OP_UNION,
)
from repro.core.reconstruct import reconstruct
from repro.regex.ast import EMPTY, EPSILON
from repro.regex.printer import to_string


ALPHABET = ("0", "1")


class TestLeaves:
    def test_empty(self):
        assert reconstruct((OP_EMPTY, -1, -1), [], ALPHABET) == EMPTY

    def test_epsilon(self):
        assert reconstruct((OP_EPSILON, -1, -1), [], ALPHABET) == EPSILON

    def test_char(self):
        regex = reconstruct((OP_CHAR, 1, -1), [], ALPHABET)
        assert to_string(regex) == "1"

    def test_unknown_opcode(self):
        with pytest.raises(ValueError):
            reconstruct((99, 0, 0), [], ALPHABET)


class TestComposite:
    def test_shared_subterms(self):
        # cache: [0] = '0', [1] = '1', [2] = 0·1, [3] = (0·1)*
        provenance = [
            (OP_CHAR, 0, -1),
            (OP_CHAR, 1, -1),
            (OP_CONCAT, 0, 1),
            (OP_STAR, 2, -1),
        ]
        # solution: (0·1)* + 0·1  — both operands share the cache.
        regex = reconstruct((OP_UNION, 3, 2), provenance, ALPHABET)
        assert to_string(regex) == "(01)*+01"

    def test_question(self):
        provenance = [(OP_CHAR, 0, -1)]
        regex = reconstruct((OP_QUESTION, 0, -1), provenance, ALPHABET)
        assert to_string(regex) == "0?"

    def test_deep_chain(self):
        # a left-leaning concat chain of 40 characters
        provenance = [(OP_CHAR, 0, -1)]
        for i in range(40):
            provenance.append((OP_CONCAT, len(provenance) - 1, 0))
        regex = reconstruct((OP_STAR, len(provenance) - 1, -1),
                            provenance, ALPHABET)
        assert to_string(regex) == "(" + "0" * 41 + ")*"

    def test_paper_intro_provenance_shape(self, intro_spec):
        """End-to-end: the engine's own provenance reconstructs to the
        solution it reports."""
        from repro.core.synthesizer import make_engine
        from repro.regex.cost import CostFunction

        engine = make_engine(intro_spec, CostFunction.uniform(),
                             backend="scalar")
        assert engine.run(20) == "success"
        regex = reconstruct(engine.solution, engine.cache.provenance,
                            engine.universe.alphabet)
        assert to_string(regex) == "10(0+1)*"


class TestFoundAnswers:
    def test_vector_answers_never_materialise_the_row_wise_provenance(
        self, monkeypatch
    ):
        # A found answer reads its few dozen ancestors only, so neither
        # a solo nor a batched vector answer may build one tuple per
        # cached row.
        from repro import EngineConfig, Session, Spec
        from repro.core.cache import PackedCache

        specs = [
            Spec(positive=["00", "010", "0110"], negative=["", "11", "101"]),
            Spec(positive=["00", "101"], negative=["", "11", "010", "0110"]),
        ]
        scalar = Session(EngineConfig(backend="scalar"))
        want = [scalar.synthesize(spec) for spec in specs]
        assert [result.status for result in want] == ["success"] * 2

        def materialised(cache):
            raise AssertionError("the whole provenance was materialised")

        monkeypatch.setattr(PackedCache, "provenance", property(materialised))
        session = Session(EngineConfig(backend="vector"))
        got = [session.synthesize(specs[0])] + session.synthesize_many(specs)
        assert session.stats.batch_groups == 1
        for result, reference in zip(got, want[:1] + want):
            assert (result.regex, result.cost) == (
                reference.regex, reference.cost
            )
