"""Shared hypothesis strategies for the test-suite.

Imported explicitly (``from _fixtures import ...``) rather than from
``conftest`` — ``conftest.py`` modules are loaded by pytest under the
bare module name ``conftest``, so importing strategies from them
collides with ``benchmarks/conftest.py`` when collecting from the repo
root.  pytest fixtures stay in ``tests/conftest.py``; plain helpers
live here.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.regex.ast import (
    Char,
    Concat,
    EMPTY,
    EPSILON,
    Question,
    Star,
    Union,
)
from repro.spec import Spec


#: Two long heterogeneous strings: ic(P ∪ N) has 73 words, so a CS
#: spans two uint64 lanes.  The infixes of the three 10-character words
#: are the universe; ``""``, ``"0"`` and ``"1"`` sit in lane 0 and the
#: 10-character words in lane 1.
WIDE_SPEC = Spec(
    positive=["0110100101", "1010010110"],
    negative=["", "0", "1", "0011001100"],
)

#: Small but non-trivial: five full cost levels before the solution, at
#: candidate 209 in cost level 6.  Level 6 starts at candidate 140 and
#: stores its first row at candidate 152.
SPEC = Spec(positive=["00", "010", "0110"], negative=["", "11", "101"])

#: A candidate budget inside SPEC's cost level 6, past its first row.
BUDGET = 170

#: SPEC with "0110" moved to the negatives: the same universe, solved at
#: candidate 216, so it too stops at BUDGET.
RELABELLED = Spec(positive=["00", "010"], negative=["", "11", "101", "0110"])


def regexes(alphabet: str = "01", max_leaves: int = 6):
    """Hypothesis strategy for hole-free regular expressions."""
    leaves = st.one_of(
        st.sampled_from([EMPTY, EPSILON]),
        st.sampled_from([Char(ch) for ch in alphabet]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Star, inner),
            st.builds(Question, inner),
            st.builds(Concat, inner, inner),
            st.builds(Union, inner, inner),
        ),
        max_leaves=max_leaves,
    )


def words(alphabet: str = "01", max_size: int = 6):
    """Hypothesis strategy for words over ``alphabet``."""
    return st.text(alphabet=alphabet, max_size=max_size)


def small_specs(alphabet: str = "01", max_len: int = 4, max_each: int = 5):
    """Hypothesis strategy for small valid specifications."""

    def build(pos, neg):
        neg = [w for w in neg if w not in set(pos)]
        return Spec(pos, neg, alphabet=tuple(alphabet))

    word = words(alphabet, max_len)
    return st.builds(
        build,
        st.lists(word, min_size=1, max_size=max_each),
        st.lists(word, min_size=0, max_size=max_each),
    )
