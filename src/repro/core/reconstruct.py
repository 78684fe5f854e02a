"""Recovering a regular expression from a synthesised CS (§3).

Every cached CS has a provenance triple ``(op, left, right)`` — the
outermost regular constructor and the global cache indices of its
operand CSs — which the engine decodes from the row's generation
ordinal when it is read (:attr:`repro.core.engine.SearchEngine.provenance`),
so a reconstruction decodes only the rows it visits, each once.  Because the cache
is write-once and filled in increasing cost order, operand indices are
always strictly smaller than the index of the CS they build, so a
solution can be rebuilt bottom-up without recursion.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..regex.ast import (
    Char,
    Concat,
    EMPTY,
    EPSILON,
    Question,
    Regex,
    Star,
    Union,
)
from .engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_EMPTY,
    OP_EPSILON,
    OP_QUESTION,
    OP_STAR,
    OP_UNION,
)

_UNARY = (OP_QUESTION, OP_STAR)
_BINARY = (OP_CONCAT, OP_UNION)


def reconstruct(
    solution: Tuple[int, int, int],
    provenance: Sequence[Tuple[int, int, int]],
    alphabet: Sequence[str],
) -> Regex:
    """Rebuild the regular expression of a solution provenance triple.

    ``solution`` is the triple recorded for the winning candidate (which
    itself is typically *not* in the cache — the search stops before
    storing it); its operand indices refer into ``provenance``, the
    row-indexable per-cache-row triples.
    """
    triples: dict = {}
    stack: List[int] = [
        index for index in _operand_indices(solution) if index >= 0
    ]
    while stack:
        index = stack.pop()
        if index in triples:
            continue
        triple = triples[index] = provenance[index]
        stack.extend(child for child in _operand_indices(triple) if child >= 0)
    built: dict = {}
    for index in sorted(triples):
        built[index] = _build_node(triples[index], built, alphabet)
    return _build_node(solution, built, alphabet)


def _operand_indices(triple: Tuple[int, int, int]) -> Tuple[int, ...]:
    op, left, right = triple
    if op in _UNARY:
        return (left,)
    if op in _BINARY:
        return (left, right)
    return ()


def _build_node(
    triple: Tuple[int, int, int], built: dict, alphabet: Sequence[str]
) -> Regex:
    op, left, right = triple
    if op == OP_EMPTY:
        return EMPTY
    if op == OP_EPSILON:
        return EPSILON
    if op == OP_CHAR:
        return Char(alphabet[left])
    if op == OP_QUESTION:
        return Question(built[left])
    if op == OP_STAR:
        return Star(built[left])
    if op == OP_CONCAT:
        return Concat(built[left], built[right])
    if op == OP_UNION:
        return Union(built[left], built[right])
    raise ValueError("unknown provenance opcode %r" % (op,))
