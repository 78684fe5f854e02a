"""Language-cache introspection and rendering.

The paper (§3, "Matrix representation: language cache") illustrates the
cache as a bit-matrix whose rows are annotated with a regular expression
accepting the row's language and with the row's cost level.  This module
renders exactly that picture from a finished engine — useful for
teaching, debugging, and the ``examples/cache_visualization.py`` demo.
"""

from __future__ import annotations

from typing import List, Optional

from ..regex.printer import to_string
from .engine import SearchEngine
from .reconstruct import reconstruct


def cache_rows(engine: SearchEngine, limit: Optional[int] = None) -> List[dict]:
    """Structured view of the language cache.

    One dict per cached CS: ``index``, ``cost``, ``bits`` (the CS as an
    int), ``words`` (the language restricted to the universe) and
    ``regex`` (a minimal-cost expression reconstructed from provenance).
    """
    rows: List[dict] = []
    provenance = engine.provenance
    alphabet = engine.universe.alphabet
    cost_of_index = {}
    for cost in engine.cache.levels.costs():
        start, end = engine.cache.levels.bounds(cost)
        for index in range(start, end):
            cost_of_index[index] = cost
    # Rows past the last *complete* level belong to the level after it,
    # which a stop, a solution or a full cache (OnTheFly mode) cut short.
    last = engine.cache.levels.last_complete_cost
    tail_cost = engine.cost_fn.literal if last is None else last + 1
    total = len(engine.cache)
    count = total if limit is None else min(limit, total)
    for index in range(count):
        cs = _cs_at(engine, index)
        regex = reconstruct(provenance[index], provenance, alphabet)
        rows.append(
            {
                "index": index,
                "cost": cost_of_index.get(index, tail_cost),
                "bits": cs,
                "words": engine.universe.words_of(cs),
                "regex": to_string(regex),
            }
        )
    return rows


def render_cache(
    engine: SearchEngine,
    limit: Optional[int] = 40,
    filled: str = "#",
    empty: str = ".",
) -> str:
    """ASCII rendering of the cache in the paper's figure style.

    Each line shows the CS bits (most significant word rightmost, i.e.
    column ``i`` is the ``i``-th universe word in shortlex order), the
    annotated regular expression, and the cost level.
    """
    universe = engine.universe
    lines = [
        "universe (shortlex): %s"
        % ", ".join(w if w else "ε" for w in universe.words),
        "",
    ]
    for row in cache_rows(engine, limit=limit):
        bits = "".join(
            filled if (row["bits"] >> i) & 1 else empty
            for i in range(universe.n_words)
        )
        lines.append(
            "%s  %-24s cost %s" % (bits, row["regex"], row["cost"])
        )
    total = len(engine.cache)
    if limit is not None and total > limit:
        lines.append("... (%d more rows)" % (total - limit))
    return "\n".join(lines)


def level_growth_table(engine: SearchEngine) -> List[dict]:
    """Per-cost-level growth data (generated vs stored vs dedup ratio).

    This quantifies the exponential blow-up the paper identifies as the
    scalability limit, and the effectiveness of uniqueness checking.
    """
    table: List[dict] = []
    for stats in engine.level_stats:
        generated = stats["generated"]
        stored = stats["stored"]
        table.append(
            {
                "cost": stats["cost"],
                "generated": generated,
                "stored": stored,
                "duplicates": generated - stored,
                "keep_ratio": (stored / generated) if generated else 0.0,
                "otf": stats["otf"],
            }
        )
    return table


def _cs_at(engine: SearchEngine, index: int) -> int:
    cache = engine.cache
    if hasattr(cache, "cs_list"):
        return cache.cs_list[index]
    from .bitops import lanes_to_int

    return lanes_to_int(cache.row(index))
