"""Visualising the language cache — the paper's §3 figure, live.

Runs Paresy on the paper's Example 3.6 specification and prints the
language cache exactly in the style of the paper's illustration: one
bitvector row per unique language, annotated with a minimal regular
expression and its cost level, over the 15-word universe

    ε, 0, 1, 00, 01, 10, 11, 001, 011, 101, 110, 0011, 1011, 1101, 11011

Run with::

    python examples/cache_visualization.py
"""

from repro import CostFunction, Spec
from repro.core.synthesizer import make_engine
from repro.core.cache_view import level_growth_table, render_cache


def main() -> None:
    spec = Spec(
        positive=["1", "011", "1011", "11011"],
        negative=["", "10", "101", "0011"],
    )
    engine = make_engine(spec, CostFunction.uniform(), backend="vector")
    status = engine.run(20)
    print("status:", status)
    print()
    print(render_cache(engine, limit=30))
    print()
    print("level growth (the exponential blow-up of §3):")
    print("%6s %10s %8s %11s %10s" % ("cost", "generated", "stored",
                                      "duplicates", "keep ratio"))
    for entry in level_growth_table(engine):
        print("%6d %10d %8d %11d %9.0f%%"
              % (entry["cost"], entry["generated"], entry["stored"],
                 entry["duplicates"], 100 * entry["keep_ratio"]))


if __name__ == "__main__":
    main()
