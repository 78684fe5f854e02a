"""Error-tolerant inference on noisily-labelled examples (paper §5.2).

Labels in the wild are noisy: a fraction of the examples may be
mislabelled.  Precise REI then overfits to the noise; ``allowed_error``
trades precision for a (much) smaller expression and a (much) smaller
search.  This script reruns the paper's own §5.2 experiment — the exact
specification from the conclusion — and prints the error/size/search
trade-off curve.

Run with::

    python examples/error_tolerant.py
"""

from repro import Session, Spec, SynthesisRequest


# The specification from the paper's §5.2 (= Table 1 row "Type 1, No 50").
SPEC = Spec(
    positive=["00", "1101", "0001", "0111", "001", "1", "10", "1100",
              "111", "1010"],
    negative=["", "0", "0000", "0011", "01", "010", "011", "100", "1000",
              "1001", "11", "1110"],
)


def main() -> None:
    print("specification:", SPEC)
    print()
    # Every error level shares the same strings AND the same cost
    # function, so `synthesize_many` pays one staging build, and each
    # search replays the levels the earlier ones built instead of
    # enumerating them again.  Every row equals a solo synthesize(),
    # and "# REs" is each run's own candidate count, as in the paper's
    # §5.2 table.
    session = Session()
    percents = (50, 45, 40, 35, 30, 25, 20)
    results = session.synthesize_many(
        [SynthesisRequest(spec=SPEC, allowed_error=p / 100.0)
         for p in percents]
    )
    print("%-13s %-10s %-22s %8s %9s"
          % ("allowed error", "errors", "regex", "cost", "# REs"))
    for percent, result in zip(percents, results):
        assert result.found
        print("%-13s %-10d %-22s %8d %9d"
              % ("%d %%" % percent, result.errors(), result.regex_str,
                 result.cost, result.generated))
    print()
    print("one batch served %d error levels (%.3f s)"
          % (len(percents), sum(r.elapsed_seconds for r in results)))
    print()
    print("The paper's table shows the same regexes at the same error")
    print("levels, with the search cost dropping roughly exponentially;")
    print("at 0 %% error this specification needs 2.7e10 candidates on an")
    print("A100 — out of reach of a pure-Python engine, see EXPERIMENTS.md.")


if __name__ == "__main__":
    main()
