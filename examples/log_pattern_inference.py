"""Inferring token patterns from a log file — an information-extraction
flavoured scenario (paper §5.1 discusses this REI application family).

A sysadmin has a pile of request identifiers.  Some belong to the
legacy service (and must be routed there), the rest to the new one.
Instead of writing the router regex by hand, we label a handful of
identifiers and let Paresy infer a minimal pattern for each class.

The alphabet here is NOT binary — Paresy handles arbitrary alphabets.

Run with::

    python examples/log_pattern_inference.py
"""

from repro import Session, Spec, SynthesisRequest
from repro.regex.derivatives import matches


LEGACY_IDS = ["ax1", "ax12", "ax121", "ax2", "ax21", "ax11"]
MODERN_IDS = ["bx1", "b1", "x2", "a1", "ab", "xa2", ""]


def main() -> None:
    spec = Spec(positive=LEGACY_IDS, negative=MODERN_IDS)
    print("alphabet inferred from examples:", "".join(spec.alphabet))

    # Both routing questions — "what is legacy?" and "what is modern?" —
    # are partitions of the same identifier set, so the session serves
    # them from one staging build, and the second search replays the
    # levels the first one built.
    session = Session()
    result, modern = session.synthesize_many([
        SynthesisRequest(spec=spec, tag="legacy"),
        SynthesisRequest(spec=Spec(MODERN_IDS, LEGACY_IDS), tag="modern"),
    ])
    assert result.found and modern.found
    print("legacy-service pattern:", result.regex_str)
    print("modern-service pattern:", modern.regex_str)
    print("cost %d, %d candidates, %.3fs (staging builds: %d)"
          % (result.cost, result.generated,
             result.elapsed_seconds, session.stats.staging_builds))

    # Deploy-time sanity check: classify unseen identifiers.
    print("\nrouting decisions for unseen identifiers:")
    for request_id in ["ax122", "ax", "bx12", "ax211", "ba1"]:
        route = "legacy" if matches(result.regex, request_id) else "modern"
        print("  %-7s -> %s" % (request_id or "ε", route))

    # The inferred pattern generalises: it is minimal w.r.t. the cost
    # function, not the overfitted union ax1+ax12+...  of the examples.
    overfit_cost = sum(2 * len(w) - 1 for w in LEGACY_IDS) + len(LEGACY_IDS) - 1
    print("\nminimal cost %d vs overfitted union cost %d"
          % (result.cost, overfit_cost))
    assert result.cost < overfit_cost


if __name__ == "__main__":
    main()
