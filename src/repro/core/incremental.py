"""Incremental REI — the paper's explicitly-flagged future work.

§5.1 of the paper: "FlashFill is used as an incremental synthesis tool
... Paresy is currently not incremental.  We leave the question of
incrementalising our algorithm as important future work."

This module provides the natural first incrementalisation, exploiting
two observations:

1. **Solution reuse is sound.**  Adding an example only shrinks the
   feasible set.  If the current minimal regex already classifies the
   new example correctly it remains feasible, and since the optimum of
   a subset cannot be cheaper than the optimum of its superset, it
   remains *minimal* — no search at all is needed.
2. **Staging reuse.**  The universe ``ic(P ∪ N)`` and the guide table
   only depend on the example *strings*.  If every infix of a new
   example is already a universe word, both staged structures are
   reused verbatim and only the fast search phase re-runs; otherwise
   they are rebuilt (the paper's staging split makes exactly this the
   expensive/cheap boundary).

Example::

    inc = IncrementalSynthesizer(Spec(["10"], ["0"]))
    inc.result.regex_str          # current minimal regex
    inc.add_positive("100")       # cheap or free, see stats
    inc.stats.searches_skipped
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import CostFunction
from ..regex.derivatives import matches
from ..spec import Spec
from .result import SynthesisResult


@dataclass
class IncrementalStats:
    """Bookkeeping of how much work incrementality saved."""

    searches_run: int = 0
    searches_skipped: int = 0
    staging_reuses: int = 0
    staging_rebuilds: int = 0


class IncrementalSynthesizer:
    """A specification that can grow, with cached staging and solution.

    Serving goes through a :class:`~repro.api.session.Session` (pass
    your own to share its staging cache with other request streams);
    the incremental-specific *superset* staging reuse — the universe may
    cover more than the current spec's infixes after removals and
    skipped searches — stays here, handed to the session as explicit
    ``universe``/``guide`` overrides.
    """

    def __init__(
        self,
        spec: Spec,
        cost_fn: Optional[CostFunction] = None,
        backend: str = "vector",
        session=None,
        **synth_kwargs,
    ) -> None:
        from ..api.config import EngineConfig, SynthesisRequest
        from ..api.session import Session

        self.cost_fn = cost_fn if cost_fn is not None else CostFunction.uniform()
        self.backend = backend
        config = EngineConfig(
            backend=backend,
            max_cache_size=synth_kwargs.pop("max_cache_size", None),
            use_guide_table=synth_kwargs.pop("use_guide_table", True),
            check_uniqueness=synth_kwargs.pop("check_uniqueness", True),
            max_generated=synth_kwargs.pop("max_generated", None),
        )
        self._request_template = SynthesisRequest(
            spec=spec,
            cost_fn=self.cost_fn,
            max_cost=synth_kwargs.pop("max_cost", None),
            allowed_error=synth_kwargs.pop("allowed_error", 0.0),
            config=config,
        )
        if synth_kwargs:
            raise TypeError(
                "unknown synthesis options: %s" % sorted(synth_kwargs)
            )
        self.session = session if session is not None else Session(config)
        self.stats = IncrementalStats()
        self._spec = spec
        self._universe: Optional[Universe] = None
        self._guide: Optional[GuideTable] = None
        self._result: Optional[SynthesisResult] = None
        self._refresh_staging()
        self._search()

    # ------------------------------------------------------------------
    @property
    def spec(self) -> Spec:
        """The current specification."""
        return self._spec

    @property
    def result(self) -> SynthesisResult:
        """The current synthesis result (kept in sync with the spec)."""
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------------
    def add_positive(self, word: str) -> SynthesisResult:
        """Add a positive example and return the refreshed result."""
        return self._add(word, positive=True)

    def add_negative(self, word: str) -> SynthesisResult:
        """Add a negative example and return the refreshed result."""
        return self._add(word, positive=False)

    def remove_example(self, word: str) -> SynthesisResult:
        """Remove an example (from whichever class holds it).

        Relaxing a specification can lower the optimum, so a removal
        always re-runs the search; staging is reused (the universe may
        then be a superset of ``ic(P ∪ N)``, which is harmless — extra
        words only widen the bitvectors).
        """
        positives = tuple(w for w in self._spec.positive if w != word)
        negatives = tuple(w for w in self._spec.negative if w != word)
        if len(positives) == len(self._spec.positive) and len(negatives) == len(
            self._spec.negative
        ):
            raise KeyError("example %r not in the specification" % (word,))
        self._spec = Spec(positives, negatives, alphabet=self._spec.alphabet)
        self.stats.staging_reuses += 1
        self._search()
        return self.result

    # ------------------------------------------------------------------
    def _add(self, word: str, positive: bool) -> SynthesisResult:
        # Preserve the configured alphabet, widened by any new characters.
        alphabet = tuple(sorted(set(self._spec.alphabet) | set(word)))
        if positive:
            new_spec = Spec(self._spec.positive + (word,),
                            self._spec.negative, alphabet=alphabet)
        else:
            new_spec = Spec(self._spec.positive,
                            self._spec.negative + (word,), alphabet=alphabet)
        self._spec = new_spec

        current = self._result.regex if self._result is not None else None
        if (
            current is not None
            and self._result.found
            and matches(current, word) == positive
        ):
            # Observation 1: the cached optimum stays feasible *and*
            # minimal; only the spec recorded in the result changes.
            self.stats.searches_skipped += 1
            self._result.spec = new_spec
            return self.result

        assert self._universe is not None
        # The staged universe must cover *every* current example — words
        # added during skipped searches were never integrated into it.
        # (A universe word's infixes are all present by infix-closure.)
        covered = all(w in self._universe.index for w in self._spec.all_words)
        if covered:
            self.stats.staging_reuses += 1
        else:
            self._refresh_staging()
        self._search()
        return self.result

    def _refresh_staging(self) -> None:
        self._universe = Universe(self._spec.all_words,
                                  alphabet=self._spec.alphabet)
        self._guide = GuideTable(self._universe)
        self.stats.staging_rebuilds += 1

    def _search(self) -> None:
        self.stats.searches_run += 1
        self._result = self.session.synthesize(
            self._request_template.replace(spec=self._spec),
            universe=self._universe,
            guide=self._guide,
        )
