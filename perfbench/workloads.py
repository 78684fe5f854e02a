"""Seeded inputs of the benchmark workloads.

Every workload draws from a fixed pool of cases built from constant
master seeds, so the reference answers (``expected/<workload>.json``,
produced once by the scalar engine) cover every input any ``--seed`` can
select.  The
run's seed only decides which cases a run uses and in which order.  The
program under test receives the generated specs and nothing else.

A case is one request: a spec, a cost function and a candidate budget.
Its key is a content hash of exactly those, so the reference file stays
valid however the pools are drawn from.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import CostFunction, Spec
from repro.language.universe import Universe

#: Interactive cases: small and distinct (the shape of
#: ``benchmarks/bench_load.py``'s ``interactive_specs``).
INTERACTIVE_BUDGET = 200_000
INTERACTIVE_POOL = 900
#: Interactive runs use the cases whose reference answer needs at most
#: this many candidates (~90% of the pool): the few heavy outliers of
#: the pool are not interactive requests, and one of them would
#: dominate a run's candidate count.
INTERACTIVE_MAX_WORK = 400
#: Work strata the seeded orders deal from (see ``_stratified``).
INTERACTIVE_STRATA = 64

#: Refinement sessions: a medium string set labelled once, then
#: relabelled ``REFINE_STEPS`` times by moving one example across.
REFINE_BUDGET = 60_000
REFINE_SESSIONS = 64
REFINE_STEPS = 4
REFINE_WORDS = 11
#: One cost function for every session, so cold and resumed requests
#: each take a similar time (the number of levels a request journals
#: follows the cost function).
REFINE_COST = (1, 1, 1, 1, 1)
REFINE_STRATA = 8

#: Sweep: wide string sets (64..120 words, two 64-bit lanes) under
#: several evaluation cost functions.  The budget is large enough that
#: every set has a level wider than the server's shard-width threshold
#: (2M candidates) under the first cost function, so the server's
#: history sends later jobs on the same set to the sharded path.
SWEEP_BUDGET = 6_000_000
#: Master seeds of the sweep string sets; each was checked to stay hard
#: (no solution below ~3M candidates) under every sweep cost function.
SWEEP_SET_SEEDS = (0, 2)
#: The first cost function opens every sweep run; the others follow in
#: seeded order.
SWEEP_COST_FUNCTIONS = ((1, 1, 10, 1, 1), (1, 1, 1, 1, 1), (10, 1, 1, 1, 1))

BINARY = ("0", "1")
#: Answered once at set-up, before anything is measured.
WARMUP_SPEC = Spec(["01", "0101"], ["", "10"], alphabet=BINARY)


@dataclass(frozen=True)
class Case:
    """One request of a workload."""

    spec: Spec
    cost: Tuple[int, ...]
    budget: int

    @property
    def cost_fn(self) -> CostFunction:
        return CostFunction.from_tuple(self.cost)

    @property
    def key(self) -> str:
        payload = json.dumps(
            [list(self.spec.positive), list(self.spec.negative),
             list(self.cost), self.budget]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _spec(positive: Sequence[str], negative: Sequence[str]) -> Spec:
    return Spec(list(positive), list(negative), alphabet=BINARY)


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


# ----------------------------------------------------------------------
# Pools (fixed; independent of the run seed)
# ----------------------------------------------------------------------
def interactive_pool() -> List[Case]:
    """Distinct small specs ``P = {w, ww}``, ``N = {ε or 1, rev(w)01}``."""
    rng = random.Random("perfbench-interactive")
    cases: List[Case] = []
    seen = set()
    while len(cases) < INTERACTIVE_POOL:
        word = _word(rng, 2, 9)
        positive = [word, word + word]
        negative = ["" if "1" in word else "1", word[::-1] + "01"]
        if set(positive) & set(negative):
            continue
        case = Case(_spec(positive, negative), (1, 1, 1, 1, 1),
                    INTERACTIVE_BUDGET)
        if case.key not in seen:
            seen.add(case.key)
            cases.append(case)
    return cases


def refine_pool() -> List[List[Case]]:
    """Refinement sessions: each a list of ``1 + REFINE_STEPS`` cases
    over one string set, every labelling new."""
    rng = random.Random("perfbench-refine")
    sessions: List[List[Case]] = []
    while len(sessions) < REFINE_SESSIONS:
        words = set()
        while len(words) < REFINE_WORDS:
            words.add(_word(rng, 2, 7))
        words = sorted(words)
        if not 40 <= Universe(words, alphabet=BINARY).n_words <= 64:
            continue  # one 64-bit lane: similar work and memory
        rng.shuffle(words)
        cut = rng.randint(3, REFINE_WORDS - 3)
        positive, negative = words[:cut], words[cut:]
        labellings = [(tuple(sorted(positive)), tuple(sorted(negative)))]
        while len(labellings) <= REFINE_STEPS:
            positive, negative = list(labellings[-1][0]), list(labellings[-1][1])
            if len(positive) > 2 and (len(negative) <= 2 or rng.random() < 0.5):
                negative.append(positive.pop(rng.randrange(len(positive))))
            else:
                positive.append(negative.pop(rng.randrange(len(negative))))
            labelling = (tuple(sorted(positive)), tuple(sorted(negative)))
            if labelling in labellings:
                continue
            labellings.append(labelling)
        sessions.append(
            [Case(_spec(p, n), REFINE_COST, REFINE_BUDGET) for p, n in labellings]
        )
    return sessions


def sweep_set(master_seed: int) -> Spec:
    """A wide labelled string set: ten words of length 3..8 whose
    infix universe has 64..120 words (two lanes)."""
    rng = random.Random("sweep|%d" % master_seed)
    while True:
        words = set()
        while len(words) < 10:
            words.add(_word(rng, 3, 8))
        words = sorted(words)
        rng.shuffle(words)
        positive, negative = words[:5], words[5:]
        n_words = Universe(positive + negative, alphabet=BINARY).n_words
        if 64 <= n_words <= 120:
            return _spec(positive, negative)


def sweep_pool() -> List[List[Case]]:
    """One list per cost function (in ``SWEEP_COST_FUNCTIONS`` order)
    of that function's case on every sweep string set."""
    sets = [sweep_set(seed) for seed in SWEEP_SET_SEEDS]
    return [
        [Case(spec, cost, SWEEP_BUDGET) for spec in sets]
        for cost in SWEEP_COST_FUNCTIONS
    ]


# ----------------------------------------------------------------------
# Seeded draws (what one run uses)
# ----------------------------------------------------------------------
def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s|%d" % (workload, seed))


def _stratified(items: list, weight, rng: random.Random, strata: int) -> list:
    """A seeded order in which every prefix samples the whole range of
    ``weight``: items are cut into ``strata`` groups of similar weight,
    shuffled within each group, and dealt round-robin over the groups
    in a seeded group order.  A run that stops at its time limit after
    about ``strata`` items has therefore done a representative share
    of light and heavy work, whatever the seed."""
    items = sorted(items, key=weight)
    size = -(-len(items) // strata)
    groups = [items[i:i + size] for i in range(0, len(items), size)]
    for group in groups:
        rng.shuffle(group)
    rng.shuffle(groups)
    return [
        group[index]
        for index in range(size)
        for group in groups
        if index < len(group)
    ]


def draw_interactive(seed: int, work: Dict[str, int]) -> List[Case]:
    """Interactive cases in a seeded, work-stratified order; a run
    never repeats a case, so every request has a fresh fingerprint."""
    cases = [
        case for case in interactive_pool()
        if work[case.key] <= INTERACTIVE_MAX_WORK
    ]
    return _stratified(
        cases, lambda case: (work[case.key], case.key),
        _rng("interactive", seed), INTERACTIVE_STRATA,
    )


def draw_refine(seed: int) -> List[List[Case]]:
    """Refinement sessions in a seeded order stratified by universe
    size.  A pool worker keeps the staging (universe and guide table) of
    every session it served, so a run's peak memory follows the sizes it
    drew; the work per session is about the same (most requests stop at
    the budget)."""
    return _stratified(
        refine_pool(),
        lambda session: (
            Universe(session[0].spec.all_words, alphabet=BINARY).n_words,
            session[0].key,
        ),
        _rng("refine", seed), REFINE_STRATA,
    )


def draw_sweep(seed: int) -> List[List[Case]]:
    """Bursts of sweep jobs: the first cost function on every set, then
    the remaining cost functions in seeded order, sets in seeded order
    within each burst.  Every run does the same work."""
    rng = _rng("sweep", seed)
    first, *rest = sweep_pool()
    rng.shuffle(rest)
    bursts = [first] + rest
    for burst in bursts:
        rng.shuffle(burst)
    return bursts
