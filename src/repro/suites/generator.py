"""Random benchmark generation — the paper's Type 1 and Type 2 schemes.

§4.3 of the paper defines two complementary ways of sampling a
specification ``(P, N)`` with parameters ``Σ`` (alphabet), ``le``
(maximal example length), ``p`` and ``n`` (example counts):

* **Type 1** samples ``p + n`` distinct strings uniformly from
  ``Σ^{≤le}``.  Because there are exponentially more long strings than
  short ones, Type 1 specifications are dominated by long strings.
* **Type 2** first samples a *length* uniformly for every example, then
  a fresh string of that length — so short strings (including ``ε``) are
  likely to appear, which the paper found makes inference
  disproportionately harder.

Both schemes are fully deterministic given a seed.  The paper's
parameter ranges (Type 1: ``p, n ∈ 8..12``, ``le ∈ 0..7``; Type 2:
``p, n ∈ 7..14``, ``le ∈ 0..10``) target a 25 GB A100; the scaled
defaults below target a pure-Python engine and are the ones the
benchmark harness uses (a documented substitution; see docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import InvalidSpecError
from ..spec import Spec


@dataclass(frozen=True)
class SuiteParams:
    """Parameter ranges for one generated benchmark suite."""

    alphabet: str = "01"
    le_range: Tuple[int, int] = (3, 5)
    p_range: Tuple[int, int] = (4, 8)
    n_range: Tuple[int, int] = (4, 8)


#: The paper's own ranges (Colab A100 scale — infeasible in pure Python).
PAPER_TYPE1_PARAMS = SuiteParams(le_range=(0, 7), p_range=(8, 12), n_range=(8, 12))
PAPER_TYPE2_PARAMS = SuiteParams(le_range=(0, 10), p_range=(7, 14), n_range=(7, 14))

#: Scaled ranges used by this reproduction's benchmark harness.  Chosen
#: (like the paper chose its ranges for a 25 GB A100) to sit at the edge
#: of what the engines solve in a few seconds: solutions typically cost
#: 8-14 under (1,1,1,1,1), i.e. up to a few hundred thousand candidates.
SCALED_TYPE1_PARAMS = SuiteParams(le_range=(3, 4), p_range=(3, 6), n_range=(3, 6))
SCALED_TYPE2_PARAMS = SuiteParams(le_range=(3, 4), p_range=(3, 6), n_range=(3, 6))


@dataclass(frozen=True)
class GeneratedBenchmark:
    """One named, reproducible benchmark instance."""

    name: str
    benchmark_type: int
    seed: int
    le: int
    n_pos: int
    n_neg: int
    spec: Spec


def _count_strings(alphabet_size: int, max_length: int) -> int:
    return sum(alphabet_size ** i for i in range(max_length + 1))


def _decode_string(index: int, alphabet: Sequence[str]) -> str:
    """The ``index``-th string of ``Σ*`` in shortlex order."""
    size = len(alphabet)
    length = 0
    block = 1
    while index >= block:
        index -= block
        block *= size
        length += 1
    digits: List[str] = []
    for _ in range(length):
        digits.append(alphabet[index % size])
        index //= size
    return "".join(reversed(digits))


def generate_type1(
    seed: int,
    alphabet: str = "01",
    le: int = 5,
    n_pos: int = 6,
    n_neg: int = 6,
) -> Spec:
    """Sample a Type 1 specification (uniform over ``Σ^{≤le}``)."""
    total = _count_strings(len(alphabet), le)
    if n_pos + n_neg > total:
        raise InvalidSpecError(
            "cannot sample %d distinct strings from Σ^≤%d (only %d exist)"
            % (n_pos + n_neg, le, total)
        )
    rng = random.Random("type1|%d|%s|%d|%d|%d" % (seed, alphabet, le, n_pos, n_neg))
    indices = rng.sample(range(total), n_pos + n_neg)
    words = [_decode_string(i, alphabet) for i in indices]
    return Spec(words[:n_pos], words[n_pos:], alphabet=tuple(alphabet))


def generate_type2(
    seed: int,
    alphabet: str = "01",
    le: int = 5,
    n_pos: int = 6,
    n_neg: int = 6,
) -> Spec:
    """Sample a Type 2 specification (uniform length first, then string)."""
    size = len(alphabet)
    capacity = {length: size ** length for length in range(le + 1)}
    if n_pos + n_neg > sum(capacity.values()):
        raise InvalidSpecError(
            "cannot sample %d distinct strings with le=%d" % (n_pos + n_neg, le)
        )
    rng = random.Random("type2|%d|%s|%d|%d|%d" % (seed, alphabet, le, n_pos, n_neg))
    used = {length: set() for length in range(le + 1)}

    def sample_one() -> str:
        open_lengths = [
            length
            for length in range(le + 1)
            if len(used[length]) < capacity[length]
        ]
        length = rng.choice(open_lengths)
        while True:
            word = "".join(rng.choice(alphabet) for _ in range(length))
            if word not in used[length]:
                used[length].add(word)
                return word

    positives = [sample_one() for _ in range(n_pos)]
    negatives = [sample_one() for _ in range(n_neg)]
    return Spec(positives, negatives, alphabet=tuple(alphabet))


def generate_suite(
    benchmark_type: int,
    count: int,
    params: SuiteParams = SCALED_TYPE1_PARAMS,
    base_seed: int = 0,
) -> List[GeneratedBenchmark]:
    """Generate ``count`` named benchmarks with parameters drawn
    uniformly from ``params``' ranges (deterministic in ``base_seed``)."""
    if benchmark_type not in (1, 2):
        raise ValueError("benchmark_type must be 1 or 2")
    sampler = generate_type1 if benchmark_type == 1 else generate_type2
    rng = random.Random("suite|%d|%d" % (benchmark_type, base_seed))
    suite: List[GeneratedBenchmark] = []
    for i in range(count):
        le = rng.randint(*params.le_range)
        n_pos = rng.randint(*params.p_range)
        n_neg = rng.randint(*params.n_range)
        # Clamp counts to the number of available distinct strings so any
        # parameter ranges are safe (relevant only for tiny ``le``).  At
        # ``le = 0`` only the empty word exists, so the spec keeps one
        # positive and no negatives.
        capacity = _count_strings(len(params.alphabet), le)
        min_neg = 1 if capacity >= 2 else 0
        while n_pos + n_neg > capacity:
            n_pos = max(1, n_pos - 1)
            n_neg = max(min_neg, n_neg - 1)
        seed = base_seed * 100000 + i
        spec = sampler(
            seed, alphabet=params.alphabet, le=le, n_pos=n_pos, n_neg=n_neg
        )
        suite.append(
            GeneratedBenchmark(
                name="T%d-%03d" % (benchmark_type, i),
                benchmark_type=benchmark_type,
                seed=seed,
                le=le,
                n_pos=n_pos,
                n_neg=n_neg,
                spec=spec,
            )
        )
    return suite
