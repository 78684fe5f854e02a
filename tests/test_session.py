"""Session & serving-layer tests: staging reuse, request/config objects,
batched multi-spec serving, progress streaming and cancellation."""

import pytest

import repro.api.session as session_module
from repro import (
    CancellationToken,
    EngineConfig,
    Session,
    SynthesisRequest,
    Spec,
    synthesize,
)
from repro.regex.cost import CostFunction

INTRO_SPEC = Spec(
    positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
    negative=["", "0", "1", "00", "11", "010"],
)


def _partitions_of(words, count, stride=3):
    """Deterministic non-trivial partitions of one shared word set."""
    specs = []
    for k in range(count):
        positives = [w for i, w in enumerate(words) if (i + k) % stride == 0]
        if not positives or len(positives) == len(words):
            positives = [words[k % len(words)]]
        negatives = [w for w in words if w not in positives]
        specs.append(Spec(positives, negatives))
    return specs


def _key(result):
    return (result.status, result.regex_str, result.cost)


class TestStagingReuse:
    def test_staging_built_exactly_once_for_k_specs(self, monkeypatch):
        """The acceptance criterion: K specs over the same example
        strings trigger exactly one staging build."""
        builds = []
        real_universe = session_module.Universe

        def counting_universe(*args, **kwargs):
            builds.append(args)
            return real_universe(*args, **kwargs)

        monkeypatch.setattr(session_module, "Universe", counting_universe)
        session = Session()
        specs = _partitions_of(INTRO_SPEC.all_words, 5)
        for spec in specs:
            assert session.synthesize(spec).found
        assert len(builds) == 1
        assert session.stats.staging_builds == 1
        assert session.stats.staging_hits == len(specs) - 1

    def test_different_strings_build_separately(self):
        session = Session()
        session.synthesize(Spec(["0"], ["1"]))
        session.synthesize(Spec(["0", "00"], ["1"]))
        assert session.stats.staging_builds == 2

    def test_alphabet_widening_is_a_different_staging(self):
        session = Session()
        session.synthesize(Spec(["0"], ["1"]))
        session.synthesize(Spec(["0"], ["1"], alphabet=("0", "1", "2")))
        assert session.stats.staging_builds == 2

    def test_lru_eviction(self):
        session = Session(max_staged=1)
        session.staging_for(Spec(["0"], ["1"]))
        session.staging_for(Spec(["00"], ["1"]))
        session.staging_for(Spec(["0"], ["1"]))  # evicted, rebuilt
        assert session.stats.staging_builds == 3

    def test_clear_drops_staging(self):
        session = Session()
        session.staging_for(INTRO_SPEC)
        session.clear()
        session.staging_for(INTRO_SPEC)
        assert session.stats.staging_builds == 2

    def test_cost_function_sweep_shares_staging(self):
        session = Session()
        sweep = [
            session.synthesize(SynthesisRequest(spec=INTRO_SPEC, cost_fn=cf))
            for cf in (CostFunction.uniform(),
                       CostFunction.from_tuple((1, 1, 10, 1, 1)),
                       CostFunction.from_tuple((5, 5, 5, 5, 5)))
        ]
        assert all(r.found for r in sweep)
        assert session.stats.staging_builds == 1


class TestSessionResults:
    def test_matches_facade(self):
        session = Session()
        assert _key(session.synthesize(INTRO_SPEC)) == _key(
            synthesize(INTRO_SPEC)
        )

    def test_request_tuple_coercion(self):
        session = Session()
        result = session.synthesize((["0", "00"], ["1"]))
        assert result.found

    def test_per_request_config_override(self):
        session = Session(EngineConfig(backend="vector"))
        scalar = session.synthesize(
            SynthesisRequest(spec=INTRO_SPEC,
                             config=EngineConfig(backend="cpu"))
        )
        assert scalar.backend == "scalar"
        assert _key(scalar) == _key(session.synthesize(INTRO_SPEC))

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(EngineConfig(backend="tpu"))


@pytest.mark.parametrize("backend", ["scalar", "vector"])
class TestSynthesizeMany:
    def test_batch_is_bit_identical_to_solo(self, backend):
        session = Session(EngineConfig(backend=backend))
        specs = _partitions_of(INTRO_SPEC.all_words, 6)
        batch = session.synthesize_many(specs)
        for spec, result in zip(specs, batch):
            solo = synthesize(spec, backend=backend)
            assert _key(result) == _key(solo)
            assert result.extra.get("batched") is True
        assert session.stats.batch_groups == 1
        assert session.stats.staging_builds == 1

    def test_batch_with_allowed_error(self, backend):
        session = Session(EngineConfig(backend=backend))
        requests = [
            SynthesisRequest(spec=INTRO_SPEC, allowed_error=e)
            for e in (0.0, 0.2, 0.4)
        ]
        batch = session.synthesize_many(requests)
        for request, result in zip(requests, batch):
            solo = synthesize(request.spec, backend=backend,
                              allowed_error=request.allowed_error)
            assert _key(result) == _key(solo)

    def test_batch_respects_per_request_max_cost(self, backend):
        session = Session(EngineConfig(backend=backend))
        hard = _partitions_of(INTRO_SPEC.all_words, 3)
        requests = [SynthesisRequest(spec=s, max_cost=2) for s in hard]
        requests.append(SynthesisRequest(spec=hard[0]))
        batch = session.synthesize_many(requests)
        for request, result in zip(requests, batch):
            solo = synthesize(request.spec, backend=backend,
                              max_cost=request.max_cost)
            assert _key(result) == _key(solo)
        assert batch[0].status == "not_found"
        assert batch[-1].found

    def test_batch_matches_solo_below_literal_cost(self, backend):
        # The solo sweep seeds the literal level even when max_cost is
        # below it, so a cost-c1 solution is still found; the batch
        # scan must mirror that.
        session = Session(EngineConfig(backend=backend))
        requests = [
            SynthesisRequest(spec=Spec(["0"], ["1"]), max_cost=0),
            SynthesisRequest(spec=Spec(["1"], ["0"]), max_cost=0),
        ]
        batch = session.synthesize_many(requests)
        for request, result in zip(requests, batch):
            solo = synthesize(request.spec, backend=backend, max_cost=0)
            assert _key(result) == _key(solo)
            assert result.found  # the literal level solves both

    def test_trivial_solutions_in_batch(self, backend):
        # ∅ (reject everything) and ε solve at cost c1 without a sweep.
        session = Session(EngineConfig(backend=backend))
        requests = [
            SynthesisRequest(spec=Spec([], ["0", "1"])),
            SynthesisRequest(spec=Spec([""], ["0", "1"])),
            SynthesisRequest(spec=Spec(["0"], ["1", ""])),
        ]
        batch = session.synthesize_many(requests)
        for request, result in zip(requests, batch):
            solo = synthesize(request.spec, backend=backend)
            assert _key(result) == _key(solo)


class TestSynthesizeManyGrouping:
    def test_mixed_universes_group_separately(self):
        session = Session()
        group_a = _partitions_of(INTRO_SPEC.all_words, 3)
        group_b = _partitions_of(("", "a", "ab", "abb", "b"), 3)
        interleaved = [v for pair in zip(group_a, group_b) for v in pair]
        batch = session.synthesize_many(interleaved)
        for spec, result in zip(interleaved, batch):
            assert _key(result) == _key(synthesize(spec))
        assert session.stats.batch_groups == 2
        assert session.stats.staging_builds == 2

    def test_different_cost_functions_do_not_share_a_sweep(self):
        session = Session()
        requests = [
            SynthesisRequest(spec=INTRO_SPEC),
            SynthesisRequest(spec=INTRO_SPEC,
                             cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1))),
        ]
        batch = session.synthesize_many(requests)
        assert session.stats.batch_groups == 0
        assert all(r.extra.get("batched") is None for r in batch)
        assert session.stats.staging_builds == 1  # staging still shared

    def test_backend_aliases_share_a_sweep_group(self):
        session = Session()
        specs = _partitions_of(INTRO_SPEC.all_words, 2)
        batch = session.synthesize_many([
            SynthesisRequest(spec=specs[0],
                             config=EngineConfig(backend="gpu")),
            SynthesisRequest(spec=specs[1],
                             config=EngineConfig(backend="vector")),
        ])
        assert session.stats.batch_groups == 1
        for spec, result in zip(specs, batch):
            assert _key(result) == _key(synthesize(spec))

    def test_bounded_cache_forces_solo_serving(self):
        session = Session(EngineConfig(max_cache_size=10_000))
        specs = _partitions_of(INTRO_SPEC.all_words, 3)
        batch = session.synthesize_many(specs)
        assert session.stats.batch_groups == 0
        for spec, result in zip(specs, batch):
            assert _key(result) == _key(
                synthesize(spec, max_cache_size=10_000)
            )

    def test_empty_batch(self):
        assert Session().synthesize_many([]) == []


class TestProgressAndCancellation:
    def test_progress_events_stream_and_finish(self):
        events = []
        session = Session()
        result = session.synthesize(
            SynthesisRequest(spec=INTRO_SPEC, on_progress=events.append)
        )
        assert result.found
        assert events, "expected at least one progress event"
        costs = [e.cost for e in events if not e.done]
        assert costs == sorted(costs)
        final = events[-1]
        assert final.done
        assert final.incumbent is result

    def test_progress_events_carry_monotonic_elapsed_s(self):
        """``elapsed_s`` is the engine's own monotonic clock: present on
        every event, non-negative, non-decreasing, and still meaningful
        after a pickle round-trip (the cross-process forwarding case)."""
        import pickle

        events = []
        result = Session().synthesize(
            SynthesisRequest(spec=INTRO_SPEC, on_progress=events.append)
        )
        assert result.found
        elapsed = [e.elapsed_s for e in events]
        assert all(v >= 0.0 for v in elapsed)
        assert elapsed == sorted(elapsed)
        # The final event reflects the whole sweep: no earlier event
        # can claim more engine time.
        assert events[-1].done
        assert events[-1].elapsed_s == max(elapsed)
        # Self-describing across process boundaries: the timing
        # survives serialisation instead of needing the receiver's
        # clocks.
        revived = pickle.loads(pickle.dumps(events[-1]))
        assert revived.elapsed_s == events[-1].elapsed_s
        assert revived.elapsed_seconds == events[-1].elapsed_seconds

    def test_engine_elapsed_clock_starts_at_run(self):
        session = Session()
        engine = session.make_engine(SynthesisRequest(spec=INTRO_SPEC))
        assert engine.elapsed_s == 0.0  # before run(): no clock yet
        engine.run(3)
        assert engine.run_started_monotonic is not None
        assert engine.elapsed_s > 0.0

    def test_cancellation_token_stops_the_search(self):
        token = CancellationToken()
        token.cancel()
        result = Session().synthesize(
            SynthesisRequest(spec=INTRO_SPEC, cancel=token)
        )
        assert result.status == "cancelled"
        assert not result.found

    def test_cancel_mid_search_via_progress(self):
        token = CancellationToken()
        events = []

        def cancel_after_first(event):
            events.append(event)
            token.cancel()

        result = Session().synthesize(
            SynthesisRequest(spec=INTRO_SPEC, cancel=token,
                             on_progress=cancel_after_first)
        )
        assert result.status == "cancelled"
        assert events

    def test_time_limit_zero_cancels(self):
        result = Session().synthesize(
            SynthesisRequest(spec=INTRO_SPEC, time_limit=0.0)
        )
        assert result.status == "cancelled"

    def test_generous_time_limit_succeeds(self):
        result = Session().synthesize(
            SynthesisRequest(spec=Spec(["0"], ["1"]), time_limit=60.0)
        )
        assert result.found


class TestRequestObjects:
    def test_replace(self):
        request = SynthesisRequest(spec=INTRO_SPEC)
        relaxed = request.replace(allowed_error=0.25)
        assert relaxed.allowed_error == 0.25
        assert relaxed.spec is INTRO_SPEC
        assert request.allowed_error == 0.0

    def test_config_replace(self):
        config = EngineConfig()
        scalar = config.replace(backend="scalar")
        assert scalar.backend == "scalar"
        assert config.backend == "vector"

    def test_invalid_allowed_error_rejected_in_batch(self):
        session = Session()
        bad = [SynthesisRequest(spec=s, allowed_error=1.5)
               for s in _partitions_of(INTRO_SPEC.all_words, 2)]
        with pytest.raises(ValueError, match="allowed_error"):
            session.synthesize_many(bad)
