"""Backend-registry tests: name resolution, aliases, duplicate
rejection, capabilities, and the legacy ``BACKENDS`` views."""

import pytest

from repro.api import BackendRegistry, default_registry
from repro.core.scalar_engine import ScalarEngine
from repro.core.synthesizer import BACKENDS, BACKEND_ALIASES, make_engine
from repro.core.vector_engine import VectorEngine
from repro.regex.cost import CostFunction
from repro.spec import Spec


class TestResolution:
    def test_canonical_names_resolve(self):
        registry = default_registry()
        assert registry.resolve("scalar").factory is ScalarEngine
        assert registry.resolve("vector").factory is VectorEngine

    def test_every_alias_resolves(self):
        registry = default_registry()
        assert BACKEND_ALIASES, "legacy alias view must not be empty"
        for alias, canonical in BACKEND_ALIASES.items():
            info = registry.resolve(alias)
            assert info.name == canonical
            assert registry.canonical(alias) == canonical

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            default_registry().resolve("quantum")

    def test_unknown_name_lists_accepted_spellings(self):
        with pytest.raises(ValueError) as excinfo:
            default_registry().resolve("nope")
        message = str(excinfo.value)
        for name in ("scalar", "vector", "cpu", "gpu"):
            assert name in message

    def test_contains_and_names(self):
        registry = default_registry()
        assert "scalar" in registry and "gpu" in registry
        assert "nope" not in registry
        assert registry.names() == ("scalar", "vector")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = BackendRegistry()
        registry.register("engine", ScalarEngine)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("engine", VectorEngine)

    def test_duplicate_alias_rejected(self):
        registry = BackendRegistry()
        registry.register("one", ScalarEngine, aliases=("fast",))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("two", VectorEngine, aliases=("fast",))

    def test_name_colliding_with_alias_rejected(self):
        registry = BackendRegistry()
        registry.register("one", ScalarEngine, aliases=("fast",))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("fast", VectorEngine)

    def test_replace_overrides(self):
        registry = BackendRegistry()
        registry.register("engine", ScalarEngine)
        registry.register("engine", VectorEngine, replace=True)
        assert registry.resolve("engine").factory is VectorEngine

    def test_registered_backend_is_usable(self):
        registry = BackendRegistry()
        registry.register("mine", ScalarEngine, capabilities=("onthefly",))
        info = registry.resolve("mine")
        assert info.supports("onthefly")
        assert not info.supports("vectorised")


class TestCapabilities:
    def test_vector_is_vectorised(self):
        assert default_registry().resolve("vector").supports("vectorised")
        assert not default_registry().resolve("scalar").supports("vectorised")

    def test_both_engines_support_onthefly(self):
        for name in ("scalar", "vector"):
            assert default_registry().resolve(name).supports("onthefly")

    def test_guide_table_ablation_is_scalar_only(self):
        assert default_registry().resolve("scalar").supports(
            "guide-table-ablation"
        )
        assert not default_registry().resolve("vector").supports(
            "guide-table-ablation"
        )


class TestLegacyViews:
    def test_backends_view_matches_registry(self):
        assert BACKENDS == default_registry().backends()
        assert set(BACKENDS) == {"scalar", "vector"}

    def test_aliases_view_matches_registry(self):
        assert BACKEND_ALIASES == default_registry().aliases()
        assert BACKEND_ALIASES["cpu"] == "scalar"
        assert BACKEND_ALIASES["gpu"] == "vector"

    def test_make_engine_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_engine(Spec(["0"], ["1"]), CostFunction.uniform(),
                        backend="tpu")
