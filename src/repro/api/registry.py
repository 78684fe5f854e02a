"""The pluggable backend registry.

Replaces the hardcoded ``BACKENDS`` dict of the original facade: every
search engine is registered under a canonical name with friendly
aliases, a capability set, and a factory.  :func:`default_registry` is
the one backend namespace: sessions resolve engines through it, and a
:class:`~repro.service.wire.WireRequest` swaps in the canonical name
when it is built, so fingerprints, job ids and stored answers never
see an alias.  Alternative engines (a real GPU build, a remote
executor, …) plug in without touching the serving code — the
Polynesia-style "specialised engines behind one interface" seam.  A
plugin registers on :func:`default_registry` before a pool or server
starts; the pool's worker processes are forked from that process and
inherit the registration.

Capabilities are advisory flags the serving layer consults:

* ``"vectorised"`` — batched array-level kernels.
* ``"batch-serving"`` — the engine's cache layout supports the shared
  multi-spec sweep of :meth:`repro.api.session.Session.synthesize_many`.
* ``"guide-table-ablation"`` — honours ``use_guide_table=False``.
* ``"onthefly"`` — degrades gracefully when the cache capacity is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple


@dataclass(frozen=True)
class BackendInfo:
    """One registered engine: canonical name, factory and metadata."""

    name: str
    factory: Callable[..., object]
    aliases: Tuple[str, ...] = ()
    capabilities: FrozenSet[str] = frozenset()
    description: str = ""

    def supports(self, capability: str) -> bool:
        """True iff the backend advertises ``capability``."""
        return capability in self.capabilities


class BackendRegistry:
    """A name → engine mapping with aliases and duplicate rejection.

    Canonical names and aliases live in one namespace: registering a
    name (or alias) that is already taken raises :class:`ValueError`
    unless ``replace=True`` is passed — silent shadowing of an engine
    is never what a deployment wants.
    """

    def __init__(self) -> None:
        self._backends: Dict[str, BackendInfo] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable[..., object],
        aliases: Iterable[str] = (),
        capabilities: Iterable[str] = (),
        description: str = "",
        replace: bool = False,
    ) -> BackendInfo:
        """Register an engine factory; returns its :class:`BackendInfo`."""
        alias_tuple = tuple(aliases)
        if not replace:
            for candidate in (name,) + alias_tuple:
                if candidate in self._backends or candidate in self._aliases:
                    raise ValueError(
                        "backend name %r is already registered; pass "
                        "replace=True to override" % candidate
                    )
        info = BackendInfo(
            name=name,
            factory=factory,
            aliases=alias_tuple,
            capabilities=frozenset(capabilities),
            description=description,
        )
        self._backends[name] = info
        for alias in alias_tuple:
            self._aliases[alias] = name
        return info

    # ------------------------------------------------------------------
    def canonical(self, name: str) -> str:
        """Resolve an alias (or canonical name) to the canonical name."""
        return self.resolve(name).name

    def resolve(self, name: str) -> BackendInfo:
        """The :class:`BackendInfo` for a name or alias.

        Raises :class:`ValueError` for unknown names, listing every
        accepted spelling — the error contract the CLI and the legacy
        facade document.
        """
        target = self._aliases.get(name, name)
        info = self._backends.get(target)
        if info is None:
            raise ValueError(
                "unknown backend %r; expected one of %s"
                % (name, sorted(self._backends) + sorted(self._aliases))
            )
        return info

    def names(self) -> Tuple[str, ...]:
        """All canonical names, sorted."""
        return tuple(sorted(self._backends))

    def aliases(self) -> Dict[str, str]:
        """A copy of the alias → canonical-name mapping."""
        return dict(self._aliases)

    def backends(self) -> Dict[str, Callable[..., object]]:
        """A canonical-name → factory snapshot (the legacy ``BACKENDS``
        shape)."""
        return {name: info.factory for name, info in self._backends.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._backends or name in self._aliases

    def __len__(self) -> int:
        return len(self._backends)


def _build_default() -> BackendRegistry:
    # Engine imports stay local: the registry is imported during
    # ``repro.core`` package initialisation, before the engine modules
    # exist in a finished state.
    from ..core.scalar_engine import ScalarEngine
    from ..core.vector_engine import VectorEngine

    registry = BackendRegistry()
    registry.register(
        "scalar",
        ScalarEngine,
        aliases=("cpu",),
        capabilities=(
            "batch-serving",
            "guide-table-ablation",
            "onthefly",
        ),
        description="the paper's CPU implementation: one CS at a time",
    )
    registry.register(
        "vector",
        VectorEngine,
        aliases=("gpu", "gpu-sim"),
        capabilities=(
            "batch-serving",
            "onthefly",
            "vectorised",
        ),
        description="the paper's GPU implementation (numpy-simulated)",
    )
    return registry


_default: Optional[BackendRegistry] = None


def default_registry() -> BackendRegistry:
    """The process-wide default registry (built lazily, shared).

    Ships the paper's two engines under their historical names and
    aliases; sessions, wire requests and pools all resolve names
    through it.  Plugins may :meth:`BackendRegistry.register`
    additional engines onto it.
    """
    global _default
    if _default is None:
        _default = _build_default()
    return _default
