"""The session-oriented public API: requests, configs, backends, serving.

This package is the architectural seam between the synthesis core and
anything that serves it at scale:

* :class:`~repro.api.config.SynthesisRequest` /
  :class:`~repro.api.config.EngineConfig` — typed request/configuration
  objects replacing the keyword sprawl of the original facade.
* :class:`~repro.api.registry.BackendRegistry` — pluggable,
  capability-aware engine registration (aliases, duplicate rejection).
* :class:`~repro.api.session.Session` — staged-artifact reuse across
  requests, per-request budgets/cancellation/progress, and
  :meth:`~repro.api.session.Session.synthesize_many` batched
  multi-spec serving from one shared enumeration sweep.

:func:`repro.synthesize` remains as a thin backward-compatible facade
over this layer.
"""

from .config import EngineConfig, SynthesisRequest
from .progress import CancellationToken, ProgressEvent
from .registry import BackendInfo, BackendRegistry, default_registry
from .session import Session, SessionStats, staging_key_of

__all__ = [
    "EngineConfig",
    "SynthesisRequest",
    "CancellationToken",
    "ProgressEvent",
    "BackendInfo",
    "BackendRegistry",
    "default_registry",
    "Session",
    "SessionStats",
    "staging_key_of",
]
