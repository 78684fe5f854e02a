"""repro — a reproduction of *Search-Based Regular Expression Inference
on a GPU* (Valizadeh & Berger, PLDI 2023).

Quick start::

    from repro import Spec, CostFunction, synthesize

    spec = Spec(
        positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
        negative=["", "0", "1", "00", "11", "010"],
    )
    result = synthesize(spec, cost_fn=CostFunction.uniform())
    print(result.regex_str)   # 10(0+1)*

For many requests, use a :class:`Session` (staging reuse, batched
serving); for multi-core, restart-durable serving, use
:class:`repro.service.ServiceClient` or the ``repro serve`` /
``repro submit`` CLI (see docs/README.md).

See docs/ARCHITECTURE.md for the system design and EXPERIMENTS.md for the
reproduction of every table and figure of the paper.
"""

# The core package must initialise before the api re-exports below:
# ``core.synthesizer`` (the legacy facade) imports the session layer at
# a point where every core module it needs is already loaded.
from .core.incremental import IncrementalSynthesizer
from .core.result import SynthesisResult
from .core.synthesizer import make_engine, synthesize

from .api import (
    BackendRegistry,
    CancellationToken,
    EngineConfig,
    ProgressEvent,
    Session,
    SynthesisRequest,
    default_registry,
)
from .errors import CapacityError, InvalidSpecError, ReproError
from .service import ServiceClient, WorkerPool
from .regex.ast import Regex
from .regex.cost import ALPHAREGEX_COST, EVALUATION_COST_FUNCTIONS, CostFunction
from .regex.parser import parse
from .regex.printer import to_string
from .spec import Spec

__version__ = "1.6.0"

__all__ = [
    "ServiceClient",
    "WorkerPool",
    "BackendRegistry",
    "CancellationToken",
    "EngineConfig",
    "ProgressEvent",
    "Session",
    "SynthesisRequest",
    "default_registry",
    "IncrementalSynthesizer",
    "SynthesisResult",
    "make_engine",
    "synthesize",
    "CapacityError",
    "InvalidSpecError",
    "ReproError",
    "Regex",
    "ALPHAREGEX_COST",
    "EVALUATION_COST_FUNCTIONS",
    "CostFunction",
    "parse",
    "to_string",
    "Spec",
    "__version__",
]
