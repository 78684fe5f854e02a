"""Network-native synthesis service: HTTP server, scheduler, client.

The package splits into the three layers the tests exercise separately:

* :mod:`repro.server.scheduler` — admission control, workload classes
  and latency tracking (pure Python, no sockets);
* :mod:`repro.server.http11` — the minimal asyncio HTTP/1.1 layer;
* :mod:`repro.server.app` — :class:`SynthesisServer`, wiring two
  worker-pool lanes behind the endpoints (the pools are the service's
  only parallelism: every job runs the serial engine in one worker).
  A job without a class starts on the interactive lane and is demoted
  to the batch lane after one quantum of run time;
* :mod:`repro.server.client` — the blocking :class:`HttpServiceClient`.
"""

from .app import SynthesisServer
from .client import HttpServiceClient, OverloadedError, ServerError
from .scheduler import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    AdmissionController,
    LatencyTracker,
)

__all__ = [
    "AdmissionController",
    "CLASS_BATCH",
    "CLASS_INTERACTIVE",
    "HttpServiceClient",
    "LatencyTracker",
    "OverloadedError",
    "ServerError",
    "SynthesisServer",
]
