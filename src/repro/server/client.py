"""A blocking HTTP client for :class:`~repro.server.app.SynthesisServer`.

The hand-rolled constraint applies to the *server* (it must multiplex
long-lived event streams); the client side is ordinary one-shot HTTP,
so the stdlib's :mod:`http.client` is exactly right — and its response
objects transparently decode the chunked ``/events`` body, which makes
the NDJSON stream a plain ``readline()`` loop.

:class:`HttpServiceClient` mirrors the in-process
:class:`~repro.service.pool.WorkerPool` surface where it can
(``submit`` / ``result`` / ``cancel``), which is what lets the CLI and
the tests swap one for the other and assert bit-identical answers.
``result`` long-polls ``GET /jobs/<id>?wait=S``: the server answers the
moment the job finishes, so waiting costs no sleeps and, for a job that
finishes within one wait, a single request.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator, Optional
from urllib.parse import urlsplit

from ..api.progress import ProgressEvent
from ..errors import ReproError
from ..service.wire import WireRequest

#: Result-poll backoff: start fast, back off exponentially to the cap
#: (for callers that poll :meth:`HttpServiceClient.status` themselves).
POLL_BASE_S = 0.05
POLL_CAP_S = 1.0

#: Longest one long poll of :meth:`HttpServiceClient.result` asks the
#: server to park (further bounded by half the socket timeout).
LONG_POLL_S = 10.0


class ServerError(ReproError):
    """An HTTP-level failure talking to the synthesis server."""

    def __init__(self, status: int, payload: object) -> None:
        super().__init__("server returned %d: %r" % (status, payload))
        self.status = status
        self.payload = payload


class OverloadedError(ServerError):
    """A 429 rejection; ``retry_after_s`` is the server's suggestion."""

    def __init__(self, payload: object, retry_after_s: float) -> None:
        super().__init__(429, payload)
        self.retry_after_s = retry_after_s


def poll_intervals(
    base: float = POLL_BASE_S, cap: float = POLL_CAP_S
) -> Iterator[float]:
    """An exponential-backoff schedule for polling without ``wait``:
    ``base, 2·base, 4·base, …`` capped at ``cap``, then constant."""
    delay = base
    while True:
        yield delay
        delay = min(cap, delay * 2)


class HttpServiceClient:
    """One server address, one kept-alive connection, no threads.

    Fixed-length calls (submit/status/cancel/healthz/metrics) reuse a
    single persistent HTTP connection — a long-polling ``result()``
    loop costs one TCP handshake total, not one per poll.  A connection
    the server has quietly closed (idle timeout, restart) is detected
    on the next call and retried once on a fresh connection.  The chunked
    ``/events`` stream is connection-terminal by design and always uses
    its own dedicated connection.
    """

    def __init__(
        self,
        address: str,
        timeout: float = 30.0,
        auth_token: Optional[str] = None,
    ) -> None:
        split = urlsplit(
            address if "//" in address else "http://%s" % address
        )
        if split.scheme not in ("", "http"):
            raise ValueError("only http:// addresses are supported")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self.auth_token = auth_token
        self._connection: Optional[http.client.HTTPConnection] = None

    def _headers(self, payload: Optional[bytes]) -> dict:
        headers = {"Content-Type": "application/json"} if payload else {}
        if self.auth_token is not None:
            headers["Authorization"] = "Bearer %s" % self.auth_token
        return headers

    def close(self) -> None:
        """Drop the persistent connection (reopened on the next call)."""
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            self._connection = None

    def __enter__(self) -> "HttpServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _fresh_request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ):
        """One-shot connection + response (the ``/events`` stream)."""
        connection = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        connection.request(
            method, path, body=payload, headers=self._headers(payload)
        )
        return connection, connection.getresponse()

    def _persistent_response(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> http.client.HTTPResponse:
        """Issue a request on the kept-alive connection.

        Retries exactly once on a fresh connection when the old one
        turns out to be stale (the server idle-closed it between
        polls); a failure on the fresh connection is a real error.
        """
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = self._headers(payload)
        for attempt in (0, 1):
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(
                    method, path, body=payload, headers=headers
                )
                return self._connection.getresponse()
            except (
                http.client.BadStatusLine,
                http.client.CannotSendRequest,
                ConnectionError,
                BrokenPipeError,
                OSError,
            ):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _finish_response(self, response: http.client.HTTPResponse) -> None:
        """Honour the server's connection disposition after a read."""
        if response.will_close:
            self.close()

    def _json_call(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        response = self._persistent_response(method, path, body)
        raw = response.read()
        self._finish_response(response)
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            data = {"raw": raw.decode("utf-8", "replace")}
        if response.status == 429:
            retry_after = float(
                response.getheader("Retry-After")
                or data.get("retry_after_s")
                or 1.0
            )
            raise OverloadedError(data, retry_after)
        if response.status >= 400:
            raise ServerError(response.status, data)
        return data

    # ------------------------------------------------------------------
    def submit(self, request, klass: Optional[str] = None) -> dict:
        """POST the request; returns the server's job document.

        Accepts anything :meth:`WireRequest.of` does.  Raises
        :class:`OverloadedError` on a 429 (carrying the server's
        Retry-After) rather than papering over admission control.
        """
        wire = WireRequest.of(request)
        payload = wire.to_json_dict()
        if klass is not None:
            payload["class"] = klass
        return self._json_call("POST", "/jobs", payload)

    def status(self, job_id: str, wait: Optional[float] = None) -> dict:
        """GET the job document; with ``wait``, the server holds the
        request until the job finishes or ``wait`` seconds pass."""
        path = "/jobs/%s" % job_id
        if wait is not None:
            path += "?wait=%.6f" % wait
        return self._json_call("GET", path)

    def trace(self, job_id: str) -> dict:
        """GET the job's trace document (spans + Chrome trace JSON)."""
        return self._json_call("GET", "/jobs/%s/trace" % job_id)

    def cancel(self, job_id: str) -> dict:
        """DELETE the job; a finished job returns its result untouched."""
        return self._json_call("DELETE", "/jobs/%s" % job_id)

    def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> dict:
        """Long-poll until the job finishes.

        Each poll parks server-side for at most :data:`LONG_POLL_S`, and
        for less than the socket timeout.  Returns the terminal job
        document; raises :class:`TimeoutError` past ``timeout`` and
        :class:`ServerError` when the job failed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        wait = min(LONG_POLL_S, self.timeout / 2)
        while True:
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            data = self.status(job_id, wait=wait)
            state = data.get("state")
            if state in ("done", "cancelled"):
                return data
            if state == "failed":
                raise ServerError(500, data)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    "job %s not finished within %r s" % (job_id, timeout)
                )

    def synthesize(self, request, timeout: Optional[float] = None) -> dict:
        """Submit and block; returns the result dict of the finished job."""
        job = self.submit(request)
        done = (
            job if job.get("state") in ("done", "cancelled")
            else self.result(job["job_id"], timeout=timeout)
        )
        return done.get("result") or {}

    # ------------------------------------------------------------------
    def events(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[ProgressEvent]:
        """Stream the job's progress events (replay + live, in order).

        Yields :class:`ProgressEvent` objects; ``elapsed_s`` is the
        engine's own clock, exactly as emitted server-side.  Closing the
        generator mid-stream closes the connection — the server notices
        and releases the subscription.
        """
        connection, response = self._fresh_request(
            "GET",
            "/jobs/%s/events" % job_id,
            timeout=timeout if timeout is not None else 300.0,
        )
        try:
            if response.status != 200:
                raw = response.read()
                try:
                    data = json.loads(raw.decode("utf-8"))
                except ValueError:
                    data = {"raw": raw.decode("utf-8", "replace")}
                raise ServerError(response.status, data)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                yield ProgressEvent.from_json_dict(json.loads(line))
        finally:
            connection.close()

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """GET /healthz."""
        return self._json_call("GET", "/healthz")

    def metrics(self) -> str:
        """GET /metrics (raw Prometheus text)."""
        response = self._persistent_response("GET", "/metrics")
        raw = response.read()
        self._finish_response(response)
        if response.status >= 400:
            raise ServerError(response.status, raw)
        return raw.decode("utf-8")


__all__ = [
    "HttpServiceClient",
    "OverloadedError",
    "ServerError",
    "poll_intervals",
    "POLL_BASE_S",
    "POLL_CAP_S",
]
