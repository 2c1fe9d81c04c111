"""A blocking HTTP client for the serving front-end (stdlib only).

Built on :mod:`http.client` so tests, the load generator and operators'
scripts can talk to a running :class:`~repro.service.app.RetrievalService`
without any dependency beyond the standard library.  The client mirrors the
service's routes one-to-one and speaks the fixed-width frame codec of
:mod:`repro.service.wire` on the two accumulating routes, the only codec
they take (JSON on the control plane):
:meth:`ServiceClient.submit_batch` yields each record of the chunked batch
stream as the service writes it, so a caller observes streaming order and
latency exactly as a real client would.

The client keeps one idle HTTP/1.1 keep-alive connection and reuses it for
the next request.  A connection goes back into that slot only once its
response has been read to the end; an error, or a stream its caller
abandons, closes it instead.  A request that fails on a reused connection
before any response byte (the server closed the idle peer, so the request
never ran) is sent once more on a fresh one.  :meth:`ServiceClient.close`
(or a ``with`` block) releases the idle connection.  Errors carry the HTTP
status and, for 429s, the parsed ``Retry-After`` hint so load generators
can implement honest backoff.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import math
import threading
import time
from typing import Iterator, Sequence

from repro.core.embellish import EmbellishedQuery
from repro.core.server import EncryptedResult
from repro.crypto.benaloh import BenalohPublicKey
from repro.service.wire import (
    FRAME_MEDIA_TYPE,
    WireError,
    decode_organization,
    decode_result_frame,
    decode_shard_response_frame,
    encode_batch_frame,
    encode_partial_request_frame,
    encode_public_key,
    read_frame,
)

__all__ = ["ServiceError", "ServiceUnavailableError", "ServiceClient"]


class ServiceError(RuntimeError):
    """A non-2xx response; carries the status and any ``Retry-After`` hint."""

    def __init__(self, status: int, detail: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """The service cannot answer right now -- but retrying may work.

    Raised for a 503 (the service told us it is draining) *and* for raw
    connection failures -- ``ConnectionResetError`` when the server drains
    mid-stream, a refused connect, a torn chunked read, a socket timeout --
    which previously leaked out of the client untyped.  ``mid_stream`` distinguishes the two
    failure shapes that matter to a caller holding partial results: ``False``
    means the request never produced any result (safe to resubmit
    wholesale), ``True`` means the stream died after delivery started (the
    batch may have partially executed server-side; resubmitting re-runs it).
    ``transient`` is duck-typed truthy so the coordinator's replica failover
    (:func:`repro.core.faults.retryable`) classifies this as retryable
    without importing the service layer.
    """

    transient = True

    def __init__(
        self,
        detail: str,
        retry_after: float | None = None,
        *,
        mid_stream: bool = False,
    ):
        super().__init__(503, detail, retry_after)
        self.mid_stream = mid_stream


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` hint in seconds: delta-seconds, or an HTTP-date as
    seconds from now clamped at 0 (RFC 9110 §10.2.3); ``None`` if absent,
    unparseable, negative or not finite -- a caller sleeps on it."""
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        pass
    else:
        return seconds if math.isfinite(seconds) and seconds >= 0 else None
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


#: A request failed before its response head: the server went away (a drain
#: closing the listener, a crash) or fell silent.
_BEFORE_RESPONSE = (ConnectionError, http.client.BadStatusLine, EOFError, TimeoutError)
#: A response failed after its head: the peer died or fell silent mid-body.
_MID_RESPONSE = (ConnectionError, http.client.IncompleteRead, TimeoutError)


class ServiceClient:
    """Blocking client for one service address.

    Threads may share one client: a request takes the idle connection if
    there is one and opens another otherwise, so concurrent requests never
    share a connection.

    Parameters
    ----------
    host, port:
        Where the service listens (``RetrievalService.address``).
    timeout:
        Socket timeout in seconds for every request, including each read of
        a streamed batch record.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: http.client.HTTPConnection | None = None
        self._idle_lock = threading.Lock()

    # -- connections --------------------------------------------------------------
    def close(self) -> None:
        """Close the idle connection; a later request opens a new one."""
        with self._idle_lock:
            connection, self._idle = self._idle, None
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self) -> http.client.HTTPConnection:
        # Looked up on the module when a connection opens, and bodies are only
        # ever read through HTTPResponse.read: a caller that swaps in counting
        # subclasses of HTTPConnection / HTTPResponse before the client's
        # first connection sees every body byte (the end-to-end benchmark
        # measures wire bytes exactly so).
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _release(self, response: http.client.HTTPResponse) -> None:
        """Put ``response``'s connection back into the idle slot if the
        response was read to its end and the server kept the connection open;
        close it otherwise."""
        connection = response._service_connection
        if response.isclosed() and connection.sock is not None:
            with self._idle_lock:
                if self._idle is None:
                    self._idle, connection = connection, None
        if connection is not None:
            connection.close()

    # -- plumbing -----------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload=None
    ) -> http.client.HTTPResponse:
        """Send one request; ``payload`` is a JSON document (control plane),
        or ``bytes`` already framed (sent as :data:`FRAME_MEDIA_TYPE`).

        The caller reads the response and hands it to :meth:`_release`.
        """
        body = None
        headers = {}
        if isinstance(payload, bytes):
            body = payload
            headers["Content-Type"] = FRAME_MEDIA_TYPE
        elif payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._idle_lock:
            connection, self._idle = self._idle, None
        reused = connection is not None
        if not reused:
            connection = self._connect()
        while True:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except _BEFORE_RESPONSE as exc:
                connection.close()
                if reused and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                    # The server closed this idle connection before reading
                    # the request (RemoteDisconnected is a reset too), so the
                    # request never ran: send it once more, on a fresh one.
                    connection, reused = self._connect(), False
                    continue
                # The server went away or fell silent before answering: a
                # drain closing the listener, or a crash.  Either way the
                # request never started producing results, so it is safe to
                # retry elsewhere/later.
                raise ServiceUnavailableError(
                    f"connection to {self.host}:{self.port} failed before a "
                    f"response: {exc!r}"
                ) from exc
            break
        response._service_connection = connection
        if response.status >= 400:
            detail = ""
            try:
                detail = json.loads(response.read()).get("error", "")
            except Exception:
                pass
            retry_after_s = _retry_after_seconds(response.headers.get("Retry-After"))
            self._release(response)
            if response.status == 503:
                # The service *said* it is unavailable (draining): typed, so
                # callers distinguish an orderly drain from a crash.
                raise ServiceUnavailableError(
                    detail or response.reason, retry_after_s
                )
            raise ServiceError(
                response.status,
                detail or response.reason,
                retry_after_s,
            )
        return response

    def _json(self, method: str, path: str, payload=None) -> dict:
        return json.loads(self._body(method, path, payload))

    def _body(self, method: str, path: str, payload=None) -> bytes:
        """One whole response body."""
        response = self._request(method, path, payload)
        try:
            return response.read()
        except _MID_RESPONSE as exc:
            # The peer died after its response head (what a SIGKILLed shard
            # replica looks like): typed like a torn batch stream, so the
            # coordinator fails over instead of failing the batch.
            raise ServiceUnavailableError(
                f"response from {self.host}:{self.port} ended mid-body: {exc!r}",
                mid_stream=True,
            ) from exc
        finally:
            self._release(response)

    # -- read-only routes ---------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict:
        return self._json("GET", "/metrics")

    def tenants(self) -> list[dict]:
        return self._json("GET", "/tenants")["tenants"]

    def organization(self, tenant: str):
        """The tenant's shared bucket layout as a
        :class:`~repro.core.buckets.BucketOrganization`."""
        return decode_organization(self._json("GET", f"/tenants/{tenant}/organization"))

    # -- sessions -----------------------------------------------------------------
    def open_session(self, tenant: str, public_key: BenalohPublicKey) -> str:
        payload = {"tenant": tenant, "public_key": encode_public_key(public_key)}
        return self._json("POST", "/sessions", payload)["session"]

    def close_session(self, session_id: str) -> dict:
        return self._json("DELETE", f"/sessions/{session_id}")

    # -- batches ------------------------------------------------------------------
    def submit_batch(
        self,
        session_id: str,
        queries: Sequence[EmbellishedQuery],
        modulus: int,
    ) -> Iterator[dict]:
        """Stream one batch; yields each record of the stream as a dict.

        Records arrive in query order: ``kind == "result"`` records carry
        ``index`` (result ``k`` of the stream must say ``k``: position alone
        would hand one query another's candidates), per-query ``counters``,
        ``ms`` and ``result`` -- the decoded :class:`EncryptedResult`, every
        score checked against ``modulus`` (the session public key's ``n``,
        which also sizes the frames); the final ``kind == "done"`` record
        carries batch totals and timings.  A ``kind == "error"`` record (the
        batch failed server-side after admission) is raised as
        :class:`ServiceError` with status 500, a malformed record as
        :class:`~repro.service.wire.WireError`.
        """
        response = self._request(
            "POST", f"/sessions/{session_id}/queries", encode_batch_frame(queries, modulus)
        )

        def read(n: int) -> bytes:
            try:
                return response.read(n)
            except _MID_RESPONSE as exc:
                # The stream died after the response started: the server
                # drained or crashed mid-batch.  Surface it typed (with
                # mid_stream set) instead of leaking a raw
                # ConnectionResetError, so callers can tell an orderly
                # drain from a protocol bug and know delivery had begun.
                raise ServiceUnavailableError(
                    f"stream from {self.host}:{self.port} ended "
                    f"mid-batch: {exc!r}",
                    mid_stream=True,
                ) from exc

        results = 0
        released = False
        try:
            while (frame := read_frame(read)) is not None:
                record, body = frame
                kind = record.get("kind")
                if kind == "error":
                    raise ServiceError(500, record.get("error", "batch failed"))
                if kind == "result":
                    index = record.get("index")
                    if type(index) is not int or index != results:
                        raise WireError(f"result {results} of the stream says index {index!r}")
                    results += 1
                    record["result"] = decode_result_frame(record, body, modulus)
                elif body:
                    raise WireError(f"{len(body)} trailing bytes on a {kind!r} frame")
                if kind == "done":
                    # Read through the chunked terminator, so the connection
                    # is back in the idle slot before the caller sees done.
                    if read(1):
                        raise WireError("bytes after the done record")
                    self._release(response)
                    released = True
                yield record
                if kind == "done":
                    break
        finally:
            if not released:
                self._release(response)

    def run_batch(
        self,
        session_id: str,
        queries: Sequence[EmbellishedQuery],
        modulus: int,
    ) -> tuple[list[EncryptedResult], dict]:
        """Submit a batch and collect it fully: ``(results, done_record)``.

        ``results[i]`` is query ``i``'s :class:`EncryptedResult` (the stream
        is order-preserving).  Raises :class:`ServiceError` if the stream
        ends without a ``done`` record (connection cut mid-batch).
        """
        results: list[EncryptedResult] = []
        done: dict | None = None
        for record in self.submit_batch(session_id, queries, modulus):
            if record["kind"] == "result":
                results.append(record["result"])
            elif record["kind"] == "done":
                done = record
        if done is None:
            raise ServiceError(500, "stream ended without a done record")
        if len(results) != len(queries):
            raise ServiceError(
                500, f"stream delivered {len(results)}/{len(queries)} results"
            )
        return results, done

    # -- the shard-server role ----------------------------------------------------
    def shard_partials(self, tenant: str, public_key: BenalohPublicKey, subqueries):
        """Scatter ``(terms, selectors)`` sub-queries to the tenant's partials
        route; the :class:`~repro.core.coordinator.ShardResponse` it answers."""
        payload = encode_partial_request_frame(public_key, subqueries)
        body = self._body("POST", f"/shards/{tenant}/partials", payload)
        return decode_shard_response_frame(body, public_key.n)
