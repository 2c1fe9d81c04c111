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

Each request opens its own connection (``Connection: close``); the service
is long-lived, the client deliberately simple.  Errors carry the HTTP
status and, for 429s, the parsed ``Retry-After`` hint so load generators
can implement honest backoff.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import math
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
    mid-stream, a refused connect, a torn chunked read -- which previously
    leaked out of the client untyped.  ``mid_stream`` distinguishes the two
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


class ServiceClient:
    """Blocking client for one service address.

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

    # -- plumbing -----------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload=None
    ) -> http.client.HTTPResponse:
        """Send one request; ``payload`` is a JSON document (control plane),
        or ``bytes`` already framed (sent as :data:`FRAME_MEDIA_TYPE`)."""
        # Looked up on the module at call time, and bodies are only ever read
        # through HTTPResponse.read: a caller that swaps in counting
        # subclasses of HTTPConnection / HTTPResponse sees every body byte
        # (the end-to-end benchmark measures wire bytes exactly so).
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        body = None
        headers = {"Connection": "close"}
        if isinstance(payload, bytes):
            body = payload
            headers["Content-Type"] = FRAME_MEDIA_TYPE
        elif payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
        except (ConnectionError, http.client.BadStatusLine, EOFError) as exc:
            # The server went away before answering: a drain closing the
            # listener, or a crash.  Either way the request never started
            # producing results, so it is safe to retry elsewhere/later.
            connection.close()
            raise ServiceUnavailableError(
                f"connection to {self.host}:{self.port} failed before a "
                f"response: {exc!r}"
            ) from exc
        if response.status >= 400:
            detail = ""
            try:
                detail = json.loads(response.read()).get("error", "")
            except Exception:
                pass
            retry_after_s = _retry_after_seconds(response.headers.get("Retry-After"))
            connection.close()
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
        # The caller must fully read (streams) or we read for it (_body).
        response._service_connection = connection  # keep alive until read
        return response

    def _json(self, method: str, path: str, payload=None) -> dict:
        return json.loads(self._body(method, path, payload))

    def _body(self, method: str, path: str, payload=None) -> bytes:
        """One whole response body."""
        response = self._request(method, path, payload)
        try:
            return response.read()
        except (ConnectionError, http.client.IncompleteRead) as exc:
            # The peer died after its response head (what a SIGKILLed shard
            # replica looks like): typed like a torn batch stream, so the
            # coordinator fails over instead of failing the batch.
            raise ServiceUnavailableError(
                f"response from {self.host}:{self.port} ended mid-body: {exc!r}",
                mid_stream=True,
            ) from exc
        finally:
            response._service_connection.close()

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
        results = 0
        try:
            while True:
                try:
                    frame = read_frame(response.read)
                except (ConnectionError, http.client.IncompleteRead) as exc:
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
                if frame is None:
                    break
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
                yield record
                if kind == "done":
                    break
        finally:
            response._service_connection.close()

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
