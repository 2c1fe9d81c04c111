"""The asyncio HTTP serving front-end over the private-retrieval core.

:class:`RetrievalService` turns the in-process pipeline --
:class:`~repro.textsearch.inverted_index.InvertedIndex` +
:class:`~repro.core.server.PrivateRetrievalServer` -- into a long-running
network service.  Every batch accumulates in the serving process; scale-out
is shards (the distribution roles below), not a worker pool.

* **Tenants** are named indexes, loaded from a saved directory
  (``InvertedIndex.load(mmap=True)``) or handed over live.
* **Sessions** are long-lived clients.  Opening a session binds a tenant to
  the client's Benaloh public key in a dedicated
  :class:`PrivateRetrievalServer` that **pins**
  the tenant index's current manifest snapshot
  (:meth:`~repro.textsearch.inverted_index.InvertedIndex.snapshot`) for the
  session's lifetime -- its batches read one immutable epoch with no lock
  on the query path, concurrent with the tenant's writers and merges.  A
  session answers one batch at a time (``asyncio.Lock``); concurrency comes
  from many sessions, matching the one-server-per-client-session contract
  documented on :meth:`PrivateRetrievalServer.process_batch`.  At most
  :data:`MAX_SESSIONS` are open at once; beyond that an open is refused
  ``429 + Retry-After`` until a ``DELETE`` frees a slot.
* **Frames only on the data plane**: the two accumulating routes take
  ``Content-Type: application/x-repro-frames`` (:mod:`repro.service.wire`)
  and answer ``415`` to anything else; the control plane (sessions,
  organisations, health, ``/metrics``) is JSON.
* **Streaming**: a batch POST answers with a chunked stream of frames.  The
  event loop itself steps :meth:`PrivateRetrievalServer.iter_batch` and
  writes each ``(result, counters)`` pair it yields as its own chunk the
  moment it completes, so the client observes query results in order as
  they complete, not at batch end; between queries the loop serves other connections, so concurrent
  batches interleave one query at a time.  Only a distributed session,
  whose steps wait on shard round trips, steps on an executor thread.
* **Kernel backend**: every batch accumulates on the process's
  :func:`~repro.crypto.numbertheory.get_backend`; :meth:`RetrievalService.start`
  takes that probe before binding, and ``/metrics`` ``kernel`` reports it.
* **Admission control**: batch requests pass the
  :class:`~repro.service.admission.AdmissionController` -- bounded active
  slots, bounded FIFO queue, ``429 + Retry-After`` beyond that, ``503``
  while draining.  Admitted batches always run to completion, even if the
  client disconnects mid-stream (the batch iterator is consumed to its
  end).
* **Metrics**: ``GET /metrics`` merges :class:`ServiceMetrics` (request and
  latency rollups), admission state, per-tenant
  :class:`~repro.core.server.ServerCounters` totals and the kernel section
  -- the same numbers ``pr_report`` consumes in-process, so remote and
  direct runs reconcile.

* **Distribution roles**: the same front-end binary plays both sides of the
  scatter-gather architecture (:mod:`repro.core.coordinator`).  As a **shard
  server**, ``POST /shards/{tenant}/partials`` accumulates a scattered
  sub-batch over the tenant's (shard) index and answers with epoch-stamped,
  modulus-tagged partial accumulators.  As a **coordinator front-end**,
  :meth:`RetrievalService.add_distributed_tenant` registers a tenant whose
  sessions run a :class:`~repro.core.coordinator.QueryCoordinator` over
  remote shard replicas instead of a local server -- the batch route streams
  through it unchanged, because the coordinator's ``iter_batch`` yields the
  same ``(result, counters)`` pairs as the server's.

Routes
------
==============  ======================================  =====================
GET             /healthz                                liveness + drain flag
GET             /metrics                                full metrics document
GET             /tenants                                tenant summaries
GET             /tenants/{name}/organization            shared bucket layout
POST            /sessions                               open a session
POST            /sessions/{sid}/queries                 batch -> frame stream
DELETE          /sessions/{sid}                         close a session
POST            /shards/{tenant}/partials               scatter -> partials
==============  ======================================  =====================
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import math
import secrets
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.core.buckets import BucketOrganization
from repro.core.coordinator import QueryCoordinator, ShardTopology, shard_partials
from repro.core.faults import RetryPolicy
from repro.core.server import PrivateRetrievalServer, ServerCounters
from repro.crypto import kernels, numbertheory
from repro.service import protocol
from repro.service.admission import (
    AdmissionController,
    ServiceDrainingError,
    ServiceSaturatedError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.wire import (
    FRAME_MEDIA_TYPE,
    WireError,
    decode_batch_frame,
    decode_partial_request_frame,
    decode_public_key,
    encode_counters,
    encode_frame,
    encode_organization,
    encode_result_frame,
    encode_shard_response_frame,
)
from repro.textsearch.inverted_index import InvertedIndex

__all__ = ["ServiceConfig", "RetrievalService", "chunked_organization"]

log = logging.getLogger(__name__)

#: Sessions open at once.  Each pins an index snapshot (on a live tenant: that
#: epoch's segments) until its ``DELETE``; unbounded, clients that never close
#: would grow the process without limit.
MAX_SESSIONS = 1024


def chunked_organization(index: InvertedIndex, bucket_size: int) -> BucketOrganization:
    """A deterministic bucket layout both ends can derive from the index.

    Consecutive runs of ``bucket_size`` terms in sorted dictionary order.
    The organisation is shared, non-secret state (it only drives decoy
    choice and the co-location I/O model), but client and server must agree
    on it; deriving it deterministically from the term dictionary -- and
    serving it at ``/tenants/{name}/organization`` -- guarantees that
    without shipping the organisation alongside every saved index.
    """
    terms = sorted(index.terms)
    if not terms:
        raise ValueError("cannot build an organization over an empty index")
    buckets = tuple(
        tuple(terms[start : start + bucket_size])
        for start in range(0, len(terms), bucket_size)
    )
    return BucketOrganization(
        buckets=buckets,
        bucket_size=bucket_size,
        segment_size=0,
        specificity={},
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`RetrievalService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on ``service.address``
    #: BktSz for tenants whose organisation is derived, not injected.
    bucket_size: int = 4
    #: Concurrently *executing* batch requests.
    max_active: int = 4
    #: Batch requests allowed to wait for a slot before 429s start.
    max_pending: int = 16
    #: Retry-After hint (seconds) attached to 429 responses.
    retry_after: float = 1.0
    #: Memory-map saved indexes instead of materialising them.
    mmap_indexes: bool = True

    def __post_init__(self) -> None:
        # A bucket of fewer than one term is no bucket: the derived layout
        # would be empty and every query would travel without decoys.
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be at least 1 (got {self.bucket_size})")
        if not (math.isfinite(self.retry_after) and self.retry_after >= 0):
            raise ValueError(
                f"retry_after must be a finite number of seconds >= 0 (got {self.retry_after})"
            )


@dataclass
class Tenant:
    """One named index served by the front-end.

    ``index`` is ``None`` for *distributed* tenants
    (:meth:`RetrievalService.add_distributed_tenant`): the data lives on
    remote shard servers and sessions run a
    :class:`~repro.core.coordinator.QueryCoordinator` built by
    ``coordinator_factory``.
    """

    name: str
    index: InvertedIndex | None
    organization: BucketOrganization
    #: Resolved index directory for disk-backed tenants.
    index_dir: Path | None = None
    #: Builds a per-session coordinator for distributed tenants
    #: (``public_key -> QueryCoordinator``); ``None`` for local tenants.
    coordinator_factory: object = None
    #: The replicas' clients those coordinators share; :meth:`RetrievalService.drain`
    #: closes them.
    shard_clients: tuple = ()
    #: Aggregate of every per-query counter snapshot answered for this tenant.
    totals: ServerCounters = field(default_factory=ServerCounters)
    queries_answered: int = 0
    batches_answered: int = 0

    def summary(self) -> dict:
        num_terms = (
            self.index.num_terms if self.index is not None
            else self.organization.num_terms
        )
        return {
            "name": self.name,
            "num_terms": num_terms,
            "num_buckets": self.organization.num_buckets,
            "bucket_size": self.organization.bucket_size,
            "index_dir": str(self.index_dir) if self.index_dir else None,
            "distributed": self.coordinator_factory is not None,
            "queries_answered": self.queries_answered,
            "batches_answered": self.batches_answered,
        }


@dataclass
class ClientSession:
    """One long-lived client: a tenant bound to the client's public key."""

    session_id: str
    tenant: Tenant
    server: PrivateRetrievalServer
    #: Serialises batches within the session (a PrivateRetrievalServer
    #: answers one call at a time); concurrency comes from many sessions.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    batches: int = 0


class RetrievalService:
    """The serving front-end; one instance per process, one event loop."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            max_active=self.config.max_active,
            max_pending=self.config.max_pending,
            retry_after=self.config.retry_after,
        )
        self.tenants: dict[str, Tenant] = {}
        self.sessions: dict[str, ClientSession] = {}
        self._server: asyncio.AbstractServer | None = None
        #: Open connections (handler task -> writer), for :meth:`drain` to close.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.address: tuple[str, int] | None = None

    # -- tenant management --------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        *,
        index_dir: str | Path | None = None,
        index: InvertedIndex | None = None,
        organization: BucketOrganization | None = None,
    ) -> Tenant:
        """Register a tenant from a saved index directory or a live index.

        Exactly one of ``index_dir`` / ``index`` must be given.  Disk-backed
        tenants load via ``InvertedIndex.load(mmap=...)``.
        Call before :meth:`start` (or from the service's own loop thread).
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        if (index is None) == (index_dir is None):
            raise ValueError("pass exactly one of index_dir / index")
        resolved: Path | None = None
        if index_dir is not None:
            resolved = Path(index_dir).resolve()
            index = InvertedIndex.load(resolved, mmap=self.config.mmap_indexes)
        if organization is None:
            organization = chunked_organization(index, self.config.bucket_size)
        tenant = Tenant(
            name=name,
            index=index,
            organization=organization,
            index_dir=resolved,
        )
        self.tenants[name] = tenant
        return tenant

    def add_distributed_tenant(
        self,
        name: str,
        *,
        organization: BucketOrganization,
        partitioner,
        replicas,
        expected_epochs=(),
        shard_tenant: str | None = None,
        allow_partial: bool = False,
        retry: RetryPolicy | None = None,
        timeout: float = 60.0,
    ) -> Tenant:
        """Register a tenant whose data lives on remote shard servers.

        ``replicas[s]`` lists shard ``s``'s replica addresses as ``(host,
        port)`` pairs (first preferred); each shard server must serve the
        shard's index as tenant ``shard_tenant`` (default: this tenant's
        name).  Sessions against this tenant run a
        :class:`~repro.core.coordinator.QueryCoordinator` scattering to
        those replicas over HTTP, with ``expected_epochs`` pinned for skew
        detection (pass the split's
        :attr:`~repro.core.partitioning.ShardedIndexLayout.epochs`) and
        failover under ``retry``.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        # Local import: cluster builds on the client layer, which this
        # module must stay importable without.
        from repro.service.client import ServiceClient
        from repro.service.cluster import HttpShardBackend

        shard_tenant = shard_tenant or name
        addresses = tuple(tuple(tuple(address) for address in shard) for shard in replicas)
        pinned = tuple(expected_epochs)
        policy = retry or RetryPolicy()
        # One client per replica, shared by every session's coordinator: the
        # connections kept idle to the shards are bounded by the replicas,
        # not by the sessions open.
        clients = {
            address: ServiceClient(*address, timeout=timeout)
            for shard in addresses
            for address in shard
        }

        def coordinator_factory(public_key) -> QueryCoordinator:
            topology = ShardTopology(
                partitioner=partitioner,
                replicas=tuple(
                    tuple(
                        HttpShardBackend(
                            host=host,
                            port=port,
                            tenant=shard_tenant,
                            public_key=public_key,
                            timeout=timeout,
                            client=clients[host, port],
                        )
                        for host, port in shard
                    )
                    for shard in addresses
                ),
                expected_epochs=pinned,
            )
            return QueryCoordinator(
                topology=topology,
                public_key=public_key,
                retry=policy,
                allow_partial=allow_partial,
            )

        tenant = Tenant(
            name=name,
            index=None,
            organization=organization,
            coordinator_factory=coordinator_factory,
            shard_clients=tuple(clients.values()),
        )
        self.tenants[name] = tenant
        return tenant

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("service already started")
        # Off the loop: a first probe on a machine compiles for about a second.
        await asyncio.get_running_loop().run_in_executor(None, numbertheory.get_backend)
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        log.info("serving on %s:%d", *self.address)
        return self.address

    async def drain(self, wait: bool = True) -> None:
        """Graceful shutdown: finish in-flight work, reject new, close.

        Idempotent.  New batch requests get 503 immediately; active and
        queued ones run to completion (``wait=True`` blocks until they
        have); then the listener and the connections still open (idle
        keep-alive peers) close, and so do the connections distributed
        tenants keep to their shard replicas.  Session servers own no
        threads, so there is nothing else to release.
        """
        self.admission.drain()
        if wait:
            await self.admission.wait_idle()
        if self._server is not None:
            self._server.close()
            # An idle keep-alive peer left open is still served, holds back
            # ``wait_closed`` (3.12+) and is destroyed mid-read at loop stop.
            # Closing its writer ends the handler's read, so each handler
            # leaves by its own ``finally``; looped for a peer just accepted.
            while wait and self._connections:
                for writer in self._connections.values():
                    writer.close()
                await asyncio.wait(self._connections)
            await self._server.wait_closed()
            self._server = None
        for tenant in self.tenants.values():
            for client in tenant.shard_clients:
                client.close()

    async def __aenter__(self) -> "RetrievalService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # -- connection handling ------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except protocol.ProtocolError as exc:
                    await protocol.send_json(writer, 400, {"error": str(exc)})
                    break
                if request is None:
                    break
                try:
                    keep_alive = await self._dispatch(request, writer)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception:
                    log.exception("unhandled error serving %s %s",
                                  request.method, request.path)
                    await protocol.send_json(writer, 500, {"error": "internal error"})
                    break
                if not keep_alive or request.wants_close:
                    break
        except ConnectionError:
            pass  # the peer reset while a request was being read or an error sent
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._connections[handler]

    async def _dispatch(
        self, request: protocol.HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns False when the connection must close."""
        seg = request.segments
        method = request.method
        try:
            if seg == ("healthz",) and method == "GET":
                await protocol.send_json(
                    writer,
                    200,
                    {"ok": True, "draining": self.admission.draining},
                )
            elif seg == ("metrics",) and method == "GET":
                await protocol.send_json(writer, 200, self._metrics_document())
            elif seg == ("tenants",) and method == "GET":
                await protocol.send_json(
                    writer,
                    200,
                    {"tenants": [t.summary() for t in self.tenants.values()]},
                )
            elif len(seg) == 3 and seg[0] == "tenants" and seg[2] == "organization":
                if method != "GET":
                    await self._method_not_allowed(writer, "GET")
                else:
                    await self._get_organization(seg[1], writer)
            elif seg == ("sessions",) and method == "POST":
                await self._open_session(request, writer)
            elif len(seg) == 2 and seg[0] == "sessions" and method == "DELETE":
                await self._close_session(seg[1], writer)
            elif len(seg) == 3 and seg[0] == "sessions" and seg[2] == "queries":
                if method != "POST":
                    await self._method_not_allowed(writer, "POST")
                else:
                    return await self._run_batch(seg[1], request, writer)
            elif len(seg) == 3 and seg[0] == "shards" and seg[2] == "partials":
                if method != "POST":
                    await self._method_not_allowed(writer, "POST")
                else:
                    await self._shard_partials(seg[1], request, writer)
            else:
                await protocol.send_json(
                    writer, 404, {"error": f"no route for {method} {request.path}"}
                )
        except (WireError, protocol.ProtocolError) as exc:
            await protocol.send_json(writer, 400, {"error": str(exc)})
        return True

    @staticmethod
    async def _method_not_allowed(writer: asyncio.StreamWriter, allow: str) -> None:
        await protocol.send_json(
            writer, 405, {"error": "method not allowed"}, headers={"Allow": allow}
        )

    # -- read-only routes ---------------------------------------------------------
    def _metrics_document(self) -> dict:
        tenants = {}
        for tenant in self.tenants.values():
            tenants[tenant.name] = {
                "queries_answered": tenant.queries_answered,
                "batches_answered": tenant.batches_answered,
                "totals": encode_counters(tenant.totals),
            }
        return {
            "service": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "sessions_active": len(self.sessions),
            "tenants": tenants,
            # Reasons and counts only (core/risk.py): which backend serves,
            # why not the kernel, and how often a payload left its envelope.
            "kernel": {
                "backend": numbertheory.get_backend(),
                "reason": kernels.resolve_backend()[1],
                "fallbacks": kernels.fallback_counts(),
            },
        }

    async def _get_organization(self, name: str, writer) -> None:
        tenant = self.tenants.get(name)
        if tenant is None:
            await protocol.send_json(writer, 404, {"error": f"no tenant {name!r}"})
            return
        payload = encode_organization(tenant.organization)
        payload["tenant"] = tenant.name
        payload["num_terms"] = (
            tenant.index.num_terms if tenant.index is not None
            else tenant.organization.num_terms
        )
        await protocol.send_json(writer, 200, payload)

    # -- session routes -----------------------------------------------------------
    async def _open_session(self, request, writer) -> None:
        body = request.json()
        if not isinstance(body, dict):
            raise WireError("session request must be a JSON object")
        name = body.get("tenant")
        if not isinstance(name, str):  # a list or object is not even hashable
            raise WireError("session request must name its tenant as a string")
        tenant = self.tenants.get(name)
        if tenant is None:
            await protocol.send_json(writer, 404, {"error": f"no tenant {name!r}"})
            return
        public_key = decode_public_key(body.get("public_key"))
        if len(self.sessions) >= MAX_SESSIONS:
            full = f"{len(self.sessions)} sessions open (limit {MAX_SESSIONS})"
            await self._reply_saturated(writer, full, self.config.retry_after)
            return
        session_id = secrets.token_hex(8)
        # Pin the tenant's current manifest epoch for the session's whole
        # lifetime: the session server reads an immutable IndexSnapshot, so
        # every batch this client streams is answered from the same frozen
        # segment manifest no matter what seals/merges/compactions the live
        # tenant index commits meanwhile (snapshot() is lock-free when the
        # index hasn't changed, so sessions over a quiescent tenant share
        # one handle).
        if tenant.coordinator_factory is not None:
            # Distributed tenant: the session's "server" is a coordinator
            # scattering to shard replicas.  Its iter_batch yields the same
            # (result, counters) pairs, so the batch route streams through it
            # unchanged; epoch pinning happens shard-side (the coordinator
            # rejects replicas that drift from its pinned epochs).
            server = tenant.coordinator_factory(public_key)
        else:
            server = PrivateRetrievalServer(
                index=tenant.index.snapshot(),
                organization=tenant.organization,
                public_key=public_key,
            )
        self.sessions[session_id] = ClientSession(
            session_id=session_id, tenant=tenant, server=server
        )
        self.metrics.sessions_opened += 1
        await protocol.send_json(
            writer, 200, {"session": session_id, "tenant": tenant.name}
        )

    async def _close_session(self, session_id: str, writer) -> None:
        session = self.sessions.pop(session_id, None)
        if session is None:
            await protocol.send_json(
                writer, 404, {"error": "no such session"}
            )
            return
        session.server.close()
        self.metrics.sessions_closed += 1
        await protocol.send_json(
            writer, 200, {"closed": session_id, "batches": session.batches}
        )

    # -- the batch route ----------------------------------------------------------
    async def _run_batch(self, session_id: str, request, writer) -> bool:
        """POST /sessions/{sid}/queries -> chunked stream of result frames.

        Returns False when the response left the connection unusable
        (mid-stream write failure); True to keep the connection alive.
        """
        session = self.sessions.get(session_id)
        if session is None:
            await protocol.send_json(writer, 404, {"error": "no such session"})
            return True
        if not await self._frames_only(request, writer):
            return True
        # Validate every selector ciphertext against the session key's
        # modulus: values outside Z*_n were never produced by this key and
        # must bounce as a 400, not silently accumulate in the wrong ring.
        queries = decode_batch_frame(request.body, session.server.public_key.n)
        if not queries:
            raise WireError("batch must contain at least one query")

        kept = await self._admitted(
            writer, partial(self._stream_batch, session, queries, writer), session.lock
        )
        return True if kept is None else kept

    @staticmethod
    async def _frames_only(request, writer) -> bool:
        """Whether ``request`` carries frames; if not, it is answered ``415``.

        The data plane has one codec.  The body has been read whole, so the
        connection stays usable for the peer's next request.
        """
        if request.content_type == FRAME_MEDIA_TYPE:
            return True
        await protocol.send_json(
            writer,
            415,
            {
                "error": f"this route takes Content-Type {FRAME_MEDIA_TYPE} only "
                f"(got {request.content_type or 'none'!r})"
            },
        )
        return False

    async def _admitted(self, writer, work, lock=None):
        """Run ``await work(queue_wait_s)`` under an admission permit.

        The one admission prologue/epilogue of every accumulating route:
        beyond the queue bound the request is answered ``429 + Retry-After``,
        while draining ``503`` (both return ``None`` without calling
        ``work``); an admitted request is metered, serialised on ``lock``
        when the route shares a server between requests (a session's
        PrivateRetrievalServer answers one call at a time) and always
        releases its permit.
        """
        request_started = time.monotonic()
        try:
            permit = await self.admission.admit()
        except ServiceSaturatedError as exc:
            await self._reply_saturated(writer, str(exc), exc.retry_after)
            return None
        except ServiceDrainingError as exc:
            self.metrics.rejected_draining += 1
            await protocol.send_json(writer, 503, {"error": str(exc)})
            return None

        self.metrics.requests_admitted += 1
        self.metrics.requests_active += 1
        self.metrics.queue_wait.record(permit.queue_wait_s * 1000.0)
        try:
            async with lock or contextlib.nullcontext():
                return await work(permit.queue_wait_s)
        finally:
            permit.release()
            self.metrics.requests_active -= 1
            self.metrics.request_time.record(
                (time.monotonic() - request_started) * 1000.0
            )

    async def _reply_saturated(self, writer, error: str, retry_after: float) -> None:
        """``429 + Retry-After``: a bound is full (admission queue, session table)."""
        self.metrics.rejected_saturated += 1
        await protocol.send_json(
            writer,
            429,
            {"error": error, "retry_after": retry_after},
            headers={"Retry-After": f"{retry_after:g}"},
        )

    # -- the shard-server role ----------------------------------------------------
    async def _shard_partials(self, name: str, request, writer) -> None:
        """POST /shards/{tenant}/partials -> epoch-stamped partial accumulators.

        The shard server never sees the whole query -- only the slice of
        ``(term, selector)`` pairs routed to it -- and cannot tell genuine
        terms from decoys any more than a single-node server can.  The
        response tags the modulus the partials were accumulated under and
        stamps the shard's data epoch so the coordinator can reject skew.
        """
        tenant = self.tenants.get(name)
        if tenant is None:
            await protocol.send_json(writer, 404, {"error": f"no tenant {name!r}"})
            return
        if tenant.index is None:
            await protocol.send_json(
                writer,
                400,
                {"error": f"tenant {name!r} is distributed; it holds no shard data"},
            )
            return
        if not await self._frames_only(request, writer):
            return
        public_key, queries = decode_partial_request_frame(request.body)
        # Built per request and dropped with it: power-table plans are
        # memoised process-wide, so a resident per-key server would only grow
        # with every key ever seen.
        server = PrivateRetrievalServer(
            index=tenant.index,
            organization=tenant.organization,
            public_key=public_key,
        )

        async def accumulate(_queue_wait_s):
            return shard_partials(server, queries)

        response = await self._admitted(writer, accumulate)
        if response is None:
            return

        self.metrics.queries_total += len(queries)
        tenant.batches_answered += 1
        tenant.queries_answered += len(queries)
        for snapshot in response.counters:
            tenant.totals.add(snapshot)
        answer = encode_shard_response_frame(
            response.epoch, response.modulus, response.partials, response.counters
        )
        await protocol.send_body(writer, 200, answer, FRAME_MEDIA_TYPE)

    async def _stream_batch(self, session, queries, writer, queue_wait_s) -> bool:
        """Run one admitted batch to completion, streaming one frame per record.

        The batch iterator runs on the event loop, one query per step, and
        the loop serves other connections between steps.  A distributed
        session's steps block on shard round trips, so each of those runs on
        an executor thread.  A client that disconnects mid-stream, or a
        result no frame can carry, stops the stream but never cancels
        admitted work: the iterator runs to its end.
        """
        batch = session.server.iter_batch(queries)
        remote = session.tenant.coordinator_factory is not None
        loop = asyncio.get_running_loop()
        writable = True
        failure: Exception | None = None
        service_s = 0.0
        answered = 0
        batch_totals = ServerCounters()
        try:
            await protocol.start_chunked(writer, 200, content_type=FRAME_MEDIA_TYPE)
        except ConnectionError:
            writable = False

        while True:
            started = time.monotonic()
            try:
                if remote:
                    pair = await loop.run_in_executor(None, next, batch, None)
                else:
                    pair = next(batch, None)
            except Exception as exc:  # surfaced to the client as an error record
                failure = exc
                break
            service_s += time.monotonic() - started
            if pair is None:
                break
            result, counters = pair
            answered += 1
            batch_totals.add(counters)
            self.metrics.queries_total += 1
            self.metrics.query_time.record(service_s * 1000.0)
            if writable and failure is None:
                record = {
                    "kind": "result",
                    "index": answered - 1,
                    "counters": encode_counters(counters),
                    "ms": round(service_s * 1000.0, 3),
                }
                try:
                    data = encode_result_frame(record, result)
                except WireError as exc:
                    # A result a frame cannot carry (a document id past
                    # 32 bits): the head is out, so this is no 400 -- the
                    # stream ends in an error record, as on an accumulation
                    # error, once the batch has run to its end.
                    failure = exc
                else:
                    writable = await self._write_record(writer, data)
            if not remote:
                await asyncio.sleep(0)  # other connections take their turn

        if failure is None:
            self.metrics.service_time.record(service_s * 1000.0)
            record = {
                "kind": "done",
                "queries": answered,
                "service_ms": round(service_s * 1000.0, 3),
                "queue_wait_ms": round(queue_wait_s * 1000.0, 3),
                "counters": encode_counters(batch_totals),
            }
        else:
            self.metrics.requests_failed += 1
            log.exception("batch failed", exc_info=failure)
            record = {"kind": "error", "error": str(failure)}
        if writable:
            writable = await self._write_record(writer, encode_frame(record))
        session.batches += 1
        session.tenant.batches_answered += 1
        session.tenant.queries_answered += answered
        session.tenant.totals.add(batch_totals)
        if writable:
            try:
                await protocol.end_chunked(writer)
            except ConnectionError:
                writable = False
        # An error record terminates the stream early; close the connection so
        # the client cannot misread the next response as the stream's tail.
        return writable and failure is None

    @staticmethod
    async def _write_record(writer, data: bytes) -> bool:
        try:
            await protocol.send_chunk(writer, data)
            return True
        except ConnectionError:
            return False
