"""The distribution layer over real sockets: the scatter-gather wire format,
typed connection-failure translation, the shard partials route, and a full
multi-process cluster behind the front-end.

Everything here runs against actual services -- background-thread runners for
the HTTP surface, genuine child processes for the cluster test -- because the
failure modes under test (mid-stream resets, SIGKILLed replicas) only exist
on real connections.
"""

from __future__ import annotations

import gc
import json
import random
import socket
import threading

import pytest

from repro.core.coordinator import LocalShardBackend, data_epoch
from repro.core.embellish import EmbellishedQuery
from repro.core.partitioning import HashPartitioner, save_sharded
from repro.core.server import EncryptedResult, PrivateRetrievalServer, ServerCounters
from repro.crypto.benaloh import generate_keypair
from repro.service import (
    RetrievalService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceRunner,
    ServiceUnavailableError,
)
from repro.service.cluster import HttpShardBackend, LocalShardCluster
from repro.service.wire import (
    FRAME_MEDIA_TYPE,
    WireError,
    decode_counters,
    decode_partial_request,
    decode_query,
    decode_shard_response,
    encode_batch_frame,
    encode_counters,
    encode_frame,
    encode_int,
    encode_partial_request,
    encode_partial_request_frame,
    encode_public_key,
    encode_result_frame,
    encode_shard_response,
)


# -- wire codecs -------------------------------------------------------------------
def test_partial_request_round_trip(benaloh_keypair):
    subqueries = [
        (["alpha", "beta"], [17, 23]),
        (["gamma"], [benaloh_keypair.public.n - 1]),
    ]
    payload = json.loads(
        json.dumps(encode_partial_request(benaloh_keypair.public, subqueries))
    )
    public_key, queries = decode_partial_request(payload)
    assert public_key == benaloh_keypair.public
    assert [(list(q.terms), list(q.encrypted_selectors)) for q in queries] == [
        (list(t), list(s)) for t, s in subqueries
    ]


def test_shard_response_round_trip(benaloh_keypair):
    modulus = benaloh_keypair.public.n
    counters = ServerCounters()
    counters.modular_multiplications = 41
    counters.queries_processed = 1
    payload = json.loads(
        json.dumps(
            encode_shard_response(7, modulus, [{3: 19, 11: modulus - 1}], [counters])
        )
    )
    response = decode_shard_response(payload)
    assert response.epoch == 7
    assert response.modulus == modulus
    assert response.partials == ({3: 19, 11: modulus - 1},)
    assert response.counters[0].modular_multiplications == 41
    assert response.counters[0].queries_processed == 1
    # One counter set per partial, never silently truncated to the shorter.
    with pytest.raises(ValueError):
        encode_shard_response(7, modulus, [{3: 19}, {4: 2}], [counters])


def test_counters_codec_tolerates_schema_drift():
    counters = ServerCounters()
    counters.blocks_read = 5
    encoded = encode_counters(counters)
    encoded["a_future_counter"] = 99  # newer shard, older coordinator
    decoded = decode_counters(encoded)
    assert decoded.blocks_read == 5
    assert decode_counters({}).blocks_read == 0  # missing defaults to zero
    with pytest.raises(WireError):
        decode_counters({"blocks_read": "five"})


# -- satellite (b): ciphertexts validated against the tenant's modulus -------------
def test_decode_query_rejects_out_of_ring_selectors(benaloh_keypair):
    modulus = benaloh_keypair.public.n
    for bad in (0, modulus, modulus + 12):
        with pytest.raises(WireError, match="modulus"):
            decode_query(
                {"terms": ["a"], "selectors": [encode_int(bad)]}, modulus
            )
    # In-ring values pass, and no modulus means no ring check (legacy paths).
    decode_query({"terms": ["a"], "selectors": [encode_int(modulus - 1)]}, modulus)
    decode_query({"terms": ["a"], "selectors": [encode_int(modulus + 12)]})


def test_decode_partial_request_rejects_out_of_ring_selectors(benaloh_keypair):
    payload = encode_partial_request(
        benaloh_keypair.public, [(["a"], [benaloh_keypair.public.n])]
    )
    with pytest.raises(WireError, match="modulus"):
        decode_partial_request(payload)


def test_decode_shard_response_rejects_out_of_ring_scores(benaloh_keypair):
    modulus = benaloh_keypair.public.n
    payload = encode_shard_response(1, modulus, [{4: modulus + 3}], [ServerCounters()])
    with pytest.raises(WireError, match="modulus"):
        decode_shard_response(payload)


def test_service_rejects_out_of_ring_selector_with_400(
    running_service, benaloh_keypair, embellisher, query_terms
):
    """Regression: a ciphertext at/above the session modulus must bounce as a
    400 on the batch route, never reach accumulation."""
    _, client = running_service()
    modulus = benaloh_keypair.public.n
    session = client.open_session("corpus", benaloh_keypair.public)
    query = embellisher.embellish(query_terms[:2])
    bad = EmbellishedQuery(query.terms, (modulus, *query.encrypted_selectors[1:]))
    with pytest.raises(ServiceError) as excinfo:
        client._body("POST", f"/sessions/{session}/queries", encode_batch_frame([bad], modulus))
    assert excinfo.value.status == 400


def test_partials_route_rejects_out_of_ring_selector_with_400(
    running_service, benaloh_keypair
):
    _, client = running_service()
    key = benaloh_keypair.public
    payload = encode_partial_request_frame(key, [(["anything"], [key.n])])
    with pytest.raises(ServiceError) as excinfo:
        client._body("POST", "/shards/corpus/partials", payload)
    assert excinfo.value.status == 400


# -- satellite (a): typed connection-failure translation ---------------------------
def test_connect_refused_is_typed_unavailable():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = ServiceClient("127.0.0.1", port, timeout=2.0)
    with pytest.raises(ServiceUnavailableError) as excinfo:
        client.health()
    assert excinfo.value.transient is True
    assert excinfo.value.mid_stream is False
    assert excinfo.value.status == 503


def test_drain_503_is_typed_unavailable(
    running_service, benaloh_keypair, embellisher, query_terms
):
    """A draining service answers batches with 503; the client surfaces it as
    the same typed error as a connection failure (drain before any response:
    ``mid_stream`` stays False, the batch is safe to resubmit elsewhere)."""
    service, client = running_service()
    session = client.open_session("corpus", benaloh_keypair.public)
    service.admission.drain()
    query = embellisher.embellish(query_terms[:2])
    with pytest.raises(ServiceUnavailableError) as excinfo:
        client.run_batch(session, [query], benaloh_keypair.public.n)
    assert excinfo.value.mid_stream is False
    assert excinfo.value.transient is True


class _AbortingServer:
    """A raw socket server that dies on purpose, deterministically.

    ``mode="pre-response"`` accepts and slams the connection shut before any
    bytes of response; ``mode="mid-stream"`` sends valid headers plus one
    record (the frame ``first``) of a chunked batch stream, then resets --
    exactly what a crashing service looks like to a client holding partial
    results.  The reset waits until the test says it has read that record
    (``first_read``): a RST racing the read discards it, a recorded flake.
    """

    def __init__(self, mode: str, first: bytes = b""):
        self.mode, self.first = mode, first
        self.first_read = threading.Event()
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        conn.recv(65536)  # drain the request
        if self.mode == "mid-stream":
            conn.sendall(
                (
                    "HTTP/1.1 200 OK\r\n"
                    f"Content-Type: {FRAME_MEDIA_TYPE}\r\n"
                    "Transfer-Encoding: chunked\r\n"
                    f"\r\n{len(self.first):x}\r\n"
                ).encode()
                + self.first + b"\r\n"
            )
            self.first_read.wait(timeout=10)
        if self.mode == "truncated-body":
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n" + b"x" * 10)
            conn.close()
            return
        # RST instead of FIN: linger(on, 0) makes close() reset the peer,
        # which is what an abrupt process death produces.
        import struct

        conn.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        conn.close()

    def close(self):
        self.first_read.set()
        self.listener.close()
        self.thread.join(timeout=5)


def _first_record(scores: dict, modulus: int) -> bytes:
    """One result frame carrying ``scores``."""
    return encode_result_frame({"kind": "result", "index": 0}, EncryptedResult(scores, modulus))


def test_pre_response_reset_is_typed_unavailable():
    server = _AbortingServer("pre-response")
    try:
        client = ServiceClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.health()
        assert excinfo.value.mid_stream is False, "no response started: resubmittable"
    finally:
        server.close()


def test_mid_stream_reset_is_typed_unavailable_with_mid_stream_flag():
    """Regression for the raw ``ConnectionResetError`` that used to leak out
    of ``submit_batch`` when the server died mid-stream."""
    server = _AbortingServer("mid-stream", _first_record({}, 97))
    try:
        client = ServiceClient("127.0.0.1", server.port, timeout=5.0)
        lines = []
        with pytest.raises(ServiceUnavailableError) as excinfo:
            for line in client.submit_batch("session", [], modulus=97):
                lines.append(line)
                server.first_read.set()
        assert excinfo.value.mid_stream is True, "delivery had begun: not resubmittable"
        assert excinfo.value.transient is True
        assert lines and lines[0]["kind"] == "result"
    finally:
        server.close()


def test_out_of_ring_result_is_a_typed_error_from_run_batch():
    """Regression: the client took any integer for a score, so a corrupted
    or wrong-key answer decrypted to garbage instead of failing typed."""
    for bad in (0, 97):
        server = _AbortingServer("mid-stream", _first_record({4: bad}, 97))
        try:
            client = ServiceClient("127.0.0.1", server.port, timeout=5.0)
            with pytest.raises(WireError, match="modulus"):
                client.run_batch("session", [], modulus=97)
        finally:
            server.close()


def test_result_records_must_carry_their_stream_position_as_index():
    """Regression: results were attributed by arrival order alone, so a
    stream with swapped or repeated ``index`` values handed query 0 the
    other query's candidates without an error."""
    queries = [EmbellishedQuery(("alpha",), (2,)), EmbellishedQuery(("beta",), (3,))]
    results = [EncryptedResult({4: 5}, 97), EncryptedResult({9: 6}, 97)]

    def run_batch(*records):
        stream = b"".join(encode_result_frame(*pair) for pair in zip(records, results))
        server = _AbortingServer("mid-stream", stream + encode_frame({"kind": "done"}))
        try:
            client = ServiceClient("127.0.0.1", server.port, timeout=5.0)
            return client.run_batch("session", queries, modulus=97)
        finally:
            server.close()

    for indices in ((1, 0), (1, 1), (0, 0), (0, 2), (0, None), (False, 1), (0, "1"), (0, 1.0)):
        with pytest.raises(WireError, match="index"):
            run_batch(*({"kind": "result", "index": index} for index in indices))
    with pytest.raises(WireError, match="index"):
        run_batch({"kind": "result"}, {"kind": "result", "index": 1})
    got, done = run_batch({"kind": "result", "index": 0}, {"kind": "result", "index": 1})
    assert got == results and done == {"kind": "done"}


# -- the shard partials route ------------------------------------------------------
def test_http_backend_matches_local_backend(
    running_service, index, service_org, benaloh_keypair, embellisher, query_terms
):
    """The HTTP shard backend must be observationally identical to the
    in-process reference backend: same partials, same modulus tag, and an
    epoch stamp matching the served index's data epoch."""
    service, client = running_service()
    query = embellisher.embellish(query_terms[:3])
    subqueries = [(list(query.terms), list(query.encrypted_selectors))]

    local = LocalShardBackend(
        PrivateRetrievalServer(
            index=index, organization=service_org, public_key=benaloh_keypair.public
        )
    )
    in_process = local.accumulate(subqueries)
    remote = HttpShardBackend(
        host=client.host, port=client.port, tenant="corpus", public_key=benaloh_keypair.public
    )
    over_http = remote.accumulate(subqueries)
    assert over_http == in_process
    assert [list(p) for p in over_http.partials] == [list(p) for p in in_process.partials]
    assert over_http.modulus == benaloh_keypair.public.n
    assert over_http.epoch == data_epoch(index)
    assert over_http.counters[0].modular_multiplications > 0


def test_replica_truncating_its_response_body_is_failed_over(
    running_service, index, service_org, benaloh_keypair, embellisher, query_terms
):
    """Regression: a replica dying after its response head left the client
    as a raw ``http.client.IncompleteRead`` -- not retryable, so the batch
    failed instead of failing over to the live replica."""
    from repro.core.coordinator import QueryCoordinator, ShardTopology
    from repro.core.faults import RetryPolicy

    _, client = running_service()
    truncating = _AbortingServer("truncated-body")
    try:
        replicas = tuple(
            HttpShardBackend(
                host="127.0.0.1", port=port, tenant="corpus",
                public_key=benaloh_keypair.public, timeout=5.0,
            )
            for port in (truncating.port, client.port)
        )
        coordinator = QueryCoordinator(
            topology=ShardTopology(HashPartitioner(num_shards=1), (replicas,)),
            public_key=benaloh_keypair.public,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        )
        queries = [embellisher.embellish(query_terms[i : i + 2]) for i in range(2)]
        got = coordinator.process_batch(queries)
    finally:
        truncating.close()
    oracle = PrivateRetrievalServer(
        index=index, organization=service_org, public_key=benaloh_keypair.public
    )
    expected = oracle.process_batch(queries)
    assert [r.encrypted_scores for r in got] == [r.encrypted_scores for r in expected]
    assert coordinator.counters.tasks_retried == 1
    assert coordinator.counters.modular_multiplications == (
        oracle.counters.modular_multiplications
    )


def test_partials_route_retains_no_per_key_server(
    running_service, index, service_org, query_terms
):
    """A shard answers any number of client keys without growing: the
    accumulation server of a partials request lives exactly as long as the
    request (it used to be cached per (tenant, key), forever)."""
    _, client = running_service()
    subqueries = [(list(query_terms[:3]), [2, 3, 5])]

    def live_servers() -> int:
        gc.collect()
        return sum(isinstance(o, PrivateRetrievalServer) for o in gc.get_objects())

    before = live_servers()
    for seed in range(4):
        public = generate_keypair(
            key_bits=128, block_size=3**6, rng=random.Random(seed)
        ).public
        remote = HttpShardBackend(
            host=client.host, port=client.port, tenant="corpus", public_key=public
        )
        local = LocalShardBackend(
            PrivateRetrievalServer(index=index, organization=service_org, public_key=public)
        )
        assert remote.accumulate(subqueries).partials == local.accumulate(subqueries).partials
        del local
    # At most the last request's server, if its handler is still unwinding.
    assert live_servers() <= before + 1


def test_partials_route_unknown_tenant_404(running_service, benaloh_keypair):
    _, client = running_service()
    payload = encode_partial_request_frame(benaloh_keypair.public, [(["a"], [2])])
    with pytest.raises(ServiceError) as excinfo:
        client._body("POST", "/shards/nobody/partials", payload)
    assert excinfo.value.status == 404


# -- the full cluster: processes, front-end, failover ------------------------------
@pytest.fixture(scope="module")
def sharded_root(index, tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    save_sharded(index, root, HashPartitioner(num_shards=2))
    return root


def test_cluster_end_to_end_with_replica_kill(
    sharded_root, index, service_org, benaloh_keypair, embellisher, query_terms
):
    """The whole distributed read path, multi-process: shard servers as real
    child processes, a coordinator-backed front-end tenant, bit-identity
    with the single-node oracle -- then SIGKILL a replica and the next batch
    must still complete bit-identically off the survivor."""
    from repro.core.faults import RetryPolicy

    oracle = PrivateRetrievalServer(
        index=index, organization=service_org, public_key=benaloh_keypair.public
    )
    rng = random.Random(3)
    queries = [
        embellisher.embellish(rng.sample(query_terms, 3)) for _ in range(3)
    ]
    expected = [r.encrypted_scores for r in oracle.process_batch(queries)]

    with LocalShardCluster(
        sharded_root, tenant="books", replicas_per_shard=2
    ) as cluster:
        # Direct coordinator over the cluster's HTTP backends.
        coordinator = cluster.coordinator(
            benaloh_keypair.public,
            retry=RetryPolicy(max_retries=3, backoff_base=0.01),
        )
        got = [r.encrypted_scores for r in coordinator.process_batch(queries)]
        assert got == expected

        # The same topology served through the front-end service.
        front = RetrievalService(ServiceConfig(bucket_size=4))
        front.add_distributed_tenant(
            "books",
            organization=service_org,
            partitioner=cluster.layout.partitioner,
            replicas=[
                [replica.address for replica in shard]
                for shard in cluster.replicas
            ],
            expected_epochs=cluster.layout.epochs,
            retry=RetryPolicy(max_retries=3, backoff_base=0.01),
        )
        runner = ServiceRunner(front)
        host, port = runner.start()
        try:
            client = ServiceClient(host, port)
            summary = [t for t in client.tenants() if t["name"] == "books"][0]
            assert summary["distributed"] is True
            session = client.open_session("books", benaloh_keypair.public)
            results, done = client.run_batch(
                session, queries, benaloh_keypair.public.n
            )
            assert [r.encrypted_scores for r in results] == expected
            assert done["counters"]["merge_multiplications"] > 0

            # Failover drill: kill shard 0's preferred replica, rerun.
            cluster.kill_replica(0, 0)
            assert not cluster.replicas[0][0].alive
            results, done = client.run_batch(
                session, queries, benaloh_keypair.public.n
            )
            assert [r.encrypted_scores for r in results] == expected
            assert done["counters"]["tasks_retried"] > 0
            client.close_session(session)
        finally:
            runner.stop()


def test_front_end_rejects_partials_for_distributed_tenant(
    service_org, benaloh_keypair
):
    """A coordinator-role tenant holds no shard data; asking it for partials
    is a client error, not a crash."""
    front = RetrievalService(ServiceConfig(bucket_size=4))
    front.add_distributed_tenant(
        "books",
        organization=service_org,
        partitioner=HashPartitioner(num_shards=1),
        replicas=[[("127.0.0.1", 1)]],
    )
    runner = ServiceRunner(front)
    host, port = runner.start()
    try:
        client = ServiceClient(host, port)
        payload = encode_partial_request_frame(benaloh_keypair.public, [(["a"], [2])])
        with pytest.raises(ServiceError) as excinfo:
            client._body("POST", "/shards/books/partials", payload)
        assert excinfo.value.status == 400
        # And the organization route still works without local data.
        org = client.organization("books")
        assert org.num_buckets == service_org.num_buckets
    finally:
        runner.stop()


def test_partial_request_requires_public_key(benaloh_keypair):
    with pytest.raises(WireError):
        decode_partial_request({"queries": [{"terms": ["a"], "selectors": ["2"]}]})
    with pytest.raises(WireError):
        decode_partial_request(
            {"public_key": encode_public_key(benaloh_keypair.public), "queries": []}
        )
