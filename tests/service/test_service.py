"""End-to-end tests of the HTTP serving front-end over real sockets.

The properties under test are the service's contract:

* remote answers are **bit-identical** to in-process
  :meth:`PrivateRetrievalServer.process_batch` -- the service adds transport
  and scheduling, never arithmetic;
* saturation sheds load with 429 + Retry-After but **never drops an
  admitted batch**;
* draining finishes in-flight streams, answers 503 to new work, and shuts
  down cleanly;
* ``/metrics`` reconciles with the in-process counters (the op totals are
  invariant across transport exactly as they are across sharding);
* the kernel backend is invisible in the answers: compiled kernel or
  python loop, the same bits -- and ``/metrics`` says which one serves;
* the data plane speaks frames only: anything else is 415, and the
  connection survives it.
"""

from __future__ import annotations

import asyncio
import email.utils
import http.client
import http.server
import io
import json
import logging
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.server import EncryptedResult, PrivateRetrievalServer
from repro.crypto.benaloh import BenalohPublicKey
from repro.crypto import kernels, numbertheory
from repro.service import ServiceClient, ServiceConfig, ServiceError, app, protocol, wire

SERVE = Path(__file__).resolve().parents[2] / "scripts" / "serve.py"


def parse_request(raw: bytes):
    """``protocol.read_request`` over ``raw`` followed by EOF."""

    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await protocol.read_request(reader)

    return asyncio.run(parse())


def make_batches(embellisher, query_terms, shape):
    """``shape`` is a list of per-batch genuine-term counts."""
    batches, cursor = [], 0
    for size in shape:
        genuine = [query_terms[(cursor + i) % len(query_terms)] for i in range(size)]
        batches.append([embellisher.embellish([term]) for term in genuine])
        cursor += size
    return batches


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def direct_answers(index, service_org, benaloh_keypair, batch):
    server = PrivateRetrievalServer(
        index=index, organization=service_org, public_key=benaloh_keypair.public
    )
    return server.process_batch(batch)


class TestBatchCorrectness:
    def test_concurrent_sessions_bit_identical_to_direct(
        self, running_service, index, service_org, embellisher, query_terms,
        benaloh_keypair,
    ):
        service, client = running_service(max_active=4, max_pending=8)
        batches = make_batches(embellisher, query_terms, [2, 3, 2])
        sessions = [
            client.open_session("corpus", benaloh_keypair.public)
            for _ in batches
        ]
        remote: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(slot: int):
            try:
                results, done = client.run_batch(
                    sessions[slot], batches[slot], benaloh_keypair.public.n
                )
                assert done["queries"] == len(batches[slot])
                remote[slot] = results
            except BaseException as exc:  # surfaced via the errors list
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for slot, batch in enumerate(batches):
            expected = direct_answers(index, service_org, benaloh_keypair, batch)
            assert [r.encrypted_scores for r in remote[slot]] == [
                e.encrypted_scores for e in expected
            ]

    def test_stream_is_ordered_and_self_describing(
        self, running_service, embellisher, query_terms, benaloh_keypair
    ):
        service, client = running_service()
        batch = make_batches(embellisher, query_terms, [3])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        lines = list(
            client.submit_batch(session, batch, benaloh_keypair.public.n)
        )
        kinds = [line["kind"] for line in lines]
        assert kinds == ["result", "result", "result", "done"]
        assert [line["index"] for line in lines[:-1]] == [0, 1, 2]
        for line in lines[:-1]:
            assert line["counters"]["queries_processed"] == 1
            assert line["ms"] >= 0
        done = lines[-1]
        assert done["counters"]["queries_processed"] == 3
        assert done["service_ms"] >= 0 and done["queue_wait_ms"] >= 0

    def test_session_open_ignores_a_parallelism_key(
        self, running_service, benaloh_keypair
    ):
        """The worker budget is the service's: an old client's ``parallelism``
        is one more unknown key, and the reply no longer echoes one."""
        service, client = running_service()
        reply = client._json(
            "POST",
            "/sessions",
            {
                "tenant": "corpus",
                "public_key": wire.encode_public_key(benaloh_keypair.public),
                "parallelism": 1,
            },
        )
        assert set(reply) == {"session", "tenant"}
        assert reply["session"] in service.sessions


class TestConfigValidation:
    def test_bucket_size_and_retry_after_are_checked_where_the_config_is_built(self):
        """Regression: ``bucket_size=-2`` derived an organisation with no
        buckets (every query then travelled without decoys), ``0`` crashed in
        ``add_tenant``, and ``retry_after=-1`` went out as ``Retry-After: -1``."""
        for bad in (dict(bucket_size=0), dict(bucket_size=-2), dict(retry_after=-1.0),
                    dict(retry_after=float("nan")), dict(retry_after=float("inf"))):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ServiceConfig(**bad)

    @pytest.mark.parametrize(
        "flag, value",
        [("--bucket-size", "-2"), ("--retry-after", "-1"), ("--retry-after", "nan"),
         ("--parallelism", "2")],  # the flag is gone: the front end has no pool
    )
    def test_serve_refuses_a_bad_flag_as_a_usage_error(self, flag, value):
        refused = subprocess.run(
            [sys.executable, str(SERVE), "--tenant", "a=b", flag, value],
            capture_output=True, text=True, timeout=60,
        )
        assert refused.returncode == 2, refused.stderr
        assert "error:" in refused.stderr


class TestCodecsAndBackends:
    def test_answers_bit_identical_across_backends(
        self, running_service, index, service_org, embellisher, query_terms,
        benaloh_keypair, monkeypatch, pin_backend,
    ):
        """The service accumulates on the process's arithmetic, reports it
        under ``/metrics``, and answers the python oracle's bits on either."""
        batch = make_batches(embellisher, query_terms, [3])[0]
        modulus = benaloh_keypair.public.n
        pin_backend("python")
        expected = [
            list(e.encrypted_scores.items())
            for e in direct_answers(index, service_org, benaloh_keypair, batch)
        ]
        kernel_calls = []
        accumulate = kernels.accumulate_compiled
        monkeypatch.setattr(
            kernels, "accumulate_compiled",
            lambda *args: kernel_calls.append(1) or accumulate(*args),
        )
        service, client = running_service()
        session = client.open_session("corpus", benaloh_keypair.public)
        for backend in ["python"] + (["cffi"] if "cffi" in kernels.resolve_backend() else []):
            pin_backend(backend)
            del kernel_calls[:]
            before = client.metrics()["kernel"]["fallbacks"]
            results, _ = client.run_batch(session, batch, modulus)
            assert [list(r.encrypted_scores.items()) for r in results] == expected
            assert len(kernel_calls) == (len(batch) if backend == "cffi" else 0)
            section = client.metrics()["kernel"]
            assert section["backend"] == numbertheory.get_backend() == backend
            assert section["reason"] == kernels.resolve_backend()[1]
            assert section["fallbacks"] == before  # this batch left no envelope

    def test_data_plane_takes_frames_only(
        self, running_service, index, service_org, embellisher, query_terms, benaloh_keypair
    ):
        """Both accumulating routes answer anything but a frame body 415 --
        a JSON document, or a frame under another media type -- and the same
        connection then carries a framed request bit-identical to direct."""
        service, client = running_service()
        key = benaloh_keypair.public
        batch = make_batches(embellisher, query_terms, [3])[0]
        subqueries = [(query.terms, query.encrypted_selectors) for query in batch]
        expected = [
            list(e.encrypted_scores.items())
            for e in direct_answers(index, service_org, benaloh_keypair, batch)
        ]
        session = client.open_session("corpus", key)

        def answers(route, data):
            if route == "/shards/corpus/partials":
                partials = wire.decode_shard_response_frame(data, key.n).partials
                return [list(partial.items()) for partial in partials]
            stream = io.BytesIO(data)
            frames = list(iter(lambda: wire.read_frame(stream.read), None))
            assert frames[-1][0]["kind"] == "done"
            return [list(wire.decode_result_frame(*f, key.n)) for f in frames[:-1]]

        routes = {
            f"/sessions/{session}/queries": (
                {"queries": [wire.encode_query(query) for query in batch]},
                wire.encode_batch_frame(batch, key.n),
            ),
            "/shards/corpus/partials": (
                wire.encode_partial_request(key, subqueries),
                wire.encode_partial_request_frame(key, subqueries),
            ),
        }
        connection = http.client.HTTPConnection(*service.address, timeout=10)
        try:
            connection.connect()
            sock = connection.sock
            for route, (document, frame) in routes.items():
                for body, media_type in (
                    (json.dumps(document).encode(), "application/json"),
                    (frame, "application/octet-stream"),
                    (frame, None),
                ):
                    headers = {"Content-Type": media_type} if media_type else {}
                    connection.request("POST", route, body=body, headers=headers)
                    response = connection.getresponse()
                    assert response.status == 415, (route, media_type)
                    assert wire.FRAME_MEDIA_TYPE in json.loads(response.read())["error"]
                headers = {"Content-Type": wire.FRAME_MEDIA_TYPE}
                connection.request("POST", route, body=frame, headers=headers)
                response = connection.getresponse()
                assert response.status == 200
                assert answers(route, response.read()) == expected
            assert connection.sock is sock  # never reconnected
        finally:
            connection.close()

    def test_malformed_frames_are_400_and_the_service_keeps_serving(
        self, running_service, embellisher, query_terms, benaloh_keypair
    ):
        service, client = running_service()
        modulus = benaloh_keypair.public.n
        batch = make_batches(embellisher, query_terms, [2])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        good = wire.encode_batch_frame(batch, modulus)
        for route in (f"/sessions/{session}/queries", "/shards/corpus/partials"):
            for bad in (
                b"", good[:8], good[:-1], good + b"\0",
                struct.pack(">II", 2, 0) + b"[]",
                wire.encode_batch_frame(batch, 2**255 + 95),  # another key's width
            ):
                with pytest.raises(ServiceError) as error:
                    client._request("POST", route, bad)
                assert error.value.status == 400, (route, bad[:16])
        results, done = client.run_batch(session, batch, modulus)
        assert done["queries"] == len(batch) == len(results)

    def test_answers_outgrow_the_request_cap_and_unencodable_ones_end_the_stream(
        self, running_service, embellisher, query_terms, benaloh_keypair, monkeypatch
    ):
        """``MAX_BODY_BYTES`` bounds what a peer sends, never what the service
        answers; a result no frame can carry ends its stream in an ``error`` record."""
        _, client = running_service()
        key = benaloh_keypair.public
        batch = make_batches(embellisher, query_terms, [3])[0]
        subqueries = [(query.terms, query.encrypted_selectors) for query in batch]
        session = client.open_session("corpus", key)
        cap = len(wire.encode_partial_request_frame(key, subqueries))
        monkeypatch.setattr(protocol, "MAX_BODY_BYTES", cap)
        results, _ = client.run_batch(session, batch, key.n)
        assert sum(r.downstream_bytes() for r in results) > cap
        partials = client.shard_partials("corpus", key, subqueries).partials
        assert [list(p) for p in partials] == [list(r.encrypted_scores) for r in results]
        with pytest.raises(ServiceError, match="exceeds limit"):
            client.run_batch(session, batch * 2, key.n)
        unframable = EncryptedResult({2**32: 1}, key.n)  # stands in for the second answer
        monkeypatch.setattr(
            app, "encode_result_frame", lambda record, result, encode=wire.encode_result_frame:
            encode(record, unframable if record["index"] else result),
        )
        answered = client.metrics()["tenants"]["corpus"]["queries_answered"]
        stream = client.submit_batch(session, batch, key.n)
        assert next(stream)["index"] == 0
        with pytest.raises(ServiceError, match="does not fit 32 bits"):
            next(stream)
        # The stream ended; the admitted batch still ran to its end, and the
        # route booked every query the stream yielded.
        tenant = client.metrics()["tenants"]["corpus"]
        assert tenant["queries_answered"] == answered + len(batch)
        monkeypatch.undo()
        assert client.metrics()["service"]["requests"]["failed"] == 1
        assert client.run_batch(session, batch, key.n)[0] == results

    def test_counting_connection_sees_every_body_byte(
        self, running_service, embellisher, query_terms, benaloh_keypair, monkeypatch
    ):
        """The end-to-end benchmark counts wire bytes by swapping counting
        subclasses into ``http.client`` before the client's first connection;
        the client must route every body byte through exactly the two
        methods those override, on that connection and every reuse of it."""
        sent, received = [], bytearray()

        class CountingResponse(http.client.HTTPResponse):
            def read(self, amt=None):
                data = super().read(amt)
                received.extend(data)
                return data

        class CountingConnection(http.client.HTTPConnection):
            response_class = CountingResponse

            def request(self, method, url, body=None, headers={}, **kwargs):
                sent.append(len(body))
                return super().request(method, url, body=body, headers=headers, **kwargs)

        monkeypatch.setattr(http.client, "HTTPConnection", CountingConnection)
        service, client = running_service()
        modulus = benaloh_keypair.public.n
        batch = make_batches(embellisher, query_terms, [3])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        sent.clear()
        received.clear()
        results, done = client.run_batch(session, batch, modulus)
        assert sent == [len(wire.encode_batch_frame(batch, modulus))]
        # What read() saw is the whole response body: it parses, frame for
        # frame and with nothing left over, into exactly what was returned.
        stream = io.BytesIO(bytes(received))
        frames = list(iter(lambda: wire.read_frame(stream.read), None))
        assert [header["kind"] for header, _ in frames] == ["result"] * len(batch) + ["done"]
        assert [wire.decode_result_frame(*frame, modulus) for frame in frames[:-1]] == results
        assert frames[-1][0]["service_ms"] == done["service_ms"]
        assert sum(len(body) for _, body in frames) == sum(r.downstream_bytes() for r in results)


class TestAdmission:
    def test_saturation_429s_but_never_drops_admitted(
        self, running_service, index, service_org, embellisher, query_terms,
        benaloh_keypair,
    ):
        service, client = running_service(
            max_active=1, max_pending=1, retry_after=0.2
        )
        batch = make_batches(embellisher, query_terms, [3])[0]
        sessions = [
            client.open_session("corpus", benaloh_keypair.public) for _ in range(6)
        ]
        served: list[list] = []
        shed: list[ServiceError] = []
        lock = threading.Lock()
        # Saturation as a fact, not a race: the first batch holds the one
        # active slot until the other five have been queued or shed.  It
        # waits on the loop, which must stay free to queue and shed them.
        gate = asyncio.Event()
        holder = service.sessions[sessions[0]]
        stream_batch = service._stream_batch

        async def gated(session, *args):
            if session is holder:
                await gate.wait()
            return await stream_batch(session, *args)

        service._stream_batch = gated

        def hammer(session_id: str):
            try:
                results, done = client.run_batch(
                    session_id, batch, benaloh_keypair.public.n
                )
                with lock:
                    served.append(results)
            except ServiceError as error:
                with lock:
                    shed.append(error)

        threads = [
            threading.Thread(target=hammer, args=(session_id,))
            for session_id in sessions
        ]
        threads[0].start()
        wait_until(lambda: service.admission.active == 1)
        for thread in threads[1:]:
            thread.start()
        wait_until(lambda: len(shed) == 4)  # 1 active + 1 pending; the rest shed
        running_service.last_runner._loop.call_soon_threadsafe(gate.set)
        for thread in threads:
            thread.join(timeout=120)

        # every request was either fully served or cleanly shed -- none lost
        assert len(served) + len(shed) == len(sessions)
        assert served, "at least the first request must be admitted"
        assert shed, "6 concurrent batches against 1+1 capacity must shed"
        for error in shed:
            assert error.status == 429
            assert error.retry_after == 0.2
        expected = direct_answers(index, service_org, benaloh_keypair, batch)
        for results in served:  # admitted -> complete and correct
            assert [r.encrypted_scores for r in results] == [
                e.encrypted_scores for e in expected
            ]
        metrics = client.metrics()
        assert metrics["service"]["requests"]["rejected_saturated"] == len(shed)
        assert metrics["service"]["requests"]["admitted"] == len(served)

    def test_session_table_is_bounded(
        self, running_service, benaloh_keypair, monkeypatch
    ):
        """Sessions pin snapshots until closed, so the table has a bound:
        beyond it an open is shed like any saturated request, and a close
        frees the slot."""
        monkeypatch.setattr(app, "MAX_SESSIONS", 2)
        service, client = running_service(retry_after=0.2)
        first, _ = [client.open_session("corpus", benaloh_keypair.public) for _ in range(2)]
        with pytest.raises(ServiceError) as refused:
            client.open_session("corpus", benaloh_keypair.public)
        assert refused.value.status == 429 and refused.value.retry_after == 0.2
        metrics = client.metrics()
        assert metrics["sessions_active"] == 2
        assert metrics["service"]["requests"]["rejected_saturated"] == 1
        client.close_session(first)
        assert client.open_session("corpus", benaloh_keypair.public) in service.sessions


class TestKeepAlive:
    """A client keeps one connection: reused after every response read to its
    end, replaced once when the server dropped it while idle, and never
    reused after a stream its caller abandoned."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every connection a client connects, in order."""
        opened = []

        class Recorded(http.client.HTTPConnection):
            def connect(self):
                opened.append(self)
                super().connect()

        monkeypatch.setattr(http.client, "HTTPConnection", Recorded)
        return opened

    def test_requests_from_one_client_share_one_connection(
        self, running_service, opened, embellisher, query_terms, benaloh_keypair
    ):
        service, client = running_service()
        batch = make_batches(embellisher, query_terms, [3])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        for _ in range(3):
            client.run_batch(session, batch, benaloh_keypair.public.n)
        assert client.health()["ok"] and client.metrics()["sessions_active"] == 1
        client.close_session(session)
        with pytest.raises(ServiceError) as gone:  # an error read to its end too
            client.close_session(session)
        assert gone.value.status == 404
        assert client.tenants()
        assert len(opened) == 1
        assert len(service._connections) == 1

    def test_a_connection_the_server_dropped_is_replaced_once(
        self, running_service, opened
    ):
        service, client = running_service()
        assert client.health()["ok"]

        def drop_idle_peers():
            for writer in service._connections.values():
                writer.close()

        running_service.last_runner._loop.call_soon_threadsafe(drop_idle_peers)
        wait_until(lambda: not service._connections)
        assert client.health()["ok"]
        assert len(opened) == 2
        assert opened[0].sock is None

    def test_an_abandoned_stream_is_not_reused(
        self, running_service, opened, index, service_org, embellisher, query_terms,
        benaloh_keypair,
    ):
        service, client = running_service()
        modulus = benaloh_keypair.public.n
        batch = make_batches(embellisher, query_terms, [3])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        stream = client.submit_batch(session, batch, modulus)
        assert next(stream)["index"] == 0  # on the connection the open left idle
        stream.close()
        assert opened[0].sock is None
        results, done = client.run_batch(session, batch, modulus)
        expected = direct_answers(index, service_org, benaloh_keypair, batch)
        assert [r.encrypted_scores for r in results] == [e.encrypted_scores for e in expected]
        assert done["queries"] == len(batch)
        assert len(opened) == 2

    def test_threads_sharing_a_client_never_share_or_lose_a_connection(
        self, running_service, opened, index, service_org, embellisher, query_terms,
        benaloh_keypair,
    ):
        """More threads than cores on one client, switching as often as the
        interpreter allows: every answer is right, and every connection but
        the one left idle is closed (a race on the idle slot would answer
        one request with another's response, or drop a connection open)."""
        service, client = running_service(max_active=8, max_pending=64)
        modulus = benaloh_keypair.public.n
        batch = make_batches(embellisher, query_terms, [2])[0]
        expected = [
            e.encrypted_scores for e in direct_answers(index, service_org, benaloh_keypair, batch)
        ]
        sessions = [client.open_session("corpus", benaloh_keypair.public) for _ in range(8)]
        errors: list[BaseException] = []

        def worker(session: str):
            try:
                for _ in range(4):
                    results, _ = client.run_batch(session, batch, modulus)
                    assert [r.encrypted_scores for r in results] == expected
                    assert client.health()["ok"]
            except BaseException as exc:  # surfaced via the errors list
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(session,)) for session in sessions]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sum(connection.sock is not None for connection in opened) == 1


class TestEventLoop:
    def test_a_local_batch_lets_other_connections_in_between_its_queries(
        self, running_service, embellisher, query_terms, benaloh_keypair
    ):
        """A local batch accumulates on the event loop and yields it after
        every query: a ``/healthz`` sent while an 8-query batch streams is
        answered before that batch's last query starts."""
        service, client = running_service()
        batch = make_batches(embellisher, query_terms, [8])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        server = service.sessions[session].server
        iter_batch = server.iter_batch
        starts = []

        def paced(queries):
            results = iter_batch(queries)
            for _ in queries:
                starts.append(time.monotonic())
                time.sleep(0.05)  # accumulation: the loop is busy with this query
                yield next(results)

        server.iter_batch = paced
        with ServiceClient(*service.address) as probe:
            assert probe.health()["ok"]  # its connection is open, and idle
            stream = client.submit_batch(session, batch, benaloh_keypair.public.n)
            assert next(stream)["index"] == 0
            assert probe.health()["ok"]
            answered = time.monotonic()
            rest = list(stream)
        assert [record["kind"] for record in rest] == ["result"] * 7 + ["done"]
        assert len(starts) == 8
        assert answered < starts[-1]


class TestDrain:
    def test_drain_completes_inflight_and_rejects_new(
        self, running_service, embellisher, query_terms, benaloh_keypair
    ):
        service, client = running_service(max_active=2, max_pending=2)
        runner = running_service.last_runner
        batch = make_batches(embellisher, query_terms, [4])[0]
        session = client.open_session("corpus", benaloh_keypair.public)

        stream = client.submit_batch(session, batch, benaloh_keypair.public.n)
        first = next(stream)  # the batch is admitted and producing
        assert first["kind"] == "result"

        # flip the admission gate from the service loop (loop-affine state)
        async def start_draining():
            service.admission.drain()

        asyncio.run_coroutine_threadsafe(start_draining(), runner._loop).result(5)

        with pytest.raises(ServiceError) as rejected:
            client.run_batch(session, batch, benaloh_keypair.public.n)
        assert rejected.value.status == 503

        # the in-flight stream still runs to completion
        remaining = list(stream)
        assert [line["kind"] for line in remaining[:-1]] == ["result"] * 3
        assert remaining[-1]["kind"] == "done"
        assert remaining[-1]["queries"] == len(batch)

        metrics = client.metrics()
        assert metrics["service"]["requests"]["rejected_draining"] == 1
        assert metrics["admission"]["draining"] is True
        # full drain (runner teardown) completes promptly with nothing in flight
        runner.drain(timeout=30)

    def test_drain_closes_idle_keep_alive_connections(self, running_service, caplog):
        """An idle keep-alive peer must not outlive the drain -- it used to
        stay open (and served), and its handler was destroyed pending when
        the loop stopped."""
        import gc

        service, client = running_service()
        runner = running_service.last_runner
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(service.address, timeout=1) as peer:
                peer.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert peer.recv(4096).startswith(b"HTTP/1.1 200")
                runner.drain(timeout=30)
                # EOF within the socket's one-second timeout, not a hang.
                assert b"HTTP/1.1" not in b"".join(iter(lambda: peer.recv(4096), b""))
            runner.stop()
            gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestMetrics:
    def test_metrics_reconcile_with_direct_counters(
        self, running_service, index, service_org, embellisher, query_terms,
        benaloh_keypair,
    ):
        service, client = running_service()
        batch = make_batches(embellisher, query_terms, [4])[0]
        session = client.open_session("corpus", benaloh_keypair.public)
        results, done = client.run_batch(session, batch, benaloh_keypair.public.n)

        direct = PrivateRetrievalServer(
            index=index, organization=service_org, public_key=benaloh_keypair.public
        )
        direct.process_batch(batch)

        metrics = client.metrics()
        totals = metrics["tenants"]["corpus"]["totals"]
        # the op totals are transport-invariant, so the service's aggregate
        # must equal the in-process run query for query
        for name in (
            "queries_processed",
            "terms_processed",
            "postings_processed",
            "table_multiplications",
            "modular_multiplications",
            "blocks_read",
        ):
            assert totals[name] == getattr(direct.counters, name), name
        assert done["counters"]["postings_processed"] == totals["postings_processed"]
        assert metrics["service"]["queries_total"] == len(batch)
        assert metrics["service"]["requests"]["admitted"] == 1
        assert metrics["service"]["latency_ms"]["request"]["count"] == 1
        assert metrics["service"]["latency_ms"]["per_query"]["count"] == len(batch)
        assert metrics["tenants"]["corpus"]["batches_answered"] == 1

    def test_the_service_places_queries_in_process_and_reports_no_engine(
        self, running_service
    ):
        """No worker pool: no ``engine`` section in ``/metrics``, no engine on
        the service, and no service module imports ``repro.core.engine``."""
        service, client = running_service()
        assert set(client.metrics()) == {
            "service", "admission", "sessions_active", "tenants", "kernel"
        }
        assert not hasattr(service, "engine")
        for module in Path(app.__file__).parent.glob("*.py"):
            assert "repro.core.engine" not in module.read_text(), module.name

    def test_health_tenants_and_organization_endpoints(
        self, running_service, index, service_org, benaloh_keypair
    ):
        service, client = running_service()
        assert client.health() == {"ok": True, "draining": False}
        (summary,) = client.tenants()
        assert summary["name"] == "corpus"
        assert summary["num_terms"] == index.num_terms
        fetched = client.organization("corpus")
        assert fetched.buckets == service_org.buckets
        assert fetched.bucket_size == service_org.bucket_size


class TestHttpErrors:
    def test_unknown_routes_and_ids_are_404(self, running_service, benaloh_keypair):
        service, client = running_service()
        for call in (
            lambda: client._json("GET", "/nope"),
            lambda: client.organization("ghost"),
            lambda: client.close_session("feedfeedfeedfeed"),
            lambda: client.open_session("ghost", benaloh_keypair.public),
        ):
            with pytest.raises(ServiceError) as error:
                call()
            assert error.value.status == 404

    def test_wrong_method_is_405(self, running_service):
        service, client = running_service()
        with pytest.raises(ServiceError) as error:
            client._json("PUT", "/tenants/corpus/organization")
        assert error.value.status == 405

    def test_malformed_bodies_are_400_and_connection_survives(
        self, running_service, benaloh_keypair
    ):
        service, client = running_service()
        session = client.open_session("corpus", benaloh_keypair.public)
        host, port = service.address
        width = (benaloh_keypair.public.n.bit_length() + 7) // 8
        misaligned = wire.encode_frame({"queries": [{"terms": ["a", "b"]}]}, b"\1" * width)
        headers = {"Content-Type": wire.FRAME_MEDIA_TYPE}
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            route = f"/sessions/{session}/queries"
            connection.request("POST", route, body=b"{not a frame", headers=headers)
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            # same (kept-alive) connection: a misaligned query is also 400
            connection.request("POST", route, body=misaligned, headers=headers)
            response = connection.getresponse()
            assert response.status == 400
            assert "align" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_non_string_tenant_is_400_and_connection_survives(
        self, running_service, benaloh_keypair
    ):
        """Regression: an unhashable ``tenant`` reached the tenant table's
        ``dict.get`` -- TypeError, 500 ``internal error``, closed connection."""
        service, client = running_service()
        key = wire.encode_public_key(benaloh_keypair.public)
        connection = http.client.HTTPConnection(*service.address, timeout=10)
        try:
            for body in (
                {"tenant": ["corpus"], "public_key": key},
                {"tenant": {"name": "corpus"}, "public_key": key},
                {"tenant": 7, "public_key": key},
                {"public_key": key},
            ):
                connection.request("POST", "/sessions", body=json.dumps(body).encode())
                response = connection.getresponse()
                assert response.status == 400, body
                assert "tenant" in json.loads(response.read())["error"]
            # the same kept-alive connection still serves a well-formed open
            connection.request(
                "POST",
                "/sessions",
                body=json.dumps({"tenant": "corpus", "public_key": key}).encode(),
            )
            response = connection.getresponse()
            assert response.status == 200 and "session" in json.loads(response.read())
        finally:
            connection.close()

    def test_a_public_key_beyond_the_kernel_limit_is_400_on_both_routes(
        self, running_service
    ):
        """Regression: any ``n > 1`` opened a session or a shard request, and
        one multiply at a 1-Mbit modulus stalls the event loop for seconds."""
        service, client = running_service()
        limit = 64 * kernels.MAXL
        over = BenalohPublicKey(n=2**limit + 1, g=2, r=3)
        connection = http.client.HTTPConnection(*service.address, timeout=10)
        try:
            opening = {"tenant": "corpus", "public_key": wire.encode_public_key(over)}
            for route, body, headers in (
                ("/sessions", json.dumps(opening).encode(), {}),
                (
                    "/shards/corpus/partials",
                    wire.encode_partial_request_frame(over, [(("term",), [2])]),
                    {"Content-Type": wire.FRAME_MEDIA_TYPE},
                ),
            ):
                connection.request("POST", route, body=body, headers=headers)
                response = connection.getresponse()
                assert response.status == 400, route
                assert f"exceeds {limit}" in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert not service.sessions
        at_limit = BenalohPublicKey(n=2**limit - 1, g=2, r=3)
        assert client.open_session("corpus", at_limit) in service.sessions

    def test_truncated_body_is_400_and_a_reset_ends_quietly(
        self, running_service, caplog
    ):
        """A body shorter than its Content-Length: a half-closing peer is
        told 400, a resetting one has nobody to tell, and neither escapes
        the connection task into asyncio's unhandled-exception log."""
        service, client = running_service()
        short = b"POST /sessions HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(service.address, timeout=10) as peer:
                peer.sendall(short)
                peer.shutdown(socket.SHUT_WR)
                reply = b"".join(iter(lambda: peer.recv(4096), b""))
            assert reply.startswith(b"HTTP/1.1 400")
            assert b"truncated body: 2 of 100 bytes" in reply
            with socket.create_connection(service.address, timeout=10) as peer:
                peer.sendall(short)
                # linger 0: close() sends RST instead of FIN
                peer.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            assert client.health()["ok"]  # the loop has run past both peers
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_session_close_leaves_tenant_engine_for_others(
        self, running_service, embellisher, query_terms, benaloh_keypair
    ):
        service, client = running_service()
        batch = make_batches(embellisher, query_terms, [1])[0]
        first = client.open_session("corpus", benaloh_keypair.public)
        second = client.open_session("corpus", benaloh_keypair.public)
        client.run_batch(first, batch, benaloh_keypair.public.n)
        client.close_session(first)
        results, done = client.run_batch(second, batch, benaloh_keypair.public.n)
        assert done["queries"] == 1 and results

    @pytest.mark.parametrize(
        "framing",
        [b"Transfer-Encoding: chunked\r\n", b"Transfer-Encoding: chunked\r\nContent-Length: 7\r\n"],
        ids=["te", "te+cl"],
    )
    def test_request_transfer_encoding_is_refused_by_the_parser(self, framing):
        """Regression: a chunked body was read as 0 bytes and its chunks
        parsed as the next request (the request-smuggling primitive)."""
        with pytest.raises(protocol.ProtocolError, match="Transfer-Encoding"):
            parse_request(b"POST /sessions HTTP/1.1\r\n" + framing + b"\r\n2\r\n{}\r\n0\r\n\r\n")

    @pytest.mark.parametrize(
        "framing, error",
        [
            (b"Content-Length: 1_0\r\n", "Content-Length"),
            (b"Content-Length: +3\r\n", "Content-Length"),
            (b"Content-Length: 3\r\nContent-Length: 10\r\n", "Content-Length"),
            (b"Content-Length : 3\r\n", "malformed header line"),
            (b": v\r\nContent-Length: 3\r\n", "malformed header line"),
            (b"Content-Length: 3\r\nX-A: b\r\n c: d\r\n", "malformed header line"),
        ],
        ids=["underscore", "sign", "repeated", "space-before-colon", "empty-name", "obs-fold"],
    )
    def test_request_content_length_is_one_header_of_digits(self, framing, error):
        """Regression: ``int()`` took ``1_0`` and ``+3``, and a repeated header
        kept its last value, so two parsers could frame one body differently.
        So could a field name that is empty or holds whitespace (RFC 9112
        §5.1): ``Content-Length : 3`` framed a body behind a proxy that
        ignores it."""
        with pytest.raises(protocol.ProtocolError, match=error):
            parse_request(b"POST /sessions HTTP/1.1\r\n" + framing + b"\r\n" + b"x" * 10)

    def test_malformed_request_target_is_400_not_a_crashed_handler(
        self, running_service, caplog
    ):
        """Regression: ``urlsplit`` raised ``ValueError`` on ``//[/x``, which
        escaped the parser: the peer got a bare close and asyncio logged an
        unhandled exception in the connection callback."""
        service, client = running_service()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(service.address, timeout=10) as peer:
                peer.sendall(b"GET //[/x HTTP/1.1\r\n\r\n")
                reply = b"".join(iter(lambda: peer.recv(4096), b""))
            assert client.health()["ok"]
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"malformed request target" in reply
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_chunked_request_is_400_and_closes_without_a_second_parse(self, running_service):
        service, client = running_service()
        chunk = b'{"tenant": "corpus"}'
        smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
        with socket.create_connection(service.address, timeout=10) as peer:
            peer.sendall(
                b"POST /sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n%s\r\n0\r\n\r\n%s" % (len(chunk), chunk, smuggled)
            )
            # EOF within the timeout: the service closed after one answer.
            reply = b"".join(iter(lambda: peer.recv(4096), b""))
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Transfer-Encoding" in reply
        assert reply.count(b"HTTP/1.1 ") == 1
        assert client.health()["ok"]


class TestRetryAfterHints:
    """Regression: an HTTP-date ``Retry-After`` (RFC 9110 §10.2.3) crashed
    the client with a bare ``ValueError`` instead of a ``ServiceError``."""

    @pytest.fixture
    def shedding_server(self):
        """A stub that answers every GET 429 with ``retry_after`` as its hint."""

        class Shed(http.server.BaseHTTPRequestHandler):
            retry_after = ""

            def do_GET(self):
                body = json.dumps({"error": "saturated"}).encode()
                self.send_response(429)
                self.send_header("Retry-After", self.retry_after)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Shed)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield Shed, ServiceClient(*server.server_address, timeout=10)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_delta_seconds_date_and_garbage(self, shedding_server):
        handler, client = shedding_server
        future = email.utils.formatdate(time.time() + 120, usegmt=True)
        for hint, check in (
            ("3", lambda s: s == 3.0),
            ("Wed, 21 Oct 2015 07:28:00 GMT", lambda s: s == 0.0),
            (future, lambda s: isinstance(s, float) and 100 < s <= 120),
            ("soon-ish", lambda s: s is None),
            # Regression: each came back as itself, and a caller sleeping on
            # it raised (negative) or hung (inf, nan).
            ("-1", lambda s: s is None),
            ("nan", lambda s: s is None),
            ("inf", lambda s: s is None),
        ):
            handler.retry_after = hint
            with pytest.raises(ServiceError) as shed:
                client.health()
            assert shed.value.status == 429
            assert check(shed.value.retry_after), (hint, shed.value.retry_after)
