"""Round-trip and rejection tests for the wire codecs (hex/JSON and frames)."""

from __future__ import annotations

import dataclasses
import io
import json
import random
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.core.coordinator import (
    LocalShardBackend,
    QueryCoordinator,
    ShardResponse,
    ShardTopology,
)
from repro.core.embellish import EmbellishedQuery
from repro.core.parallel import COUNTER_FIELDS
from repro.core.partitioning import HashPartitioner, shard_organization, split_query_terms
from repro.core.server import EncryptedResult, PrivateRetrievalServer, ServerCounters
from repro.crypto import kernels, numbertheory
from repro.crypto.benaloh import BenalohPublicKey
from repro.service import wire
from repro.service.metrics import LatencyRollup
from repro.service.wire import (
    WireError,
    decode_int,
    decode_organization,
    decode_public_key,
    decode_query,
    decode_result,
    encode_counters,
    encode_int,
    encode_organization,
    encode_public_key,
    encode_query,
    encode_result,
)


class TestIntegers:
    def test_round_trip_survives_json(self):
        for value in (0, 1, 255, 2**521 - 1, random.Random(3).getrandbits(1024)):
            over_the_wire = json.loads(json.dumps(encode_int(value)))
            assert decode_int(over_the_wire) == value

    def test_rejects_non_hex(self):
        with pytest.raises(WireError):
            decode_int("zz")
        with pytest.raises(WireError):
            decode_int(None)
        with pytest.raises(WireError):
            decode_int(True)  # bools are not ciphertexts


class TestQueries:
    def test_round_trip(self, embellisher, query_terms):
        query = embellisher.embellish(query_terms[:2])
        decoded = decode_query(json.loads(json.dumps(encode_query(query))))
        assert decoded == query

    def test_rejects_misaligned_selectors(self):
        with pytest.raises(WireError):
            decode_query({"terms": ["a", "b"], "selectors": ["1"]})

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(WireError):
            decode_query({"terms": [], "selectors": []})
        with pytest.raises(WireError):
            decode_query({"terms": [1], "selectors": ["1"]})
        with pytest.raises(WireError):
            decode_query("not an object")


class TestResultsAndKeys:
    def test_result_round_trip(self):
        result = EncryptedResult(
            encrypted_scores={7: 12345678901234567890, 2: 1}, modulus=2**127
        )
        decoded = decode_result(
            json.loads(json.dumps(encode_result(result))), modulus=2**127
        )
        assert decoded.encrypted_scores == result.encrypted_scores
        assert decoded.modulus == result.modulus

    def test_result_outside_the_ring_is_rejected(self):
        """Regression: a corrupted or wrong-key response (0, or >= n) used to
        reach post-filtering and decrypt to garbage; partials were checked."""
        for bad in (0, 101, 2**64):
            with pytest.raises(WireError, match="modulus"):
                decode_result({"scores": {"7": encode_int(bad)}}, modulus=101)
        with pytest.raises(WireError, match="twice"):
            decode_result({"scores": {"7": "1", "07": "2"}}, modulus=101)
        with pytest.raises(WireError, match="integers"):
            decode_result({"scores": {"seven": "1"}}, modulus=101)
        for doc_id in (-1, 2**32):  # a result is its frame body: ids are u32
            with pytest.raises(WireError, match="u32"):
                decode_result({"scores": {str(doc_id): "1"}}, modulus=101)
            with pytest.raises(ValueError, match="no frame can carry"):
                EncryptedResult({doc_id: 1}, 101)

    def test_public_key_round_trip(self, benaloh_keypair):
        key = benaloh_keypair.public
        decoded = decode_public_key(json.loads(json.dumps(encode_public_key(key))))
        assert (decoded.n, decoded.g, decoded.r) == (key.n, key.g, key.r)

    def test_public_key_rejects_degenerate(self):
        with pytest.raises(WireError):
            decode_public_key({"n": "1", "g": "2", "r": 3})

    def test_public_key_modulus_is_capped_at_the_kernel_limit(self):
        """Regression: any ``n > 1`` was taken, and one multiply at a 1-Mbit
        modulus takes seconds; the largest the kernel serves is the cap."""
        limit = 64 * kernels.MAXL
        at_limit = BenalohPublicKey(n=2**limit - 1, g=2, r=3)
        assert decode_public_key(encode_public_key(at_limit)).n.bit_length() == limit
        with pytest.raises(WireError, match=f"{limit + 1} bits exceeds {limit}"):
            decode_public_key(encode_public_key(BenalohPublicKey(n=2**limit + 1, g=2, r=3)))


class TestOrganization:
    def test_round_trip_preserves_layout(self, service_org):
        decoded = decode_organization(
            json.loads(json.dumps(encode_organization(service_org)))
        )
        assert decoded.buckets == service_org.buckets
        assert decoded.bucket_size == service_org.bucket_size
        assert decoded.segment_size == service_org.segment_size

    def test_rejects_duplicate_terms(self):
        with pytest.raises(WireError):
            decode_organization(
                {"buckets": [["a", "a"]], "bucket_size": 2, "segment_size": 0}
            )


class TestCounters:
    def test_every_field_is_exported(self):
        counters = ServerCounters()
        counters.postings_processed = 42
        encoded = encode_counters(counters)
        assert encoded["postings_processed"] == 42
        from dataclasses import fields

        assert set(encoded) == {spec.name for spec in fields(counters)}

    def test_counters_round_trip_unchanged(self):
        counters = ServerCounters(**{name: 3 * i + 1 for i, name in enumerate(COUNTER_FIELDS)})
        assert COUNTER_FIELDS == tuple(spec.name for spec in dataclasses.fields(counters))
        assert wire.decode_counters(through_json(encode_counters(counters))) == counters
        doubled = ServerCounters.total([counters, counters])
        assert doubled == ServerCounters(
            **{name: 2 * getattr(counters, name) for name in COUNTER_FIELDS}
        )

    def test_negative_and_boolean_counts_are_wire_errors(self):
        assert wire.decode_counters({}) == ServerCounters()
        for value in (-5, True, False, 1.0, "3"):
            with pytest.raises(WireError, match="postings_processed"):
                wire.decode_counters({"postings_processed": value})


class TestLatencyRollup:
    def test_nearest_rank_percentiles(self):
        rollup = LatencyRollup()
        for ms in range(1, 101):  # 1..100
            rollup.record(float(ms))
        assert rollup.percentile(0.50) == 50.0
        assert rollup.percentile(0.95) == 95.0
        assert rollup.percentile(0.99) == 99.0
        snapshot = rollup.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["max_ms"] == 100.0
        assert snapshot["p50_ms"] == 50.0

    def test_bounded_window_evicts_oldest(self):
        rollup = LatencyRollup(capacity=4)
        for ms in (1.0, 2.0, 3.0, 4.0, 100.0, 100.0, 100.0, 100.0):
            rollup.record(ms)
        assert rollup.percentile(0.50) == 100.0  # the old cheap samples left
        assert rollup.count == 8  # but lifetime count keeps the truth

    def test_empty_rollup_is_zero(self):
        assert LatencyRollup().percentile(0.99) == 0.0
        assert LatencyRollup().snapshot()["mean_ms"] == 0.0


# -- fixed-width frames ------------------------------------------------------------
def through_json(document):
    return json.loads(json.dumps(document))


def decode_result_frame(data, modulus):
    return wire.decode_result_frame(*wire.decode_frame(data), modulus)


@st.composite
def documents(draw):
    """A modulus (W = 1, 9, 32, 128), queries under it and score maps in it."""
    modulus = draw(st.sampled_from([97, 2**64 + 13, 2**255 + 95, 2**1023 + 1155]))
    ciphertext = st.integers(1, modulus - 1)
    pairs = st.lists(st.tuples(st.text(max_size=5), ciphertext), min_size=1, max_size=4)
    queries = [
        EmbellishedQuery(
            terms=tuple(term for term, _ in query),
            encrypted_selectors=tuple(selector for _, selector in query),
        )
        for query in draw(st.lists(pairs, min_size=1, max_size=3))
    ]
    score_map = st.dictionaries(st.integers(0, 2**32 - 1), ciphertext, max_size=5)
    return modulus, queries, draw(st.lists(score_map, min_size=1, max_size=3))


def packed(scores, modulus):
    """A score map's frame body, packed apart from the codec: u32be ids, then
    big-endian ciphertexts at ``ceil(bits(n) / 8)`` bytes, in map order."""
    width = (modulus.bit_length() + 7) // 8
    return struct.pack(f">{len(scores)}I", *scores) + b"".join(
        value.to_bytes(width, "big") for value in scores.values()
    )


@pytest.fixture(scope="module")
def shard_indexes(index):
    return index.split(HashPartitioner(num_shards=2))


@st.composite
def kernel_payloads(draw):
    """A 127- to 1024-bit modulus (W below, at and above 8 x its limbs) and a
    payload: repeated documents, impact 0, empty terms, impacts that pick
    every plan width."""
    bits = draw(st.sampled_from([127, 128, 129, 1000, 1024]))
    modulus = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
    doc_id = st.one_of(st.integers(0, 30), st.integers(2**32 - 2, 2**32 - 1))
    payload = []
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.integers(0, 8))
        top = draw(st.sampled_from([6, 40, 2000]))
        impacts = sorted((draw(st.integers(0, top)) for _ in range(count)), reverse=True)
        doc_ids = [draw(doc_id) for _ in range(count)]
        selector = draw(st.integers(0, modulus - 1))
        payload.append((selector, array("I", doc_ids), array("I", impacts)))
    return modulus, payload


class TestEveryProducerFrames:
    """Whoever produced a result -- the compiled kernel, the python loop,
    ``naive=True``, the coordinator's merge or a frame decoder -- its rows are
    its score map packed, candidate order included, and both frames carry
    them as they are."""

    @pytest.mark.parametrize("backend", ["python", "cffi"])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_frames_are_the_packed_score_maps(
        self, backend, index, organization, shard_indexes, data
    ):
        if backend == "cffi" and kernels.resolve_backend()[0] != "cffi":
            pytest.skip("compiled kernel unavailable")
        bits = data.draw(st.sampled_from([127, 128, 129, 1000, 1024]))
        modulus = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
        key = BenalohPublicKey(n=modulus, g=2, r=3)
        terms = data.draw(
            st.lists(st.sampled_from(index.terms), min_size=1, max_size=4, unique=True)
        )
        query = EmbellishedQuery(
            tuple(terms), tuple(data.draw(st.integers(1, modulus - 1)) for _ in terms)
        )
        partitioner = HashPartitioner(num_shards=2)
        shards = [
            LocalShardBackend(
                PrivateRetrievalServer(
                    index=shard,
                    organization=shard_organization(organization, set(shard.terms)),
                    public_key=key,
                )
            )
            for shard in shard_indexes
        ]
        servers = [
            PrivateRetrievalServer(
                index=index, organization=organization, public_key=key, naive=naive
            )
            for naive in (False, True)
        ]
        servers.append(
            QueryCoordinator(ShardTopology(partitioner, tuple((s,) for s in shards)), key)
        )
        previous = numbertheory.set_backend(backend)
        try:
            fast, naive, merged = [next(s.iter_batch([query]))[0] for s in servers]
            split = split_query_terms(query.terms, query.encrypted_selectors, partitioner)
            responses = [shards[shard].accumulate([split[shard]]) for shard in sorted(split)]
        finally:
            numbertheory.set_backend(previous)
        assert fast == naive == merged
        order: dict[int, int] = {}  # the merge's candidate order: shard by shard
        for response in responses:
            for doc, value in response.partials[0]:
                order[doc] = order[doc] * value % modulus if doc in order else value
        assert list(merged.encrypted_scores.items()) == list(order.items())

        record = {"kind": "result", "index": 0}
        produced = [fast, naive, merged, *(r.partials[0] for r in responses)]
        decoded = [
            decode_result_frame(wire.encode_result_frame(record, r), modulus) for r in produced
        ]
        decoded += [
            wire.decode_shard_response_frame(
                wire.encode_shard_response_frame(1, modulus, r.partials, r.counters), modulus
            ).partials[0]
            for r in responses
        ]
        for result in produced + decoded:
            rows = result.rows
            body = packed(result.encrypted_scores, modulus)
            assert rows == body
            assert wire.encode_result_frame(record, result) == wire.encode_frame(
                {**record, "count": len(result.encrypted_scores)}, body
            )
            frame = wire.encode_shard_response_frame(1, modulus, [result], [ServerCounters()])
            assert wire.decode_frame(frame)[1] == body
            assert result == result and repr(result) and list(result) is not None
            assert result.rows is rows
        for original, copy in zip(produced, decoded):
            assert list(copy) == list(original) and copy.rows == original.rows

    @pytest.mark.parametrize("backend", ["python", "cffi"])
    @given(case=kernel_payloads())
    @settings(max_examples=80, deadline=None)
    def test_accumulated_frames_are_the_oracle_maps_packed(self, backend, case):
        if backend == "cffi" and kernels.resolve_backend()[0] != "cffi":
            pytest.skip("compiled kernel unavailable")
        modulus, payload = case
        oracle: dict[int, int] = {}
        for selector, doc_ids, impacts in payload:
            for doc, impact in zip(doc_ids, impacts):
                power = pow(selector, impact, modulus)
                oracle[doc] = oracle[doc] * power % modulus if doc in oracle else power
        result, counters = parallel.accumulate_terms(payload, modulus, backend)
        record = {"kind": "result", "index": 0, "counters": encode_counters(counters)}

        def frames(answer):
            return (
                wire.encode_result_frame(record, answer),
                wire.encode_shard_response_frame(2, modulus, [answer], [counters]),
                wire.encode_result(answer),
                wire.encode_shard_response(2, modulus, [answer], [counters]),
            )

        assert result.rows == packed(oracle, modulus)
        assert frames(result) == frames(EncryptedResult(dict(oracle), modulus))
        scores = result.encrypted_scores
        assert list(scores.items()) == list(oracle.items())
        if oracle:  # the map is a memo: an edit to it reaches no encoding
            doc = next(iter(oracle))
            scores[doc] = scores[doc] % (modulus - 1) + 1
            assert frames(result) == frames(EncryptedResult(oracle, modulus))


class TestFrames:
    @given(documents())
    @settings(max_examples=60, deadline=None)
    def test_frame_equals_json_equals_original(self, case):
        modulus, queries, score_maps = case
        via_json = [decode_query(through_json(encode_query(q)), modulus) for q in queries]
        framed = wire.decode_batch_frame(wire.encode_batch_frame(queries, modulus), modulus)
        assert framed == via_json == queries
        for scores in score_maps:
            result = EncryptedResult(scores, modulus)
            data = wire.encode_result_frame({"kind": "result", "index": 0}, result)
            framed = decode_result_frame(data, modulus)
            assert framed == decode_result(through_json(encode_result(result)), modulus) == result
            assert list(framed.encrypted_scores) == list(scores), "candidate order"
            # The body is exactly the paper's model: 4 + ceil(KeyLen/8) per candidate.
            assert len(wire.decode_frame(data)[1]) == result.downstream_bytes()

        key = BenalohPublicKey(n=modulus, g=2, r=3)
        subqueries = [(list(q.terms), list(q.encrypted_selectors)) for q in queries]
        framed = wire.decode_partial_request_frame(
            wire.encode_partial_request_frame(key, subqueries)
        )
        via_json = wire.decode_partial_request(
            through_json(wire.encode_partial_request(key, subqueries))
        )
        assert framed == via_json == (key, queries)

        counters = [ServerCounters(postings_processed=len(scores)) for scores in score_maps]
        results = tuple(EncryptedResult(scores, modulus) for scores in score_maps)
        answer = (7, modulus, results, counters)
        framed = wire.decode_shard_response_frame(
            wire.encode_shard_response_frame(*answer), modulus
        )
        via_json = wire.decode_shard_response(through_json(wire.encode_shard_response(*answer)))
        assert framed == via_json == ShardResponse(7, modulus, results, tuple(counters))
        assert [p.rows for p in framed.partials] == [p.rows for p in via_json.partials]

    MODULUS = 2**64 + 13  # W = 9

    def valid_frames(self):
        """``(valid frame, its decoder)`` for each of the four framed documents."""
        n = self.MODULUS
        key = BenalohPublicKey(n=n, g=2, r=3)
        subqueries = [(("a", "b"), (5, n - 1)), (("c",), (1,))]
        queries = [EmbellishedQuery(terms, selectors) for terms, selectors in subqueries]
        results = [EncryptedResult(scores, n) for scores in ({9: 4, 2**32 - 1: n - 1}, {}, {1: 1})]
        counters = [ServerCounters() for _ in results]
        return [
            (wire.encode_batch_frame(queries, n), lambda d: wire.decode_batch_frame(d, n)),
            (
                wire.encode_result_frame({"kind": "result"}, results[0]),
                lambda d: decode_result_frame(d, n),
            ),
            (wire.encode_partial_request_frame(key, subqueries), wire.decode_partial_request_frame),
            (
                wire.encode_shard_response_frame(3, n, results, counters),
                lambda d: wire.decode_shard_response_frame(d, n),
            ),
        ]

    def test_truncated_lying_and_overlong_frames_are_wire_errors(self):
        for data, decode in self.valid_frames():
            decode(data)
            header_len, body_len = struct.unpack(">II", data[:8])
            mutants = [data[:cut] for cut in range(len(data))]  # every truncation
            mutants += [  # each length field lied up and down
                struct.pack(">II", header_len + up, body_len + down) + data[8:]
                for up, down in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
            ]
            mutants += [data + b"\0", data + data]  # trailing bytes
            for mutant in mutants:
                with pytest.raises(WireError):
                    decode(mutant)

    def test_wrong_width_ring_and_duplicates_are_wire_errors(self):
        n = self.MODULUS
        batch, result, _, shard = (data for data, _ in self.valid_frames())
        other = 2**255 + 95  # another key's W: every length is off
        for decode in (
            lambda: wire.decode_batch_frame(batch, other),
            lambda: decode_result_frame(result, other),
            lambda: wire.decode_shard_response_frame(shard, other),
        ):
            with pytest.raises(WireError):
                decode()
        for bad in (0, n, n + 5):  # representable at W, outside [1, n)
            for decode in (
                lambda: wire.decode_batch_frame(
                    wire.encode_batch_frame([EmbellishedQuery(("a",), (bad,))], n), n
                ),
                lambda: decode_result_frame(
                    wire.encode_result_frame({}, EncryptedResult({1: bad}, n)), n
                ),
                lambda: wire.decode_shard_response_frame(
                    wire.encode_shard_response_frame(
                        1, n, [EncryptedResult({1: bad}, n)], [ServerCounters()]
                    ),
                    n,
                ),
            ):
                with pytest.raises(WireError, match="modulus"):
                    decode()
        twice = struct.pack(">2I", 5, 5) + (1).to_bytes(9, "big") * 2
        with pytest.raises(WireError, match="twice"):
            decode_result_frame(wire.encode_frame({"count": 2}, twice), n)
        for count in (-1, 1, 3, True, "2", None):  # the header's count must be exact
            with pytest.raises(WireError):
                decode_result_frame(wire.encode_frame({"count": count}, twice), n)

    def test_shard_epochs_must_be_non_negative_integers(self):
        """``true == 1`` in Python, so an unchecked ``"epoch": true`` would pass
        a coordinator pinned at epoch 1."""
        n = self.MODULUS
        answer = (1, n, [EncryptedResult({1: 1}, n)], [ServerCounters()])
        response = wire.encode_shard_response(*answer)
        header, body = wire.decode_frame(wire.encode_shard_response_frame(*answer))
        assert wire.decode_shard_response(response).epoch == 1
        for epoch in (True, False, -7, 1.0, "1", None):
            with pytest.raises(WireError, match="epoch"):
                wire.decode_shard_response({**response, "epoch": epoch})
            with pytest.raises(WireError, match="epoch"):
                wire.decode_shard_response_frame(
                    wire.encode_frame({**header, "epoch": epoch}, body), n
                )

    def test_headers_must_be_json_objects_of_the_right_shape(self):
        for header in (b"[]", b'"x"', b"7", b"{]", b"\xff\xfe", b"[" * 100_000):
            with pytest.raises(WireError):
                wire.decode_frame(struct.pack(">II", len(header), 0) + header)
        queries_of = [{}, [{"terms": []}], [{"terms": [1]}], [{"terms": "ab"}], ["a"]]
        for header in ({}, *({"queries": queries} for queries in queries_of)):
            with pytest.raises(WireError):
                wire.decode_batch_frame(wire.encode_frame(header), self.MODULUS)

    def test_a_lying_length_is_a_truncated_frame_not_an_allocation(self):
        stream = io.BytesIO(struct.pack(">II", 2**32 - 1, 2**32 - 1) + b"{}")
        with pytest.raises(WireError, match="truncated frame: 2 of"):
            wire.read_frame(stream.read)
        assert wire.read_frame(lambda size: b"") is None  # a clean end between frames
