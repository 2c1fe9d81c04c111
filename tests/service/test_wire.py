"""Round-trip and rejection tests for the wire codecs (hex/JSON and frames)."""

from __future__ import annotations

import io
import json
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coordinator import ShardResponse
from repro.core.embellish import EmbellishedQuery
from repro.core.server import EncryptedResult, ServerCounters
from repro.crypto import kernels
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
        answer = (7, modulus, score_maps, counters)
        framed = wire.decode_shard_response_frame(
            wire.encode_shard_response_frame(*answer), modulus
        )
        via_json = wire.decode_shard_response(through_json(wire.encode_shard_response(*answer)))
        assert framed == via_json == ShardResponse(7, modulus, tuple(score_maps), tuple(counters))

    MODULUS = 2**64 + 13  # W = 9

    def valid_frames(self):
        """``(valid frame, its decoder)`` for each of the four framed documents."""
        n = self.MODULUS
        key = BenalohPublicKey(n=n, g=2, r=3)
        subqueries = [(("a", "b"), (5, n - 1)), (("c",), (1,))]
        queries = [EmbellishedQuery(terms, selectors) for terms, selectors in subqueries]
        score_maps = [{9: 4, 2**32 - 1: n - 1}, {}, {1: 1}]
        counters = [ServerCounters() for _ in score_maps]
        return [
            (wire.encode_batch_frame(queries, n), lambda d: wire.decode_batch_frame(d, n)),
            (
                wire.encode_result_frame({"kind": "result"}, EncryptedResult(score_maps[0], n)),
                lambda d: decode_result_frame(d, n),
            ),
            (wire.encode_partial_request_frame(key, subqueries), wire.decode_partial_request_frame),
            (
                wire.encode_shard_response_frame(3, n, score_maps, counters),
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
                    wire.encode_shard_response_frame(1, n, [{1: bad}], [ServerCounters()]), n
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

    def test_headers_must_be_json_objects_of_the_right_shape(self):
        for header in (b"[]", b'"x"', b"7", b"{]", b"\xff\xfe"):
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
