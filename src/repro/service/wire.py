"""Wire codecs between the HTTP surface and the core PR types.

**Fixed-width frames** (:data:`FRAME_MEDIA_TYPE`) -- the data plane's one
codec: the only body the service's two accumulating routes accept, and what
``ServiceClient`` and ``HttpShardBackend`` speak, at the paper's modelled
``4 + ceil(KeyLen/8)`` bytes per candidate.  A frame is
``u32be header_len | u32be body_len | header | body``: the header a UTF-8
JSON object with everything that is not a ciphertext, the body big-endian
integers at a fixed width -- ``u32`` document ids, and ciphertexts at
``W = ceil(bits(n) / 8)`` bytes, where ``n`` is the modulus both ends
already hold for the session.  ``W`` never travels: a frame cut for another
key simply has the wrong length.  ``docs/architecture.md`` has the layouts.

**hex/JSON** -- the control plane's documents (public key, organisation,
counters; the key and counters also ride in frame headers), with big
integers as lowercase hex.  The JSON *data-plane* codec (``encode_query`` /
``decode_query``, ``_result``, ``_partial_request``, ``_shard_response``)
has no route any more: it stays only because ``benchmarks/e2e/layers.py``
replays it under its per-layer metric names, and goes when that replay moves
to frames.

Every decoder validates shape -- lengths exact, terms and selectors aligned,
every ciphertext in ``[1, n)``, no document id twice, no trailing bytes --
and raises :class:`WireError` with a message safe to echo into a 400
response: decoding errors are the *sender's* fault and must never take the
service down or leak internals.  Size is bounded where a peer is untrusted:
a request by :data:`~repro.service.protocol.MAX_BODY_BYTES` on its
``Content-Length`` before the body is read.  What the service *answers* has
no cap of the codec's own -- a result is as large as the query's candidate
set -- and a frame's length fields are read against the bytes that actually
arrive, never allocated ahead of them.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Callable, Mapping, Sequence

from repro.core.buckets import BucketOrganization
from repro.core.embellish import EmbellishedQuery
from repro.core.server import EncryptedResult, ServerCounters
from repro.crypto import kernels
from repro.crypto.benaloh import BenalohPublicKey

__all__ = [
    "WireError",
    "encode_int",
    "decode_int",
    "encode_query",
    "decode_query",
    "encode_result",
    "decode_result",
    "encode_public_key",
    "decode_public_key",
    "encode_organization",
    "decode_organization",
    "encode_counters",
    "decode_counters",
    "encode_partial_request",
    "decode_partial_request",
    "encode_shard_response",
    "decode_shard_response",
    "FRAME_MEDIA_TYPE",
    "encode_frame",
    "read_frame",
    "decode_frame",
    "encode_batch_frame",
    "decode_batch_frame",
    "encode_result_frame",
    "decode_result_frame",
    "encode_partial_request_frame",
    "decode_partial_request_frame",
    "encode_shard_response_frame",
    "decode_shard_response_frame",
]


class WireError(ValueError):
    """A malformed payload; surfaces to the client as 400, never as a 500."""


def encode_int(value: int) -> str:
    """A non-negative big integer as lowercase hex."""
    return format(value, "x")


def decode_int(value, what: str = "integer") -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 16)
        except ValueError:
            pass
    raise WireError(f"{what} must be a hex string (got {value!r})")


def _expect(obj, key: str, kind, what: str):
    if not isinstance(obj, Mapping) or key not in obj:
        raise WireError(f"{what} must be an object with a {key!r} field")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise WireError(f"{what}.{key} has the wrong type (got {type(value).__name__})")
    return value


# -- queries and results ----------------------------------------------------------
def encode_query(query: EmbellishedQuery) -> dict:
    return {
        "terms": list(query.terms),
        "selectors": [encode_int(c) for c in query.encrypted_selectors],
    }


def _check_ciphertext(value: int, modulus: int | None, what: str) -> int:
    """Reject ciphertexts outside the session's residue ring.

    A Benaloh ciphertext lives in ``Z*_n``: values at or above the modulus
    (or below 1) were never produced by the session key, and accumulating
    them would silently compute in the wrong ring.  Decoders that know the
    tenant's modulus enforce this, turning a corrupt or mismatched client
    into a 400 instead of garbage ciphertext arithmetic.
    """
    if modulus is not None and not 1 <= value < modulus:
        raise WireError(
            f"{what} {format(value, 'x')} outside the session modulus "
            f"(expected 1 <= value < {format(modulus, 'x')})"
        )
    return value


def _query_terms(obj) -> tuple[str, ...]:
    """One query's term list: non-empty, strings only (frames and JSON)."""
    terms = _expect(obj, "terms", list, "query")
    if not terms:
        raise WireError("query must contain at least one term")
    if not all(isinstance(term, str) for term in terms):
        raise WireError("query terms must be strings")
    return tuple(terms)


def decode_query(obj, modulus: int | None = None) -> EmbellishedQuery:
    """Decode one embellished query; with ``modulus``, every selector
    ciphertext is validated against the session key's ring."""
    terms = _query_terms(obj)
    selectors = _expect(obj, "selectors", list, "query")
    if len(terms) != len(selectors):
        raise WireError("query terms and selectors must align one-to-one")
    return EmbellishedQuery(
        terms=terms,
        encrypted_selectors=tuple(
            _check_ciphertext(
                decode_int(value, "query selector"), modulus, "query selector"
            )
            for value in selectors
        ),
    )


def encode_result(result: EncryptedResult) -> dict:
    return {
        "scores": {
            str(doc_id): encode_int(ciphertext)
            for doc_id, ciphertext in result.encrypted_scores.items()
        }
    }


def _decode_score_map(scores: Mapping, modulus: int, what: str) -> dict[int, int]:
    """A JSON ``{doc id: hex ciphertext}`` map, every value checked against
    the ring it must live in and no document answered twice."""
    try:
        decoded = {
            int(doc_id): _check_ciphertext(decode_int(value, what), modulus, what)
            for doc_id, value in scores.items()
        }
    except WireError:
        raise
    except ValueError as exc:
        raise WireError(f"{what} document ids must be integers") from exc
    if len(decoded) != len(scores):
        raise WireError(f"{what} names a document id twice")
    return decoded


def decode_result(obj, modulus: int) -> EncryptedResult:
    """Decode one result; a score outside ``[1, modulus)`` -- a corrupted
    response, or one accumulated under another key -- is a :class:`WireError`
    here, not garbage (or an unrelated ``ValueError``) at decryption."""
    scores = _expect(obj, "scores", Mapping, "result")
    return EncryptedResult(
        encrypted_scores=_decode_score_map(scores, modulus, "result score"),
        modulus=modulus,
    )


# -- key material -----------------------------------------------------------------
def encode_public_key(key: BenalohPublicKey) -> dict:
    return {"n": encode_int(key.n), "g": encode_int(key.g), "r": key.r}


def decode_public_key(obj) -> BenalohPublicKey:
    n = decode_int(_expect(obj, "n", None, "public key"), "public key n")
    g = decode_int(_expect(obj, "g", None, "public key"), "public key g")
    r = _expect(obj, "r", int, "public key")
    if n <= 1 or g <= 1 or r <= 1:
        raise WireError("public key parameters must exceed 1")
    # The largest modulus the kernel serves: one multiply far beyond it
    # takes seconds, and a local batch accumulates on the event loop.
    if n.bit_length() > 64 * kernels.MAXL:
        raise WireError(
            f"public key modulus of {n.bit_length()} bits exceeds {64 * kernels.MAXL}"
        )
    return BenalohPublicKey(n=n, g=g, r=r)


# -- bucket organisation ----------------------------------------------------------
def encode_organization(organization: BucketOrganization) -> dict:
    """The organisation is shared state, not a secret (the server co-locates
    each bucket's lists), so shipping it to clients leaks nothing beyond what
    the scheme already assumes the server knows."""
    return {
        "bucket_size": organization.bucket_size,
        "segment_size": organization.segment_size,
        "buckets": [list(bucket) for bucket in organization.buckets],
    }


def decode_organization(obj) -> BucketOrganization:
    buckets = _expect(obj, "buckets", list, "organization")
    bucket_size = _expect(obj, "bucket_size", int, "organization")
    segment_size = _expect(obj, "segment_size", int, "organization")
    try:
        return BucketOrganization(
            buckets=tuple(tuple(bucket) for bucket in buckets),
            bucket_size=bucket_size,
            segment_size=segment_size,
            specificity={},
        )
    except (TypeError, ValueError) as exc:
        raise WireError(f"invalid organization: {exc}") from exc


# -- instrumentation --------------------------------------------------------------
def encode_counters(counters: ServerCounters) -> dict:
    """Every :class:`~repro.core.server.ServerCounters` field, by name --
    the same numbers :meth:`repro.core.costs.CostModel.pr_report` consumes,
    so service metrics reconcile with in-process cost reports."""
    from dataclasses import fields

    return {spec.name: getattr(counters, spec.name) for spec in fields(counters)}


def decode_counters(obj) -> ServerCounters:
    """The inverse of :func:`encode_counters`; unknown fields are ignored
    (a newer shard may count things an older coordinator does not know),
    missing ones default to zero."""
    from dataclasses import fields

    if not isinstance(obj, Mapping):
        raise WireError("counters must be an object")
    counters = ServerCounters()
    for spec in fields(counters):
        value = obj.get(spec.name, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise WireError(f"counters.{spec.name} must be an integer")
        setattr(counters, spec.name, value)
    return counters


# -- scatter-gather partials -------------------------------------------------------
# The coordinator <-> shard-server wire format.  A partial request carries the
# session public key (the shard accumulates under it and echoes its modulus
# back) and one sub-query per scattered query; the response is epoch-stamped
# -- the data version the replica answered from, checked against the
# coordinator's pinned topology -- and modulus-tagged so a partial accumulated
# under the wrong key can never reach a merge.  Nothing here assumes the
# shard lives on the same box: ints travel as hex, ids as strings, exactly
# like the client-facing codecs.
def encode_partial_request(public_key: BenalohPublicKey, subqueries) -> dict:
    """``subqueries`` is a sequence of ``(terms, selectors)`` pairs (one per
    scattered query, already restricted to the target shard's terms)."""
    return {
        "public_key": encode_public_key(public_key),
        "queries": [
            {
                "terms": list(terms),
                "selectors": [encode_int(value) for value in selectors],
            }
            for terms, selectors in subqueries
        ],
    }


def decode_partial_request(obj) -> tuple[BenalohPublicKey, list[EmbellishedQuery]]:
    """Decode a scatter request; selector ciphertexts are validated against
    the request's own public-key modulus."""
    public_key = decode_public_key(_expect(obj, "public_key", None, "partial request"))
    queries = _expect(obj, "queries", list, "partial request")
    if not queries:
        raise WireError("partial request must contain at least one sub-query")
    return public_key, [decode_query(query, public_key.n) for query in queries]


def encode_shard_response(epoch: int, modulus: int, partials, counters) -> dict:
    """``partials[q]`` is query ``q``'s accumulator map; ``counters[q]`` its
    shard-side :class:`~repro.core.server.ServerCounters` (``ValueError`` when
    the two are not the same length)."""
    return {
        "epoch": epoch,
        "modulus": encode_int(modulus),
        "partials": [
            {
                "scores": {
                    str(doc_id): encode_int(value) for doc_id, value in partial.items()
                },
                "counters": encode_counters(per_query),
            }
            for partial, per_query in zip(partials, counters, strict=True)
        ],
    }


def decode_shard_response(obj):
    """Decode into a :class:`repro.core.coordinator.ShardResponse`."""
    from repro.core.coordinator import ShardResponse

    epoch = _expect(obj, "epoch", int, "shard response")
    modulus = decode_int(
        _expect(obj, "modulus", None, "shard response"), "shard response modulus"
    )
    entries = _expect(obj, "partials", list, "shard response")
    partials = []
    counters = []
    for entry in entries:
        scores = _expect(entry, "scores", Mapping, "shard partial")
        partials.append(_decode_score_map(scores, modulus, "partial score"))
        counters.append(decode_counters(_expect(entry, "counters", None, "shard partial")))
    return ShardResponse(
        epoch=epoch,
        modulus=modulus,
        partials=tuple(partials),
        counters=tuple(counters),
    )


# -- fixed-width frames ------------------------------------------------------------
#: Media type of the frame codec, on requests and on the responses to them.
FRAME_MEDIA_TYPE = "application/x-repro-frames"

_PREFIX = struct.Struct(">II")


def _width(modulus: int) -> int:
    """``W``: bytes of one ciphertext under ``modulus``."""
    return (modulus.bit_length() + 7) // 8


def encode_frame(header: Mapping, body: bytes = b"") -> bytes:
    """``u32be header_len | u32be body_len | header (JSON object) | body``."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(len(head), len(body)) + head + body


def read_frame(read: Callable[[int], bytes]) -> tuple[dict, bytes] | None:
    """The next frame off ``read(n)``; ``None`` at a clean end between frames.

    ``read`` returns fewer than ``n`` bytes only at the end of its stream,
    and sizes what it allocates by the bytes the stream holds, not by ``n``
    (``BytesIO.read``, and ``HTTPResponse.read`` chunk by chunk): a length
    field that lies is a truncated frame, not an allocation."""
    prefix = read(_PREFIX.size)
    if not prefix:
        return None
    if len(prefix) != _PREFIX.size:
        raise WireError("truncated frame prefix")
    header_len, body_len = _PREFIX.unpack(prefix)
    data = read(header_len + body_len)
    if len(data) != header_len + body_len:
        raise WireError(
            f"truncated frame: {len(data)} of {header_len + body_len} bytes"
        )
    try:
        header = json.loads(data[:header_len])
    except ValueError as exc:  # UnicodeDecodeError included
        raise WireError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError("frame header must be a JSON object")
    return header, data[header_len:]


def decode_frame(data: bytes) -> tuple[dict, bytes]:
    """``data`` as exactly one frame: nothing missing, nothing after it."""
    stream = io.BytesIO(data)
    frame = read_frame(stream.read)
    if frame is None:
        raise WireError("empty body where a frame was expected")
    if stream.tell() != len(data):
        raise WireError(f"{len(data) - stream.tell()} trailing bytes after the frame")
    return frame


def _pack_ciphertexts(values, width: int) -> bytes:
    try:
        return b"".join([value.to_bytes(width, "big") for value in values])
    except OverflowError as exc:
        raise WireError(f"ciphertext does not fit {width} bytes: {exc}") from exc


def _unpack_ciphertexts(body: bytes, modulus: int, what: str) -> list[int]:
    """Every ``W``-byte big-endian integer of ``body`` (a whole number of
    them: callers check the length), each in ``[1, modulus)``."""
    width = _width(modulus)
    from_bytes = int.from_bytes
    values = [
        from_bytes(body[offset : offset + width], "big")
        for offset in range(0, len(body), width)
    ]
    if values and not (min(values) >= 1 and max(values) < modulus):
        bad = next(value for value in values if not 1 <= value < modulus)
        _check_ciphertext(bad, modulus, what)
    return values


def _count(entry, what: str) -> int:
    count = _expect(entry, "count", int, what)
    if isinstance(count, bool) or count < 0:
        raise WireError(f"{what}.count must be a non-negative integer")
    return count


def _pack_scores(scores: Mapping[int, int], width: int) -> bytes:
    """``count`` x u32be document ids, then ``count`` x ciphertexts."""
    try:
        ids = struct.pack(f">{len(scores)}I", *scores)
    except struct.error as exc:
        raise WireError(f"document id does not fit 32 bits: {exc}") from exc
    return ids + _pack_ciphertexts(scores.values(), width)


def _unpack_scores(body: bytes, count: int, modulus: int, what: str) -> dict[int, int]:
    if len(body) != count * (4 + _width(modulus)):
        raise WireError(
            f"{what} body is {len(body)} bytes, expected {count} x "
            f"(4 + {_width(modulus)})"
        )
    ids = struct.unpack_from(f">{count}I", body)
    scores = dict(zip(ids, _unpack_ciphertexts(body[4 * count :], modulus, what)))
    if len(scores) != count:
        raise WireError(f"{what} names a document id twice")
    return scores


def _frame_queries(subqueries, header: Mapping, width: int) -> bytes:
    """One frame for ``(terms, selectors)`` pairs: the terms join ``header``,
    the selectors are the body, in order."""
    selectors = [value for _, values in subqueries for value in values]
    if len(selectors) != sum(len(terms) for terms, _ in subqueries):
        raise WireError("query terms and selectors must align one-to-one")
    return encode_frame(
        {**header, "queries": [{"terms": list(terms)} for terms, _ in subqueries]},
        _pack_ciphertexts(selectors, width),
    )


def _framed_queries(header: dict, body: bytes, modulus: int) -> list[EmbellishedQuery]:
    term_lists = [
        _query_terms(entry) for entry in _expect(header, "queries", list, "frame header")
    ]
    total = sum(len(terms) for terms in term_lists)
    if len(body) != total * _width(modulus):
        raise WireError(
            f"query terms and selectors must align one-to-one: {total} terms "
            f"need {total} x {_width(modulus)} selector bytes, body has {len(body)}"
        )
    selectors = _unpack_ciphertexts(body, modulus, "query selector")
    queries = []
    start = 0
    for terms in term_lists:
        end = start + len(terms)
        queries.append(
            EmbellishedQuery(terms=terms, encrypted_selectors=tuple(selectors[start:end]))
        )
        start = end
    return queries


def encode_batch_frame(queries: Sequence[EmbellishedQuery], modulus: int) -> bytes:
    """The batch request: header ``{"queries": [{"terms": [...]}, ...]}``,
    body every selector in order at the session key's ``W``."""
    return _frame_queries(
        [(query.terms, query.encrypted_selectors) for query in queries],
        {},
        _width(modulus),
    )


def decode_batch_frame(data: bytes, modulus: int) -> list[EmbellishedQuery]:
    return _framed_queries(*decode_frame(data), modulus)


def encode_result_frame(record: Mapping, result: EncryptedResult) -> bytes:
    """One result of the batch stream: ``record`` (``kind``, ``index``,
    ``counters``, ``ms``) plus ``count`` is the header, the scores the body."""
    return encode_frame(
        {**record, "count": len(result)},
        _pack_scores(result.encrypted_scores, _width(result.modulus)),
    )


def decode_result_frame(header: Mapping, body: bytes, modulus: int) -> EncryptedResult:
    scores = _unpack_scores(body, _count(header, "result"), modulus, "result score")
    return EncryptedResult(encrypted_scores=scores, modulus=modulus)


def encode_partial_request_frame(public_key: BenalohPublicKey, subqueries) -> bytes:
    """:func:`encode_partial_request`, framed: the key and the terms in the
    header, the selectors in the body at that key's ``W``."""
    return _frame_queries(
        subqueries, {"public_key": encode_public_key(public_key)}, _width(public_key.n)
    )


def decode_partial_request_frame(
    data: bytes,
) -> tuple[BenalohPublicKey, list[EmbellishedQuery]]:
    header, body = decode_frame(data)
    public_key = decode_public_key(_expect(header, "public_key", None, "partial request"))
    queries = _framed_queries(header, body, public_key.n)
    if not queries:
        raise WireError("partial request must contain at least one sub-query")
    return public_key, queries


def encode_shard_response_frame(epoch: int, modulus: int, partials, counters) -> bytes:
    """:func:`encode_shard_response`, framed: per partial its ``count`` and
    ``counters`` in the header, its ids and values in the body, in order."""
    width = _width(modulus)
    header = {
        "epoch": epoch,
        "modulus": encode_int(modulus),
        "partials": [
            {"count": len(partial), "counters": encode_counters(per_query)}
            for partial, per_query in zip(partials, counters, strict=True)
        ],
    }
    return encode_frame(
        header, b"".join([_pack_scores(partial, width) for partial in partials])
    )


def decode_shard_response_frame(data: bytes, modulus: int):
    """Decode into a :class:`repro.core.coordinator.ShardResponse`; ``modulus``
    is the key the *caller* scattered under -- it sizes the body, and the
    response's own tag is handed on for the coordinator to hold against it."""
    from repro.core.coordinator import ShardResponse

    header, body = decode_frame(data)
    epoch = _expect(header, "epoch", int, "shard response")
    tagged = decode_int(
        _expect(header, "modulus", None, "shard response"), "shard response modulus"
    )
    partials = []
    counters = []
    offset = 0
    per_candidate = 4 + _width(modulus)
    for entry in _expect(header, "partials", list, "shard response"):
        count = _count(entry, "shard partial")
        end = offset + count * per_candidate
        if end > len(body):
            raise WireError("shard partial runs past the end of the frame body")
        partials.append(_unpack_scores(body[offset:end], count, modulus, "partial score"))
        counters.append(decode_counters(_expect(entry, "counters", None, "shard partial")))
        offset = end
    if offset != len(body):
        raise WireError(f"{len(body) - offset} trailing bytes after the last partial")
    return ShardResponse(
        epoch=epoch, modulus=tagged, partials=tuple(partials), counters=tuple(counters)
    )
