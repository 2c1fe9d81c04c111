"""JSON wire codecs between the HTTP surface and the core PR types.

Ciphertexts and key material are arbitrary-precision integers; on the wire
they travel as lowercase hex strings (no ``0x`` prefix), which round-trip
exactly and cost half the bytes of decimal at realistic key sizes.  Document
ids become JSON object keys (strings) in result score maps and are restored
to ``int`` by the client codec.

Every decoder validates shape and raises :class:`WireError` with a message
safe to echo into a 400 response -- decoding errors are the *client's*
fault and must never take the service down or leak internals.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.buckets import BucketOrganization
from repro.core.embellish import EmbellishedQuery
from repro.core.server import EncryptedResult, ServerCounters
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


def decode_query(obj, modulus: int | None = None) -> EmbellishedQuery:
    """Decode one embellished query; with ``modulus``, every selector
    ciphertext is validated against the session key's ring."""
    terms = _expect(obj, "terms", list, "query")
    selectors = _expect(obj, "selectors", list, "query")
    if len(terms) != len(selectors):
        raise WireError("query terms and selectors must align one-to-one")
    if not terms:
        raise WireError("query must contain at least one term")
    if not all(isinstance(term, str) for term in terms):
        raise WireError("query terms must be strings")
    return EmbellishedQuery(
        terms=tuple(terms),
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


def decode_result(obj, modulus: int) -> EncryptedResult:
    scores = _expect(obj, "scores", Mapping, "result")
    return EncryptedResult(
        encrypted_scores={
            int(doc_id): decode_int(value, "result score")
            for doc_id, value in scores.items()
        },
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
        partials.append(
            {
                int(doc_id): _check_ciphertext(
                    decode_int(value, "partial score"), modulus, "partial score"
                )
                for doc_id, value in scores.items()
            }
        )
        counters.append(decode_counters(_expect(entry, "counters", None, "shard partial")))
    return ShardResponse(
        epoch=epoch,
        modulus=modulus,
        partials=tuple(partials),
        counters=tuple(counters),
    )
