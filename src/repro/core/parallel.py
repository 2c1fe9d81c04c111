"""Homomorphic accumulation: the kernel, the merge algebra and the pending handle.

The server side of the PR scheme is embarrassingly parallel: each embellished
term's inverted list accumulates into the encrypted scores independently, and
partial accumulators merge by modular multiplication (the Benaloh homomorphism
is a product in ``Z*_n``, which is commutative and associative, so any
grouping of a document's contributions yields the bit-identical ciphertext).

This module holds what every placement of that work shares:

* the **accumulation kernel** (:func:`accumulate_terms`), the single
  implementation of the power-table fast path, executed in-process and by
  every index shard -- so "placed equals sequential" reduces to "modular
  multiplication is associative";
* the **result type** (:class:`EncryptedResult`), stored in one form, the
  frame body -- the compiled kernel writes it, every other producer packs
  its score map into it once -- and decoded to a score dict, memoised, only
  for a caller that reads one;
* the **counter type** (:class:`ServerCounters`): the kernel returns one
  query's counts in the same object the server and the coordinator complete
  and yield beside the query's result;
* **merging** (:func:`merge_shard_results`) of per-shard results, one
  modular multiplication per document that appears in more than one
  partial.  Within-partial plus merge multiplications always total exactly
  the sequential fast path's count (``postings - distinct candidates``), so
  the cost model is unchanged by placement -- only where the
  multiplications happen moves.  Its one caller
  is the shard coordinator (:mod:`repro.core.coordinator`): partials exist
  only where a query's terms live in different processes;
* the **pending handle** (:class:`PendingResult`) every dispatch returns: one
  whole query's accumulation, deferred in-process or in flight on a pool.

Worker threads overlap only inside the compiled kernel, and no measured shape
has shown a pool beating the in-process kernel (``docs/operations.md``,
*Placement*): nothing that serves builds one.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro.crypto import kernels, numbertheory

__all__ = [
    "EncryptedResult",
    "ServerCounters",
    "TermPayload",
    "PendingResult",
    "accumulate_terms",
    "merge_shard_results",
]

#: Per-term work unit handed to workers: ``(encrypted_selector, doc_ids,
#: quantised_impacts)`` -- the term's live rows from ``IndexSnapshot.columns``
#: (``array('I')``), in run order, not impact order.  Passed by reference:
#: for a term held by one clean run they are that segment's own arrays.
TermPayload = tuple[int, array, array]


@dataclass
class ServerCounters:
    """Operation counts of one answered query (or, summed, of a batch).

    The kernel fills the accumulation counts of one run; the server adds the
    I/O model and the query's shape, and the shard coordinator its merge and
    failover counts -- one type from the kernel to the wire.
    """

    blocks_read: int = 0
    postings_processed: int = 0
    modular_exponentiations: int = 0
    modular_multiplications: int = 0
    table_multiplications: int = 0
    buckets_fetched: int = 0
    terms_processed: int = 0
    #: Kernel runs behind this answer: 1 on a single node (0 for an empty
    #: query), the index shards touched on the coordinator.
    shards_executed: int = 0
    #: Modular multiplications the coordinator spent merging shard partials
    #: (always 0 on a single node).  Already included in
    #: :attr:`modular_multiplications` -- within-shard plus merge
    #: multiplications always equal the sequential count, so this only
    #: attributes where they happened.
    merge_multiplications: int = 0
    #: Queries answered into these counters (1 per query; summed over a batch).
    queries_processed: int = 0
    #: How a distributed answer *survived*, booked by
    #: :class:`~repro.core.coordinator.QueryCoordinator` (always 0 on a single
    #: node): replica failovers walked, and queries answered without a dark
    #: shard (``allow_partial``).  Neither changes result bits or op totals.
    tasks_retried: int = 0
    degraded_queries: int = 0

    def add(self, other: "ServerCounters") -> None:
        """Accumulate another counter set (used to aggregate a batch)."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @classmethod
    def total(cls, counter_sets: Iterable["ServerCounters"]) -> "ServerCounters":
        """A fresh counter set holding the sum of ``counter_sets``."""
        total = cls()
        for counters in counter_sets:
            total.add(counters)
        return total


#: :class:`ServerCounters`' field names, read once rather than per query.
COUNTER_FIELDS: tuple[str, ...] = tuple(spec.name for spec in fields(ServerCounters))


class EncryptedResult:
    """The candidate result set ``R``: document ids with encrypted relevance scores.

    Stored in one form, its wire ``rows``: ``count`` u32 big-endian document
    ids, then ``count`` big-endian ciphertexts of
    :func:`~repro.crypto.kernels.ciphertext_width` bytes, in candidate order
    -- the body a frame carries, at the paper's ``4 + ceil(KeyLen/8)`` bytes
    per candidate.  Built from a score map (packed once, here), from the
    compiled kernel's rows (:meth:`from_rows`) or from a received body
    (:meth:`parse`).  Every encoder, framed or JSON, sends the rows.
    :attr:`encrypted_scores` is the decoded map, memoised: a plain dict,
    which ``==``, ``repr``, iteration and :func:`merge_shard_results` read;
    an edit to it changes neither ``rows`` nor any encoding.
    """

    __slots__ = ("modulus", "rows", "_scores")

    def __init__(self, encrypted_scores: dict[int, int], modulus: int) -> None:
        try:
            ids = struct.pack(f">{len(encrypted_scores)}I", *encrypted_scores)
            values = kernels.pack_ciphertexts(encrypted_scores.values(), modulus)
        except (struct.error, ValueError) as exc:
            raise ValueError(f"a score map no frame can carry: {exc}") from exc
        self.rows = ids + values
        self.modulus = modulus
        self._scores = encrypted_scores

    @classmethod
    def from_rows(cls, rows: bytes, modulus: int) -> "EncryptedResult":
        """The result whose wire rows are ``rows``, taken as they are."""
        result = cls.__new__(cls)
        result.rows, result.modulus, result._scores = rows, modulus, None
        return result

    @classmethod
    def parse(cls, body: bytes, count: int, modulus: int) -> "EncryptedResult":
        """The result a received body of ``count`` candidates carries.

        ``ValueError`` unless the length is exact, every ciphertext lies in
        ``[1, modulus)`` and no document id appears twice; the decoded map
        is memoised, so the receiver decodes the body once.
        """
        width = kernels.ciphertext_width(modulus)
        if len(body) != count * (4 + width):
            raise ValueError(f"body is {len(body)} bytes, expected {count} x (4 + {width})")
        result = cls.from_rows(bytes(body), modulus)
        ids, values = result.columns()
        kernels.check_ciphertexts(values, modulus)
        result._scores = dict(zip(ids, values))
        if len(result._scores) != count:
            raise ValueError("names a document id twice")
        return result

    @property
    def encrypted_scores(self) -> dict[int, int]:
        """``{doc id: ciphertext}`` in candidate order."""
        if self._scores is None:
            self._scores = dict(zip(*self.columns()))
        return self._scores

    def columns(self) -> tuple[tuple[int, ...], list[int]]:
        """The rows decoded: the document ids, then the ciphertexts."""
        count = len(self)
        return struct.unpack_from(f">{count}I", self.rows), kernels.unpack_ciphertexts(
            self.rows, self.modulus, 4 * count
        )

    def __len__(self) -> int:
        return len(self.rows) // (4 + kernels.ciphertext_width(self.modulus))

    def __iter__(self):
        return iter(self.encrypted_scores.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EncryptedResult):
            return NotImplemented
        return (self.modulus, self.encrypted_scores) == (other.modulus, other.encrypted_scores)

    def __repr__(self) -> str:
        return f"EncryptedResult({self.encrypted_scores!r}, {self.modulus!r})"

    def downstream_bytes(self) -> int:
        """Size on the wire: a 4-byte document id + a ciphertext per candidate."""
        return len(self.rows)


def accumulate_terms(
    payload: Sequence[TermPayload], modulus: int, backend: str | None = None
) -> tuple[EncryptedResult, ServerCounters]:
    """The power-table accumulation kernel over a sequence of term payloads.

    This is the one implementation behind every fast query, wherever the
    query's terms live: a single node or an index shard.  Returns the
    per-document encrypted accumulators and the exact operation counts of
    this one kernel run (``shards_executed`` is 1, or 0 for an empty
    payload).  The per-posting loop below is the correctness oracle; the
    ``cffi`` backend hands whole payloads to the one-call Montgomery-form C
    kernel in :mod:`repro.crypto.kernels`, falling back to the loop (and
    booking the reason there) whenever a payload leaves the kernel's
    envelope.  The kernel hands back the result's rows as it wrote them, the
    loop packs its score dict into the same bytes, and the counters are
    identical.

    ``backend`` pins the arithmetic for this one call (the bit-identity
    suites pin ``"python"`` as the oracle); ``None`` reads the process's
    :func:`repro.crypto.numbertheory.get_backend`.
    """
    if backend is None:
        backend = numbertheory.get_backend()
    shards = 1 if payload else 0
    if backend == "cffi":
        fast = kernels.accumulate_compiled(payload, modulus)
        if fast is not None:
            rows, postings, table_mults, accumulator_mults = fast
            return EncryptedResult.from_rows(rows, modulus), ServerCounters(
                postings_processed=postings,
                modular_multiplications=accumulator_mults,
                table_multiplications=table_mults,
                shards_executed=shards,
            )
    counts = ServerCounters(shards_executed=shards)
    accumulators: dict[int, int] = {}
    accumulator_get = accumulators.get
    for selector, doc_ids, impacts in payload:
        if not len(doc_ids):
            continue
        table, table_mults = kernels.build_power_table(selector, impacts, modulus)
        counts.table_multiplications += table_mults
        counts.postings_processed += len(doc_ids)
        # One table lookup + at most one accumulator multiplication per
        # posting; the multiplication count is recovered from the number
        # of first-time candidates instead of a per-posting increment.
        new_candidates = -len(accumulators)
        for doc_id, impact in zip(doc_ids, impacts):
            existing = accumulator_get(doc_id)
            if existing is None:
                accumulators[doc_id] = table[impact]
            else:
                accumulators[doc_id] = existing * table[impact] % modulus
        new_candidates += len(accumulators)
        counts.modular_multiplications += len(doc_ids) - new_candidates
    return EncryptedResult(accumulators, modulus), counts


def merge_shard_results(
    partials: Sequence[EncryptedResult], modulus: int
) -> tuple[EncryptedResult, int]:
    """Merge per-shard results by modular multiplication.

    A document that accumulated contributions in ``k`` shards costs ``k - 1``
    merge multiplications; summed with the within-shard multiplications this
    is exactly the sequential count (``postings - distinct candidates``), so
    sharding relocates work without creating or destroying any.
    """
    merged: dict[int, int] = {}
    merge_multiplications = 0
    for partial in partials:
        for doc_id, value in partial.encrypted_scores.items():
            existing = merged.get(doc_id)
            if existing is None:
                merged[doc_id] = value
            else:
                merged[doc_id] = existing * value % modulus
                merge_multiplications += 1
    return EncryptedResult(merged, modulus), merge_multiplications


class PendingResult:
    """Handle to one query's accumulation -- the one thing a dispatch returns.

    Holds the query's payload and, when the engine handed it to a pool
    worker, that task's future.  Without a future the payload accumulates
    lazily on the first :meth:`result`, so a streaming consumer of an
    in-process batch pays for each query only when it asks for it; with one,
    :meth:`result` waits for the worker and a task's exception is raised
    from it, as the in-process kernel would raise it.  ``result`` is
    idempotent.
    """

    def __init__(self, modulus: int, payload: Sequence[TermPayload], future=None) -> None:
        self._modulus = modulus
        self._payload = payload
        self._future = future
        self._resolved: tuple[EncryptedResult, ServerCounters] | None = None

    def result(self) -> tuple[EncryptedResult, ServerCounters]:
        """``(result, counts)``, blocking: :func:`accumulate_terms`' answer."""
        if self._resolved is None:
            if self._future is None:
                self._resolved = accumulate_terms(self._payload, self._modulus)
            else:
                self._resolved = self._future.result()
        return self._resolved
