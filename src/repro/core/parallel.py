"""Homomorphic accumulation: the kernel, the merge algebra and the pending handle.

The server side of the PR scheme is embarrassingly parallel: each embellished
term's inverted list accumulates into the encrypted scores independently, and
partial accumulators merge by modular multiplication (the Benaloh homomorphism
is a product in ``Z*_n``, which is commutative and associative, so any
grouping of a document's contributions yields the bit-identical ciphertext).

This module holds what every placement of that work shares:

* the **accumulation kernel** (:func:`accumulate_terms`), the single
  implementation of the power-table fast path, executed in-process, by every
  pool worker and by every index shard -- so "placed equals sequential"
  reduces to "modular multiplication is associative";
* the **counter type** (:class:`ServerCounters`): the kernel returns one
  query's counts in the same object the server and the coordinator complete
  and yield beside the query's result;
* **merging** (:func:`merge_shard_results`), one modular multiplication per
  document that appears in more than one partial.  Within-partial plus merge
  multiplications always total exactly the sequential fast path's count
  (``postings - distinct candidates``), so the cost model is unchanged by
  placement -- only where the multiplications happen moves.  Its one caller
  is the shard coordinator (:mod:`repro.core.coordinator`): partials exist
  only where a query's terms live in different processes;
* the **pending handle** (:class:`PendingResult`) every dispatch returns: one
  whole query's accumulation, deferred in-process or in flight on a pool.

Worker threads overlap only inside the compiled kernel, and no measured shape
has shown a pool beating the in-process kernel (``docs/operations.md``,
*Placement*): nothing that serves builds one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro.crypto import kernels, numbertheory
from repro.crypto.kernels import build_power_table, power_table_strategy

__all__ = [
    "ServerCounters",
    "TermPayload",
    "PendingResult",
    "power_table_strategy",
    "build_power_table",
    "accumulate_terms",
    "merge_shard_results",
]

#: Per-term work unit handed to workers: ``(encrypted_selector, doc_ids,
#: quantised_impacts)``.  The arrays are the index's own columnar storage
#: (``array('I')``), passed by reference.
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
        for counter in fields(self):
            setattr(
                self, counter.name, getattr(self, counter.name) + getattr(other, counter.name)
            )

    @classmethod
    def total(cls, counter_sets: Iterable["ServerCounters"]) -> "ServerCounters":
        """A fresh counter set holding the sum of ``counter_sets``."""
        total = cls()
        for counters in counter_sets:
            total.add(counters)
        return total


def accumulate_terms(
    payload: Sequence[TermPayload], modulus: int, backend: str | None = None
) -> tuple[dict[int, int], ServerCounters]:
    """The power-table accumulation kernel over a sequence of term payloads.

    This is the one implementation behind every fast query: the in-process
    path, every shard worker and every batch worker.  Returns the
    per-document encrypted accumulators and the exact operation counts of
    this one kernel run (``shards_executed`` is 1, or 0 for an empty
    payload).  The per-posting loop below is the correctness oracle; the
    ``cffi`` backend hands whole payloads to the one-call Montgomery-form C
    kernel in :mod:`repro.crypto.kernels`, falling back to the loop (and
    booking the reason there) whenever a payload leaves the kernel's
    envelope.  Both
    return plain-``int`` accumulators in the same insertion order with
    identical values and identical counters.

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
            accumulators, postings, table_mults, accumulator_mults = fast
            return accumulators, ServerCounters(
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
        table, table_mults = build_power_table(selector, impacts, modulus)
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
    return accumulators, counts


def merge_shard_results(
    partials: Sequence[dict[int, int]], modulus: int
) -> tuple[dict[int, int], int]:
    """Merge per-shard accumulators by modular multiplication.

    A document that accumulated contributions in ``k`` shards costs ``k - 1``
    merge multiplications; summed with the within-shard multiplications this
    is exactly the sequential count (``postings - distinct candidates``), so
    sharding relocates work without creating or destroying any.
    """
    merged: dict[int, int] = {}
    merge_multiplications = 0
    for partial in partials:
        for doc_id, value in partial.items():
            existing = merged.get(doc_id)
            if existing is None:
                merged[doc_id] = value
            else:
                merged[doc_id] = existing * value % modulus
                merge_multiplications += 1
    return merged, merge_multiplications


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
        self._resolved: tuple[dict[int, int], ServerCounters] | None = None

    def result(self) -> tuple[dict[int, int], ServerCounters]:
        """``(accumulators, counts)``, blocking: :func:`accumulate_terms`' answer."""
        if self._resolved is None:
            if self._future is None:
                self._resolved = accumulate_terms(self._payload, self._modulus)
            else:
                self._resolved = self._future.result()
        return self._resolved
