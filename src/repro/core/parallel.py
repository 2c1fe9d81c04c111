"""Parallel execution subsystem: sharded and batched homomorphic accumulation.

The server side of the PR scheme is embarrassingly parallel: each embellished
term's inverted list accumulates into the encrypted scores independently, and
partial accumulators merge by modular multiplication (the Benaloh homomorphism
is a product in ``Z*_n``, which is commutative and associative, so any
grouping of a document's contributions yields the bit-identical ciphertext).

This module holds what every placement of that work shares:

* the **accumulation kernel** (:func:`accumulate_terms`), the single
  implementation of the power-table fast path, executed in-process and by
  every pool worker -- so "parallel equals sequential" reduces to "modular
  multiplication is associative";
* **shard partitioning** (:func:`partition_payload`), a greedy
  longest-list-first balance of the query's term lists over ``parallelism``
  shards;
* **merging** (:func:`merge_shard_results`), one modular multiplication per
  document that appears in more than one shard.  Within-shard plus merge
  multiplications always total exactly the sequential fast path's count
  (``postings - distinct candidates``), so the cost model is unchanged by
  parallelism -- only the op *placement* moves;
* the **backend as a value**: a worker task is the kernel's own argument
  tuple ``(payload, modulus, backend)`` -- workers run
  ``accumulate_terms(*task)`` and read no process-wide setting (the kernel
  draws no randomness: results are a pure function of the task);
* the **pending handle** (:class:`PendingResult`) every dispatch returns: one
  query's accumulation, deferred in-process or in flight on a pool.

Worker threads overlap only inside the compiled kernel, and no measured shape
has yet shown a pool beating the in-process kernel (``docs/operations.md``,
*Parallelism*); ``parallelism=1`` is the default everywhere.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.core.partitioning import lpt_assignment
from repro.crypto import kernels, numbertheory
from repro.crypto.kernels import build_power_table, power_table_strategy

__all__ = [
    "ShardCounts",
    "TermPayload",
    "PendingResult",
    "power_table_strategy",
    "term_cost",
    "build_power_table",
    "accumulate_terms",
    "partition_payload",
    "merge_shard_results",
    "collect_shard_results",
]

#: Per-term work unit handed to workers: ``(encrypted_selector, doc_ids,
#: quantised_impacts)``.  The arrays are the index's own columnar storage
#: (``array('I')``), passed by reference.
TermPayload = tuple[int, array, array]


@dataclass
class ShardCounts:
    """Operation counts produced by one run of the accumulation kernel."""

    postings: int = 0
    table_multiplications: int = 0
    accumulator_multiplications: int = 0

    def add(self, other: "ShardCounts") -> None:
        self.postings += other.postings
        self.table_multiplications += other.table_multiplications
        self.accumulator_multiplications += other.accumulator_multiplications


def term_cost(entry: TermPayload) -> int:
    """Estimated modular multiplications one term payload costs its shard.

    One accumulator multiplication per posting plus the power-table build
    cost of the list's distinct quantised impacts (the same strategy choice
    :func:`build_power_table` will make).  This is what the LPT partition
    balances -- not bare posting counts: two equally long lists can differ by
    hundreds of table multiplications when one quantises to a single impact
    level and the other spreads over the whole range, exactly the skew
    impact-ordered lists exhibit.  Deterministic, selector-independent, and
    cheap (no ciphertext arithmetic), so planners and analytic estimators
    can replay it.
    """
    _, doc_ids, impacts = entry
    if not len(doc_ids):
        return 0
    distinct = sorted(set(impacts))
    _, table_multiplications = power_table_strategy(distinct, distinct[-1])
    return len(doc_ids) + table_multiplications


def accumulate_terms(
    payload: Sequence[TermPayload], modulus: int, backend: str | None = None
) -> tuple[dict[int, int], ShardCounts]:
    """The power-table accumulation kernel over a sequence of term payloads.

    This is the one implementation behind every fast query: the in-process
    path, every shard worker and every batch worker.  Returns the
    per-document encrypted accumulators and the exact operation counts.  The
    per-posting loop below is the correctness oracle; the ``cffi`` backend
    hands whole payloads to the one-call Montgomery-form C kernel in
    :mod:`repro.crypto.kernels`, falling back to the loop (and booking the
    reason there) whenever a payload leaves the kernel's envelope.  Both
    return plain-``int`` accumulators in the same insertion order with
    identical values and identical counters.

    ``backend`` is the caller's choice, passed as a value -- the serving
    front-end resolves one at start-up and threads it down here without
    touching process-wide state; ``None`` means the library default,
    :func:`repro.crypto.numbertheory.get_backend`.
    """
    if backend is None:
        backend = numbertheory.get_backend()
    if backend == "cffi":
        fast = kernels.accumulate_compiled(payload, modulus)
        if fast is not None:
            accumulators, postings, table_mults, accumulator_mults = fast
            return accumulators, ShardCounts(postings, table_mults, accumulator_mults)
    counts = ShardCounts()
    accumulators: dict[int, int] = {}
    accumulator_get = accumulators.get
    for selector, doc_ids, impacts in payload:
        if not len(doc_ids):
            continue
        table, table_mults = build_power_table(selector, impacts, modulus)
        counts.table_multiplications += table_mults
        counts.postings += len(doc_ids)
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
        counts.accumulator_multiplications += len(doc_ids) - new_candidates
    return accumulators, counts


def partition_payload(
    payload: Sequence[TermPayload],
    shards: int,
    costs: Sequence[int] | None = None,
) -> list[list[TermPayload]]:
    """Balance term payloads over ``shards`` shards, greedily by estimated cost.

    Terms are assigned costliest-first to the currently lightest shard (LPT
    scheduling) where a term's cost is :func:`term_cost` -- its posting count
    plus its power-table build multiplications -- which keeps the per-shard
    *modular-multiplication* totals within one term cost of each other.
    Empty shards are dropped, so the result may contain fewer than ``shards``
    entries for narrow queries.
    ``costs`` lets callers that already computed per-entry :func:`term_cost`
    values (the hybrid batch scheduler) pass them in instead of recomputing.
    """
    if shards <= 1 or len(payload) <= 1:
        return [list(payload)] if payload else []
    if costs is None:
        costs = [term_cost(entry) for entry in payload]
    # The LPT core is shared with the static term->shard maps of
    # repro.core.partitioning -- dynamic and distributed placement balance
    # work through the same greedy.
    assignment = lpt_assignment(costs, min(shards, len(payload)))
    buckets: list[list[TermPayload]] = [[] for _ in range(min(shards, len(payload)))]
    # LPT visits items costliest-first, but bucket contents must keep the
    # costliest-first arrival order the greedy produced; replay in that order.
    order = sorted(range(len(payload)), key=lambda i: costs[i], reverse=True)
    for i in order:
        buckets[assignment[i]].append(payload[i])
    return [bucket for bucket in buckets if bucket]


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


def collect_shard_results(
    partials: Sequence[tuple[dict[int, int], ShardCounts]], modulus: int
) -> tuple[dict[int, int], ShardCounts, int]:
    """Combine per-shard kernel outputs into one accumulator set plus counts."""
    counts = ShardCounts()
    for _, shard_counts in partials:
        counts.add(shard_counts)
    merged, merge_multiplications = merge_shard_results(
        [accumulators for accumulators, _ in partials], modulus
    )
    return merged, counts, merge_multiplications


class PendingResult:
    """Handle to one query's accumulation -- the one thing a dispatch returns.

    Either a deferred in-process payload (accumulated lazily on the first
    :meth:`result`, so a streaming consumer of a one-worker batch pays for
    each query only when it asks for it) or the shard futures of a dispatched
    query, collected in order -- a shard task's exception is raised from
    :meth:`result`, as the in-process kernel would raise it.  ``result`` is
    idempotent; :attr:`shards` reports how many shard tasks the query
    executed (0 for an empty payload).
    """

    def __init__(
        self,
        modulus: int,
        payload: Sequence[TermPayload] | None = None,
        futures: Sequence | None = None,
        backend: str | None = None,
    ) -> None:
        if (futures is None) == (payload is None):
            raise ValueError("exactly one of futures/payload must be provided")
        self._modulus = modulus
        self._payload = payload
        #: What a deferred payload accumulates on (``None``: library default);
        #: dispatched shards carry theirs in the task tuple.
        self._backend = backend
        self._futures = futures
        self._resolved: tuple[dict[int, int], ShardCounts, int, int] | None = None

    @property
    def shards(self) -> int:
        if self._futures is not None:
            return len(self._futures)
        return 1 if self._payload else 0

    def done(self) -> bool:
        """True once collecting will not wait on outstanding worker futures.

        A payload-deferred handle always reports True: nothing is in flight
        elsewhere, but the accumulation itself runs inside the first
        :meth:`result` call.
        """
        if self._resolved is not None or self._futures is None:
            return True
        return all(future.done() for future in self._futures)

    def result(self) -> tuple[dict[int, int], ShardCounts, int, int]:
        """``(accumulators, counts, merge_multiplications, shards)``, blocking."""
        if self._resolved is None:
            if self._futures is None:
                accumulators, counts = accumulate_terms(
                    self._payload, self._modulus, self._backend
                )
                self._resolved = (accumulators, counts, 0, self.shards)
            else:
                merged, counts, merge_multiplications = collect_shard_results(
                    [future.result() for future in self._futures], self._modulus
                )
                self._resolved = (merged, counts, merge_multiplications, self.shards)
        return self._resolved
