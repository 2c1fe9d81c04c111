"""Search-engine-side private retrieval (Algorithm 4 of the paper).

The server receives the embellished query -- terms plus encrypted selector
bits -- and cannot tell genuine terms from decoys.  It therefore processes
*every* term's inverted list: for each posting ``<d_j, p_ij>`` it multiplies
the document's encrypted score accumulator by ``E(u_i)^{p_ij}``, which under
the additive homomorphism adds ``u_i * p_ij`` to the underlying score.  Decoy
terms have ``u_i = 0``, so they perturb only the ciphertext, never the score.

Two accumulation paths exist:

* the **naive reference path** (``naive=True``) pays one modular
  exponentiation per posting, exactly as Algorithm 4 is written -- the
  oracle every equivalence suite compares against;
* the **fast path** (the default) exploits that impacts are quantised to at
  most ``quantise_levels`` (<= 255) values, so per query term it precomputes
  ``E(u_i)^p`` for exactly the distinct impacts in that term's list, after
  which every posting costs a table lookup plus one accumulator
  multiplication (:func:`repro.core.parallel.accumulate_terms`).  Every fast
  query is dispatched the same way (:meth:`PrivateRetrievalServer.iter_batch`;
  ``process_batch`` materialises it, ``process_query`` is a batch of one):
  one :class:`~repro.core.parallel.PendingResult` handle per query -- a
  task on the resident :class:`~repro.core.engine.ExecutionEngine` pool when
  the server has one (injected, or built for ``parallelism > 1``) and the
  batch has several queries, deferred in-process otherwise -- collected by
  one loop.  The ciphertexts are bit-identical to the naive path's wherever
  a query's multiplications happen.

The server is instrumented: it counts disk blocks fetched (bucket-co-located
lists are fetched together, the I/O optimisation Section 4 prescribes),
modular exponentiations, table / accumulator multiplications, batch fan-out,
and the size of the candidate result it returns.  Those counters feed the
Section 5.2 cost model, and the analytic estimators reproduce them exactly;
batching and placement never change the totals, only where the
multiplications happen (the shard coordinator books the shards it touched
and its own merge multiplications on the same counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Sequence

from repro.core import parallel
from repro.core.buckets import BucketOrganization
from repro.core.embellish import EmbellishedQuery
from repro.core.engine import ExecutionEngine
from repro.core.parallel import power_table_strategy
from repro.crypto.benaloh import BenalohPublicKey
from repro.textsearch.inverted_index import InvertedIndex

__all__ = [
    "EncryptedResult",
    "ServerCounters",
    "PrivateRetrievalServer",
    "power_table_strategy",
]


@dataclass(frozen=True)
class EncryptedResult:
    """The candidate result set ``R``: document ids with encrypted relevance scores."""

    encrypted_scores: dict[int, int]
    modulus: int

    def __len__(self) -> int:
        return len(self.encrypted_scores)

    def __iter__(self):
        return iter(self.encrypted_scores.items())

    def downstream_bytes(self, doc_id_bytes: int = 4) -> int:
        """Size of the result on the wire: one document id + one ciphertext per candidate."""
        ciphertext_bytes = (self.modulus.bit_length() + 7) // 8
        return len(self.encrypted_scores) * (doc_id_bytes + ciphertext_bytes)


@dataclass
class ServerCounters:
    """Operation counters accumulated while answering one query (or one batch)."""

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
    #: Queries answered into these counters (1 for process_query; the batch
    #: size for process_batch).
    queries_processed: int = 0
    #: How a distributed answer *survived*, booked by
    #: :class:`~repro.core.coordinator.QueryCoordinator` (always 0 on a single
    #: node): replica failovers walked, and queries answered without a dark
    #: shard (``allow_partial``).  Neither changes result bits or op totals.
    tasks_retried: int = 0
    degraded_queries: int = 0

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, 0)

    def add(self, other: "ServerCounters") -> None:
        """Accumulate another counter set (used to aggregate a batch)."""
        for counter in fields(self):
            setattr(
                self, counter.name, getattr(self, counter.name) + getattr(other, counter.name)
            )


@dataclass
class PrivateRetrievalServer:
    """The search engine running the PR scheme over a bucket-aware index.

    Parameters
    ----------
    index:
        The impact-ordered inverted index of the corpus.  Either a live
        :class:`~repro.textsearch.inverted_index.InvertedIndex` (each query
        or batch pins a fresh immutable snapshot on entry) or a pinned
        :class:`~repro.textsearch.inverted_index.IndexSnapshot` (the whole
        server reads one frozen epoch -- how the service layer pins a
        streaming session for its lifetime).
    organization:
        The bucket organisation; used only for the I/O model (lists of a
        bucket are stored in common disk blocks and fetched together), never
        to tell genuine terms from decoys -- the server cannot do that.
    public_key:
        The client's Benaloh public key, needed to size ciphertexts for
        instrumentation.  The server performs only public operations.
    naive:
        When True, run the literal Algorithm 4 (one exponentiation per
        posting).  When False (the default), use the power-table fast path;
        the returned ciphertexts are identical either way.  The naive oracle
        always runs sequentially in-process, engine or not.
    parallelism:
        Size of the worker-thread pool this server builds and owns when no
        ``engine`` is injected (1, the default: no pool, in-process).
        Threads overlap only on the ``cffi`` backend; never affects results.
    engine:
        The resident :class:`~repro.core.engine.ExecutionEngine` carrying the
        long-lived worker pool.  Pass one to share a pool between servers:
        the server dispatches on all of it, whatever ``parallelism`` says,
        and never shuts it down.  Left ``None`` with ``parallelism > 1``, the
        server creates (and owns) one of that size on its first fast call
        and keeps it warm across calls until :meth:`close`.
    backend:
        The arithmetic (``"python"`` or ``"cffi"``) the fast path accumulates
        on, carried as a value into every pending handle and worker task.
        ``None`` (the default) follows the library-wide
        :func:`repro.crypto.numbertheory.get_backend`; the serving front-end
        passes the one it resolved at start-up, so serving on the compiled
        kernel never changes what the oracles and experiments run on.
    """

    index: InvertedIndex
    organization: BucketOrganization
    public_key: BenalohPublicKey
    naive: bool = False
    parallelism: int = 1
    engine: ExecutionEngine | None = None
    backend: str | None = None
    counters: ServerCounters = field(default_factory=ServerCounters)
    #: Per-query counter snapshots of the most recent :meth:`process_batch`
    #: (cleared by every non-batch entry point, so reads never see a stale
    #: previous batch).
    last_batch_counters: list[ServerCounters] = field(default_factory=list)
    _owns_engine: bool = field(default=False, init=False, repr=False)
    #: Bumped by every entry point; an in-flight iter_batch stream stops
    #: touching the shared aggregate once a newer call has claimed it.
    _counter_epoch: int = field(default=0, init=False, repr=False)

    # -- engine lifecycle ---------------------------------------------------------
    def _resident_engine(self) -> ExecutionEngine:
        """The injected engine, else an owned one of ``parallelism`` workers."""
        if self.engine is None:
            self.engine = ExecutionEngine(parallelism=self.parallelism)
            self._owns_engine = True
        return self.engine

    def close(self, wait: bool = True) -> None:
        """Shut down the owned resident engine (idempotent; shared engines stay up).

        Closing releases the worker pool but is *not* terminal for the
        server: in-process queries keep working, and a later pooled call
        lazily creates a fresh owned engine (unlike a bare
        :class:`~repro.core.engine.ExecutionEngine`, whose post-shutdown
        dispatch raises).  Callers who need use-after-close to fail should
        inject a shared engine and shut that down themselves.
        ``wait=False`` skips blocking on in-flight worker tasks.
        """
        if self.engine is not None and self._owns_engine:
            self.engine.shutdown(wait=wait)
            self.engine = None
            self._owns_engine = False

    def __enter__(self) -> "PrivateRetrievalServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Finalizer guard: a server dropped without close()/with must not
        # leave its owned engine's worker threads idling.  Best-effort and
        # non-blocking -- garbage collection must not stall on in-flight
        # worker tasks, and during interpreter shutdown the pool may already
        # be half torn down.
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- snapshot pinning ----------------------------------------------------------
    def _pin(self):
        """An immutable read view of the index, pinned for one call's lifetime.

        Every entry point pins exactly once and threads the view through its
        whole answer, so a seal/merge-commit/compact publishing a new
        manifest mid-query can never mix epochs inside one result.  A live
        :class:`~repro.textsearch.inverted_index.InvertedIndex` yields its
        current :meth:`~repro.textsearch.inverted_index.InvertedIndex.snapshot`
        (lock-free when nothing changed); a server built directly over an
        :class:`~repro.textsearch.inverted_index.IndexSnapshot` -- how the
        service pins a whole streaming session -- gets that snapshot back.
        """
        return self.index.snapshot()

    # -- incremental index updates -------------------------------------------------
    def accommodate_new_terms(
        self, specificity: Mapping[str, int] | None = None
    ) -> tuple[str, ...]:
        """Give bucket assignments to dictionary terms updates introduced.

        Terms added by :meth:`~repro.textsearch.inverted_index.InvertedIndex.add_document`
        have no bucket yet, so queries naming them travel decoy-less (the
        embellisher's reduced-protection fallback).  This appends fresh
        buckets for them via :meth:`~repro.core.buckets.BucketOrganization.extended`
        -- existing assignments never move -- and returns the newly covered
        terms.  The caller must propagate the returned organisation state to
        its clients (client and server must agree on buckets).
        """
        unbucketed = [
            term for term in self._pin().terms if term not in self.organization
        ]
        if not unbucketed:
            return ()
        self.organization = self.organization.extended(unbucketed, specificity)
        return tuple(unbucketed)

    def process_query(self, query: EmbellishedQuery) -> EncryptedResult:
        """Algorithm 4: accumulate encrypted relevance scores for every candidate document.

        A batch of one: same pinned snapshot, same dispatch, same counters
        (aggregated in :attr:`counters`); only :attr:`last_batch_counters`
        is left empty, since no batch was asked for.
        """
        (result,) = self.iter_batch([query])
        self.last_batch_counters = []
        return result

    def process_batch(self, queries: Sequence[EmbellishedQuery]) -> list[EncryptedResult]:
        """:meth:`iter_batch`, materialised: the batch's results, in query order.

        Aggregate counters land in :attr:`counters`; per-query snapshots in
        :attr:`last_batch_counters`.
        """
        return list(self.iter_batch(queries))

    def iter_batch(self, queries: Sequence[EmbellishedQuery]) -> Iterator[EncryptedResult]:
        """Stream a batch's results in query order as their futures complete.

        A batch of several queries is dispatched up front on the resident
        pool, one worker task per query.  Each :class:`EncryptedResult` is
        yielded as soon as its own task finishes, so a consumer can
        post-filter early results while later ones are still accumulating.
        Counters fill progressively:
        :attr:`last_batch_counters` holds the completed snapshots of exactly
        the yielded prefix, which :attr:`counters` aggregates.  With
        ``naive=True``, no engine and ``parallelism`` 1, or a batch of one,
        nothing is dispatched: each query is computed when the iterator
        reaches it.

        Raises
        ------
        RuntimeError
            If a *shared* injected engine has been shut down (an owned engine
            is recreated lazily instead).  A worker task's exception
            propagates unchanged -- out of the yielding loop, since dispatch
            happens on the first ``next()``.

        The generator holds futures on the pool while suspended: an
        engine ``shutdown(wait=True)`` waits for those futures, whose results
        remain collectible afterwards.

        Thread safety: one server instance answers one call at a time, and
        its counters describe the *most recent* entry point.  Answering other
        queries on this server while a stream is still being consumed rebinds
        :attr:`last_batch_counters` and resets :attr:`counters` to that newer
        call; the in-flight stream keeps filling its own snapshot list but
        stops touching the shared aggregate.  For concurrent serving give
        each client session its own server and share the
        :class:`~repro.core.engine.ExecutionEngine` (whose dispatch is
        thread-safe) -- the arrangement :mod:`repro.service` uses.
        """
        self._counter_epoch += 1
        epoch = self._counter_epoch
        self.counters.reset()
        # One pinned view for the whole batch, lazily-computed queries
        # included: every query of the stream answers against the same
        # manifest epoch no matter what the writer does meanwhile.
        view = self._pin()
        # Also bound to a local: an interleaved call rebinds the attribute,
        # and this stream must keep appending to its own snapshot list.
        snapshots: list[ServerCounters] = []
        self.last_batch_counters = snapshots
        if self.naive:
            answers = (self._answer_naive(query, view) for query in queries)
        else:
            answers = self._answer_fast(queries, view)
        for query, (accumulators, per_query) in zip(queries, answers):
            per_query.queries_processed = 1
            per_query.terms_processed = len(query)
            self._account_io(query, per_query, view)
            snapshots.append(per_query)
            if self._counter_epoch == epoch:
                self.counters.add(per_query)
            yield EncryptedResult(encrypted_scores=accumulators, modulus=self.public_key.n)

    # -- the fast path: dispatch -> handle -> collect ------------------------------
    def _answer_fast(
        self, queries: Sequence[EmbellishedQuery], view
    ) -> Iterator[tuple[dict[int, int], ServerCounters]]:
        """One pending handle per query, collected and counted in query order."""
        modulus = self.public_key.n
        if self.engine is None and self.parallelism <= 1:
            # Deferred in-process handles, built lazily: a query's columns are
            # read and accumulated only when the iterator reaches it.
            pending = (
                parallel.PendingResult(
                    modulus, payload=self._payload(query, view), backend=self.backend
                )
                for query in queries
            )
        else:
            pending = self._resident_engine().submit_batch(
                [self._payload(query, view) for query in queries],
                modulus,
                backend=self.backend,
            )
        for handle in pending:
            accumulators, counts = handle.result()
            yield accumulators, ServerCounters(
                postings_processed=counts.postings,
                table_multiplications=counts.table_multiplications,
                modular_multiplications=counts.accumulator_multiplications,
                shards_executed=handle.shards,
            )

    def _payload(self, query: EmbellishedQuery, view) -> list[parallel.TermPayload]:
        """The per-term work units of one query, in query order."""
        columns = view.columns
        return [(selector, *columns(term)) for term, selector in query]

    # -- naive reference path ----------------------------------------------------
    def _answer_naive(
        self, query: EmbellishedQuery, view
    ) -> tuple[dict[int, int], ServerCounters]:
        modulus = self.public_key.n
        counters = ServerCounters()
        accumulators: dict[int, int] = {}
        for term, encrypted_selector in query:
            for posting in view.postings(term):
                counters.postings_processed += 1
                # E(u_i)^{p_ij} -- one modular exponentiation per posting.
                contribution = pow(encrypted_selector, posting.quantised_impact, modulus)
                counters.modular_exponentiations += 1
                if posting.doc_id in accumulators:
                    accumulators[posting.doc_id] = (accumulators[posting.doc_id] * contribution) % modulus
                    counters.modular_multiplications += 1
                else:
                    accumulators[posting.doc_id] = contribution
        return accumulators, counters

    # -- storage model -----------------------------------------------------------
    def _account_io(
        self, query: EmbellishedQuery, counters: ServerCounters, view
    ) -> None:
        """Charge disk I/O for the buckets covering the query's terms.

        All the inverted lists of one bucket live in common disk blocks
        (Section 4), so the I/O cost of a bucket is the total size of its
        lists rounded up to whole blocks, charged once no matter how many of
        its terms appear in the query.  Terms outside the organisation (the
        non-strict embellisher may emit them) are charged individually.
        """
        block_size = view.block_size
        seen_buckets: set[int] = set()
        loose_bytes = 0
        for term in query.terms:
            if term in self.organization:
                bucket_id = self.organization.bucket_id_of(term)
                if bucket_id in seen_buckets:
                    continue
                seen_buckets.add(bucket_id)
                bucket_bytes = sum(
                    view.list_size_bytes(bucket_term)
                    for bucket_term in self.organization.buckets[bucket_id]
                )
                counters.blocks_read += max(1, -(-bucket_bytes // block_size))
            else:
                loose_bytes += view.list_size_bytes(term)
        if loose_bytes:
            counters.blocks_read += max(1, -(-loose_bytes // block_size))
        counters.buckets_fetched += len(seen_buckets)
