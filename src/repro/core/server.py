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
  ``process_batch`` collects it, ``process_query`` is a batch of one):
  one :class:`~repro.core.parallel.PendingResult` handle per query --
  deferred in-process, or a task on an
  :class:`~repro.core.engine.ExecutionEngine` pool when the server was given
  one (the benchmark's placement probe; nothing that serves does) and the
  batch has several queries -- collected by one loop.  The ciphertexts are
  bit-identical to the naive path's wherever a query's multiplications
  happen.

The server is instrumented: every answered query travels with its own
:class:`ServerCounters` -- the kernel's accumulation counts plus the disk
blocks fetched (bucket-co-located lists are fetched together, the I/O
optimisation Section 4 prescribes, :func:`io_charge`).  Those counters feed
the Section 5.2 cost model, and the analytic estimators reproduce them
exactly; batching and placement never change the totals, only where the
multiplications happen (the shard coordinator books the shards it touched
and its own merge multiplications on the same counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.core import parallel
from repro.core.buckets import BucketOrganization
from repro.core.embellish import EmbellishedQuery
from repro.core.engine import ExecutionEngine
from repro.core.parallel import EncryptedResult, ServerCounters
from repro.crypto.benaloh import BenalohPublicKey
from repro.textsearch.inverted_index import InvertedIndex

__all__ = [
    "EncryptedResult",
    "ServerCounters",
    "PrivateRetrievalServer",
    "io_charge",
]


def io_charge(
    view, organization: BucketOrganization, terms: Sequence[str]
) -> tuple[int, int]:
    """``(blocks_read, buckets_fetched)`` for reading ``terms``' inverted lists.

    All the inverted lists of one bucket live in common disk blocks
    (Section 4), so the I/O cost of a bucket is the total size of its lists
    rounded up to whole blocks, charged once no matter how many of its terms
    appear in the query.  Terms outside the organisation (the non-strict
    embellisher may emit them) are read together and rounded up once.
    ``view`` is an index or a snapshot of one.  The server charges every
    query with this, and the analytic estimator replays it.
    """
    block_size = view.block_size
    buckets = organization.buckets_for_query(terms)
    blocks_read = sum(
        max(1, -(-sum(map(view.list_size_bytes, bucket)) // block_size))
        for bucket in buckets.values()
    )
    loose_bytes = sum(
        view.list_size_bytes(term) for term in terms if term not in organization
    )
    if loose_bytes:
        blocks_read += max(1, -(-loose_bytes // block_size))
    return blocks_read, len(buckets)


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
        This and ``engine`` remain only for ``benchmarks/e2e/layers.py``'s
        placement probe: no serving path sets either.
    engine:
        The resident :class:`~repro.core.engine.ExecutionEngine` carrying the
        long-lived worker pool.  Pass one to share a pool between servers:
        the server dispatches on all of it, whatever ``parallelism`` says,
        and never shuts it down.  Left ``None`` with ``parallelism > 1``, the
        server creates (and owns) one of that size on its first fast call
        and keeps it warm across calls until :meth:`close`.

    The fast path accumulates on the process's arithmetic,
    :func:`repro.crypto.numbertheory.get_backend`.
    """

    index: InvertedIndex
    organization: BucketOrganization
    public_key: BenalohPublicKey
    naive: bool = False
    parallelism: int = 1
    engine: ExecutionEngine | None = None
    #: The sum of the most recent :meth:`process_batch`'s per-query counters.
    counters: ServerCounters = field(default_factory=ServerCounters)
    #: The per-query counters of the most recent :meth:`process_batch`.
    last_batch_counters: list[ServerCounters] = field(default_factory=list)
    _owns_engine: bool = field(default=False, init=False, repr=False)

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

        A batch of one: same pinned snapshot, same dispatch, same counters.
        """
        return self.process_batch([query])[0]

    def process_batch(self, queries: Sequence[EmbellishedQuery]) -> list[EncryptedResult]:
        """:meth:`iter_batch`, collected: the batch's results, in query order.

        Records the per-query counters in :attr:`last_batch_counters` and
        their sum in :attr:`counters`; a batch that raises records nothing.
        """
        pairs = list(self.iter_batch(queries))
        self.last_batch_counters = [counters for _, counters in pairs]
        self.counters = ServerCounters.total(self.last_batch_counters)
        return [result for result, _ in pairs]

    def iter_batch(
        self, queries: Sequence[EmbellishedQuery]
    ) -> Iterator[tuple[EncryptedResult, ServerCounters]]:
        """Stream a batch as ``(result, counters)`` pairs, in query order.

        Each query's :class:`ServerCounters` travels with its result, and
        nothing is recorded on the server, so a stream and any other call
        never share counter state.  A batch of several queries on a server
        with an engine is dispatched up front, one worker task per query,
        and each pair is yielded as soon as its own task finishes.  With
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
        """
        # One pinned view for the whole batch, lazily-computed queries
        # included: every query of the stream answers against the same
        # manifest epoch no matter what the writer does meanwhile.
        view = self._pin()
        if self.naive:
            answers = (self._answer_naive(query, view) for query in queries)
        else:
            answers = self._answer_fast(queries, view)
        for query, (result, counters) in zip(queries, answers):
            counters.queries_processed = 1
            counters.terms_processed = len(query)
            counters.blocks_read, counters.buckets_fetched = io_charge(
                view, self.organization, query.terms
            )
            yield result, counters

    # -- the fast path: dispatch -> handle -> collect ------------------------------
    def _answer_fast(
        self, queries: Sequence[EmbellishedQuery], view
    ) -> Iterator[tuple[EncryptedResult, ServerCounters]]:
        """One pending handle per query, collected in query order."""
        modulus = self.public_key.n
        if self.engine is None and self.parallelism <= 1:
            # Deferred in-process handles, built lazily: a query's columns are
            # read and accumulated only when the iterator reaches it.
            pending = (
                parallel.PendingResult(modulus, payload=self._payload(query, view))
                for query in queries
            )
        else:
            pending = self._resident_engine().submit_batch(
                [self._payload(query, view) for query in queries], modulus
            )
        return (handle.result() for handle in pending)

    def _payload(self, query: EmbellishedQuery, view) -> list[parallel.TermPayload]:
        """The per-term work units of one query, in query order."""
        columns = view.columns
        return [(selector, *columns(term)) for term, selector in query]

    # -- naive reference path ----------------------------------------------------
    def _answer_naive(
        self, query: EmbellishedQuery, view
    ) -> tuple[EncryptedResult, ServerCounters]:
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
        return EncryptedResult(accumulators, modulus), counters
