"""The PIR-based alternate retrieval method (Section 4, "Alternate Retrieval Method").

Instead of homomorphic score accumulation, each bucket is treated as a private
database for the Kushilevitz-Ostrovsky protocol: the columns are the bucket
terms' serialised inverted lists, padded to the longest list in the bucket.
To fetch one genuine term's list the client sends one group element per
column (QRs everywhere, a QNR at the wanted column); the server's answer has
one group element per *row* -- i.e. per bit of the padded list -- which is why
the downstream traffic is ``KeyLen * max |L_i|`` bytes and why the scheme can
only retrieve one list per execution.  After reconstructing the lists of all
genuine terms, the client computes the relevance scores locally.

Two execution paths are provided:

* :meth:`PIRRetrievalSystem.search` runs the protocol for real (used by unit
  and integration tests to prove correctness end to end);
* :meth:`PIRRetrievalSystem.estimate_costs` computes the exact operation
  counts of a run *without* performing the modular arithmetic, so the
  Figure 7/8 sweeps can average over many queries quickly.  The counts are
  identical to what the real path would produce, which the tests verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.buckets import BucketOrganization
from repro.core.costs import CostModel, CostReport
from repro.crypto.pir import PIRAnswer, PIRClient, PIRDatabase, PIRQuery, PIRServer
from repro.textsearch.engine import SearchResult
from repro.textsearch.inverted_index import InvertedIndex, POSTING_BYTES

__all__ = ["PIRRetrievalServer", "PIRRetrievalClient", "PIRRetrievalSystem"]


@dataclass
class PIRRetrievalServer:
    """Server side of the PIR alternative: one KO database per bucket."""

    index: InvertedIndex
    organization: BucketOrganization
    #: True evaluates queries with the per-cell reference algorithm; False
    #: (the default) uses the packed set-bit path (identical answers).
    naive: bool = False
    _databases: dict[int, PIRDatabase] = field(default_factory=dict, init=False)
    #: Index update epoch the cached databases were built at.
    _databases_epoch: int = field(default=-1, init=False)
    multiplications: int = field(default=0, init=False)
    inversions: int = field(default=0, init=False)
    blocks_read: int = field(default=0, init=False)
    buckets_fetched: int = field(default=0, init=False)

    def reset_counters(self) -> None:
        self.multiplications = 0
        self.inversions = 0
        self.blocks_read = 0
        self.buckets_fetched = 0

    def _pin(self):
        """An immutable read view of the index, pinned for one call's lifetime:
        a live index yields its current snapshot, an ``IndexSnapshot`` itself."""
        return self.index.snapshot()

    def bucket_database(self, bucket_id: int, view=None) -> PIRDatabase:
        """The padded bit-matrix database of one bucket (built lazily, cached).

        Derived from list content, so valid for exactly one ``update_epoch``
        -- the *pinned view's*: seal/merge/compact never move it, and a
        server over a pinned snapshot never evicts.
        """
        if view is None:
            view = self._pin()
        if view.update_epoch != self._databases_epoch:
            self._databases.clear()
            self._databases_epoch = view.update_epoch
        if bucket_id not in self._databases:
            columns = [
                view.serialise_list(term) or b"\x00" * POSTING_BYTES
                for term in self.organization.buckets[bucket_id]
            ]
            self._databases[bucket_id] = PIRDatabase.from_columns(columns)
        return self._databases[bucket_id]

    def bucket_blocks(self, bucket_id: int, view=None) -> int:
        """Disk blocks occupied by a bucket's (padded) inverted lists."""
        if view is None:
            view = self._pin()
        database = self.bucket_database(bucket_id, view)
        padded_bytes = (database.rows // 8) * database.cols
        return max(1, -(-padded_bytes // view.block_size))

    def answer(self, bucket_id: int, query: PIRQuery, view=None) -> PIRAnswer:
        """Answer one KO query against one bucket, charging I/O and CPU counters."""
        if view is None:
            view = self._pin()
        database = self.bucket_database(bucket_id, view)
        self.blocks_read += self.bucket_blocks(bucket_id, view)
        self.buckets_fetched += 1
        server = PIRServer(database, naive=self.naive)
        answer = server.answer(query)
        self.multiplications += server.multiplications
        self.inversions += server.inversions
        return answer


@dataclass
class PIRRetrievalClient:
    """User side of the PIR alternative: query generation, decoding, local scoring."""

    organization: BucketOrganization
    key_bits: int = 256
    rng: random.Random = field(default_factory=random.Random)
    pir: PIRClient = field(init=False)
    group_elements_generated: int = field(default=0, init=False)
    residuosity_tests: int = field(default=0, init=False)
    score_operations: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.pir = PIRClient.with_new_group(key_bits=self.key_bits, rng=self.rng)

    def reset_counters(self) -> None:
        self.group_elements_generated = 0
        self.residuosity_tests = 0
        self.score_operations = 0

    def build_query(self, term: str) -> tuple[int, PIRQuery]:
        """The KO query retrieving ``term``'s inverted list from its bucket."""
        bucket_id = self.organization.bucket_id_of(term)
        bucket = self.organization.buckets[bucket_id]
        column = bucket.index(term)
        query = self.pir.build_query(len(bucket), column)
        self.group_elements_generated += len(bucket)
        return bucket_id, query

    def decode(self, answer: PIRAnswer):
        """Decode a KO answer back into inverted-list postings."""
        self.residuosity_tests += len(answer.elements)
        data = self.pir.decode_answer_bytes(answer)
        return InvertedIndex.deserialise_list(data)

    def rank(self, lists: dict[str, tuple], k: int | None = None) -> SearchResult:
        """Accumulate genuine-term impacts locally and rank (the user-side scoring)."""
        accumulators: dict[int, float] = {}
        for postings in lists.values():
            for posting in postings:
                if posting.quantised_impact == 0:
                    continue
                accumulators[posting.doc_id] = accumulators.get(posting.doc_id, 0.0) + posting.quantised_impact
                self.score_operations += 1
        ranking = sorted(accumulators.items(), key=lambda item: (-item[1], item[0]))
        if k is not None:
            ranking = ranking[:k]
        return SearchResult(ranking=tuple((doc_id, float(score)) for doc_id, score in ranking))


@dataclass
class PIRRetrievalSystem:
    """End-to-end PIR retrieval plus the analytic cost estimator."""

    index: InvertedIndex
    organization: BucketOrganization
    key_bits: int = 256
    cost_model: CostModel = field(default_factory=CostModel)
    rng: random.Random = field(default_factory=random.Random)
    #: True evaluates answers with the per-cell reference algorithm.
    naive: bool = False
    server: PIRRetrievalServer = field(init=False)
    client: PIRRetrievalClient = field(init=False)

    def __post_init__(self) -> None:
        self.server = PIRRetrievalServer(
            index=self.index, organization=self.organization, naive=self.naive
        )
        self.client = PIRRetrievalClient(
            organization=self.organization, key_bits=self.key_bits, rng=self.rng
        )

    # -- real execution -------------------------------------------------------------
    def search(self, genuine_terms: Sequence[str], k: int | None = 20) -> tuple[SearchResult, CostReport]:
        """Run the KO protocol for every genuine term and rank locally.

        Terms outside the bucket organisation cannot be retrieved privately by
        this scheme (there is no bucket database to query) and are skipped --
        one of the practical drawbacks relative to PR.
        """
        genuine = [t for t in dict.fromkeys(genuine_terms) if t in self.organization]
        if not genuine:
            raise ValueError("none of the query terms are in the bucket organisation")
        self.server.reset_counters()
        self.client.reset_counters()

        # One pinned snapshot for the whole multi-term run: every retrieved
        # list comes from the same manifest epoch even if the index is
        # updated between terms.
        view = self.server._pin()
        upstream = 0
        downstream = 0
        lists: dict[str, tuple] = {}
        for term in genuine:
            bucket_id, query = self.client.build_query(term)
            upstream += query.size_bytes
            answer = self.server.answer(bucket_id, query, view)
            downstream += answer.size_bytes
            lists[term] = self.client.decode(answer)

        result = self.client.rank(lists, k=k)
        report = self.cost_model.pir_report(
            buckets_fetched=self.server.buckets_fetched,
            blocks_read=self.server.blocks_read,
            server_multiplications=self.server.multiplications,
            server_inversions=self.server.inversions,
            upstream_bytes=upstream,
            downstream_bytes=downstream,
            client_group_elements=self.client.group_elements_generated,
            client_residuosity_tests=self.client.residuosity_tests,
            client_score_operations=self.client.score_operations,
        )
        return result, report

    # -- analytic estimation -----------------------------------------------------------
    def estimate_costs(self, genuine_terms: Sequence[str]) -> CostReport:
        """Operation counts of :meth:`search` without doing the modular arithmetic.

        Per genuine term, with ``c`` columns (the bucket size) and ``r`` rows
        (8 bits per byte of the longest padded list):

        * upstream ``c`` group elements, downstream ``r`` group elements;
        * naive server: ``c`` squarings plus ``r * c`` multiplications;
        * packed server (the default): ``2c`` multiplications (squarings and
          the base product), ``c`` inversions, plus one multiplication per
          *set bit* of the bucket's serialised lists -- padding is free;
        * client ``c`` generated elements and ``r`` residuosity tests, plus
          one score accumulation per decoded posting.
        """
        genuine = [t for t in dict.fromkeys(genuine_terms) if t in self.organization]
        if not genuine:
            raise ValueError("none of the query terms are in the bucket organisation")
        view = self.index.snapshot()  # one epoch for the whole estimate
        element_bytes = (self.key_bits + 7) // 8

        buckets_fetched = 0
        blocks_read = 0
        multiplications = 0
        inversions = 0
        upstream = 0
        downstream = 0
        group_elements = 0
        residuosity_tests = 0
        score_operations = 0
        for term in genuine:
            bucket_id = self.organization.bucket_id_of(term)
            bucket = self.organization.buckets[bucket_id]
            columns = len(bucket)
            max_list_bytes = max(
                max(view.list_size_bytes(t), POSTING_BYTES) for t in bucket
            )
            rows = max_list_bytes * 8

            buckets_fetched += 1
            blocks_read += max(1, -(-(max_list_bytes * columns) // view.block_size))
            if self.naive:
                multiplications += columns + rows * columns
            else:
                set_bits = sum(
                    int.from_bytes(view.serialise_list(t), "big").bit_count()
                    for t in bucket
                )
                multiplications += 2 * columns + set_bits
                inversions += columns
            upstream += columns * element_bytes
            downstream += rows * element_bytes
            group_elements += columns
            residuosity_tests += rows
            score_operations += view.document_frequency(term)

        return self.cost_model.pir_report(
            buckets_fetched=buckets_fetched,
            blocks_read=blocks_read,
            server_multiplications=multiplications,
            server_inversions=inversions,
            upstream_bytes=upstream,
            downstream_bytes=downstream,
            client_group_elements=group_elements,
            client_residuosity_tests=residuosity_tests,
            client_score_operations=score_operations,
        )
