"""End-to-end facade for the Private Retrieval (PR) scheme.

:class:`PrivateSearchClient` owns the user-side state (Benaloh key pair,
bucket organisation, random generator) and exposes the three client steps --
embellish, submit, post-filter -- while :class:`PrivateSearchSystem` wires a
client and a :class:`~repro.core.server.PrivateRetrievalServer` together and
produces the Section 5.2 cost report for every query.  The system also offers
an analytic cost estimator that reproduces the exact operation counts of a
real run without performing the cryptography, so large parameter sweeps
(Figures 7 and 8) stay fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.buckets import BucketOrganization
from repro.core.costs import CostModel, CostReport
from repro.core.embellish import EmbellishedQuery, QueryEmbellisher
from repro.core.postfilter import PostFilterCounters, post_filter
from repro.core.server import EncryptedResult, PrivateRetrievalServer, io_charge
from repro.core.session import QuerySession
from repro.crypto import kernels
from repro.crypto.benaloh import BenalohKeyPair, generate_keypair
from repro.textsearch.engine import SearchResult
from repro.textsearch.inverted_index import InvertedIndex

__all__ = ["PrivateSearchClient", "PrivateSearchSystem"]

#: Default Benaloh plaintext space.  It must exceed the largest relevance
#: score a document can accumulate (number of genuine query terms times the
#: maximum quantised impact); 3^9 = 19,683 covers 40-term queries against the
#: default 255-level impact quantisation with room to spare.
DEFAULT_BLOCK_SIZE = 3**9


@dataclass
class PrivateSearchClient:
    """User-side state and operations of the PR scheme."""

    organization: BucketOrganization
    key_bits: int = 256
    block_size: int = DEFAULT_BLOCK_SIZE
    rng: random.Random = field(default_factory=random.Random)
    keypair: BenalohKeyPair | None = None
    naive: bool = False
    embellisher: QueryEmbellisher = field(init=False)
    postfilter_counters: PostFilterCounters = field(init=False)

    def __post_init__(self) -> None:
        if self.keypair is None:
            self.keypair = generate_keypair(
                key_bits=self.key_bits, block_size=self.block_size, rng=self.rng
            )
        self.embellisher = QueryEmbellisher(
            organization=self.organization,
            keypair=self.keypair,
            rng=self.rng,
            naive=self.naive,
        )
        self.postfilter_counters = PostFilterCounters()

    def formulate(self, genuine_terms: Sequence[str]) -> EmbellishedQuery:
        """Algorithm 3: embellish the genuine terms into the query the server sees."""
        return self.embellisher.embellish(genuine_terms)

    def post_filter(self, result: EncryptedResult, k: int | None = 20) -> SearchResult:
        """Algorithm 5: decrypt and rank the server's candidate result."""
        self.postfilter_counters = PostFilterCounters()
        return post_filter(
            result, self.keypair.private, k=k, counters=self.postfilter_counters
        )

    def max_supported_query_size(self, quantise_levels: int) -> int:
        """Largest genuine-term count whose scores cannot overflow the plaintext space."""
        return max(1, (self.block_size - 1) // max(1, quantise_levels))


@dataclass
class PrivateSearchSystem:
    """A client and a server wired together, with cost accounting."""

    index: InvertedIndex
    organization: BucketOrganization
    key_bits: int = 256
    block_size: int = DEFAULT_BLOCK_SIZE
    cost_model: CostModel = field(default_factory=CostModel)
    rng: random.Random = field(default_factory=random.Random)
    #: True runs the naive reference paths on both sides (one exponentiation
    #: per posting, one full encryption per selector); False (the default)
    #: runs the power-table server and zero-pool embellisher.
    naive: bool = False
    client: PrivateSearchClient = field(init=False)
    server: PrivateRetrievalServer = field(init=False)

    def __post_init__(self) -> None:
        self.client = PrivateSearchClient(
            organization=self.organization,
            key_bits=self.key_bits,
            block_size=self.block_size,
            rng=self.rng,
            naive=self.naive,
        )
        self.server = PrivateRetrievalServer(
            index=self.index,
            organization=self.organization,
            public_key=self.client.keypair.public,
            naive=self.naive,
        )

    # -- real execution -------------------------------------------------------------
    def search(self, genuine_terms: Sequence[str], k: int | None = 20) -> tuple[SearchResult, CostReport]:
        """Run the full PR pipeline and return the ranking plus its cost report."""
        genuine = self._genuine(genuine_terms)
        query = self.client.formulate(genuine)
        encrypted_result = self.server.process_query(query)
        ranking = self.client.post_filter(encrypted_result, k=k)

        embellisher = self.client.embellisher
        pooled = 0 if embellisher.pool is None else embellisher.encryptions_performed
        report = self._report(
            self.server.counters,
            query,
            encrypted_result,
            (embellisher.encryptions_performed, pooled, embellisher.pool_multiplications),
        )
        return ranking, report

    def _genuine(self, terms: Sequence[str]) -> list[str]:
        """The query's distinct genuine terms; ``ValueError`` when their
        scores could overflow the Benaloh plaintext space."""
        genuine = list(dict.fromkeys(terms))
        max_genuine = self.client.max_supported_query_size(self.index.quantise_levels)
        if len(genuine) > max_genuine:
            raise ValueError(
                f"{len(genuine)} genuine terms could overflow the Benaloh plaintext space "
                f"(at most {max_genuine} supported with block_size={self.block_size}); "
                "regenerate the client keypair with a larger block_size"
            )
        return genuine

    def _report(
        self, counters, query: EmbellishedQuery, result, client_costs: tuple[int, int, int]
    ) -> CostReport:
        """One answered query's server counters and client costs as a PR report.

        ``client_costs`` is ``(encryptions, pooled_encryptions,
        pool_multiplications)`` as metered when the query was formulated;
        decryptions are read off the post-filter just run.
        """
        encryptions, pooled, pool_multiplications = client_costs
        return self.cost_model.pr_report(
            buckets_fetched=counters.buckets_fetched,
            blocks_read=counters.blocks_read,
            server_exponentiations=counters.modular_exponentiations,
            server_multiplications=counters.modular_multiplications,
            server_table_multiplications=counters.table_multiplications,
            upstream_bytes=query.upstream_bytes(self.key_bits),
            downstream_bytes=result.downstream_bytes(),
            client_encryptions=encryptions,
            client_pooled_encryptions=pooled,
            client_pool_multiplications=pool_multiplications,
            client_decryptions=self.client.postfilter_counters.decryptions,
            server_merge_multiplications=counters.merge_multiplications,
            shards_executed=counters.shards_executed,
            tasks_retried=counters.tasks_retried,
            degraded_queries=counters.degraded_queries,
        )

    # -- batch / session execution ---------------------------------------------------
    def run_session(
        self,
        session: QuerySession,
        k: int | None = 20,
    ) -> list[tuple[SearchResult, CostReport]]:
        """Run a whole session as one batch, returning per-query rankings and reports.

        The client side amortises across the batch (one zero-pool stocking
        for all queries, so no query triggers a mid-query refill; each stock
        entry is still served once, so sharing it leaks nothing); the server
        side answers it as one batch.  Rankings are identical to issuing
        each query through :meth:`search` -- the batch changes scheduling and
        amortisation, never results.
        """
        genuine_queries = [self._genuine(query) for query in session]

        embellisher = self.client.embellisher
        embellisher.prestock(session.selector_budget(self.organization))
        queries: list[EmbellishedQuery] = []
        client_costs: list[tuple[int, int, int]] = []
        for genuine in genuine_queries:
            query = self.client.formulate(genuine)
            pooled = 0 if embellisher.pool is None else embellisher.encryptions_performed
            client_costs.append(
                (embellisher.encryptions_performed, pooled, embellisher.pool_multiplications)
            )
            queries.append(query)

        encrypted_results = self.server.process_batch(queries)

        outputs: list[tuple[SearchResult, CostReport]] = []
        per_query_counters = self.server.last_batch_counters
        for query, result, counters, costs in zip(
            queries, encrypted_results, per_query_counters, client_costs
        ):
            ranking = self.client.post_filter(result, k=k)
            outputs.append((ranking, self._report(counters, query, result, costs)))
        return outputs

    # -- analytic estimation -----------------------------------------------------------
    def estimate_costs(self, genuine_terms: Sequence[str]) -> CostReport:
        """Operation counts of :meth:`search` without performing the cryptography.

        The counts are exact: the embellished query is determined by the
        bucket organisation alone, and the server-side op mix (per-posting
        exponentiations on the naive path; each term's power-table plan on
        the fast path) is a deterministic function of each embellished
        term's quantised-impact list, which the estimator replays without
        touching a ciphertext.
        """
        genuine = [t for t in dict.fromkeys(genuine_terms)]
        buckets = self.organization.buckets_for_query(genuine)
        embellished_terms: list[str] = []
        for bucket in buckets.values():
            embellished_terms.extend(bucket)
        embellished_terms.extend(t for t in genuine if t not in self.organization)
        blocks_read, buckets_fetched = io_charge(self.index, self.organization, genuine)

        naive = self.naive
        candidates: set[int] = set()
        postings_total = 0
        exponentiations = 0
        table_multiplications = 0
        for term in embellished_terms:
            doc_ids, impacts = self.index.columns(term)
            if not len(doc_ids):
                continue
            postings_total += len(doc_ids)
            candidates.update(doc_ids)
            if naive:
                exponentiations += len(doc_ids)
            else:
                table_multiplications += len(kernels.column_plan(impacts).ops)

        key_bytes = (self.key_bits + 7) // 8
        upstream = len(embellished_terms) * (8 + key_bytes)
        downstream = len(candidates) * (4 + key_bytes)

        # Client side: naive pays a full encryption per selector; the fast
        # path serves every selector from the one-time zero stock -- free for
        # decoys, one g^1 multiplication per genuine term (stocking happens
        # off the query path and is metered on the pool itself).
        if naive:
            pooled = pool_multiplications = 0
        else:
            pooled = len(embellished_terms)
            pool_multiplications = len(genuine)

        return self.cost_model.pr_report(
            buckets_fetched=buckets_fetched,
            blocks_read=blocks_read,
            server_exponentiations=exponentiations,
            server_multiplications=max(0, postings_total - len(candidates)),
            server_table_multiplications=table_multiplications,
            upstream_bytes=upstream,
            downstream_bytes=downstream,
            client_encryptions=len(embellished_terms),
            client_pooled_encryptions=pooled,
            client_pool_multiplications=pool_multiplications,
            client_decryptions=len(candidates),
        )
