"""Property-based equivalence tests: sharded and batched execution vs oracles.

The parallel execution subsystem must never change results, only wall-clock:

* any assignment of a query's terms to any number of shards, each
  accumulated on its own and the partials merged, produces ciphertexts
  *bit-identical* to the sequential fast path and the naive oracle (the
  accumulator is a product in ``Z*_n``; any grouping multiplies the same
  factors) -- the algebra the shard coordinator rests on;
* the within-shard plus merge multiplication counts always total the
  sequential count exactly;
* a batched session produces the same rankings as issuing each query through
  the single-query path.

The shards are drawn by hypothesis, not produced by a partitioner: the
property is the merge's, whatever placed the terms.  Real index shards are
exercised by ``tests/core/test_coordinator.py``.
"""

import random
from array import array

from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.core.embellish import QueryEmbellisher
from repro.core.server import PrivateRetrievalServer
from repro.core.session import QuerySession


@st.composite
def term_payloads(draw):
    """Arbitrary per-term payloads: selectors with small doc-id/impact lists."""
    modulus = draw(st.sampled_from([1009 * 1013, 2003 * 1999, 10007 * 10009]))
    num_terms = draw(st.integers(1, 8))
    payload = []
    for _ in range(num_terms):
        selector = draw(st.integers(2, modulus - 1))
        length = draw(st.integers(0, 12))
        doc_ids = draw(
            st.lists(st.integers(0, 30), min_size=length, max_size=length)
        )
        impacts = draw(
            st.lists(st.integers(0, 40), min_size=length, max_size=length)
        )
        payload.append((selector, array("I", doc_ids), array("I", impacts)))
    return payload, modulus


def _draw_shards(data, payload):
    """An arbitrary assignment of the payload's terms to 1-8 shards."""
    shards = data.draw(st.integers(1, 8))
    partition = [[] for _ in range(shards)]
    for entry in payload:
        partition[data.draw(st.integers(0, shards - 1))].append(entry)
    return partition


class TestShardMergeProperties:
    @given(drawn=term_payloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_sharding_merges_to_the_sequential_result(self, drawn, data):
        payload, modulus = drawn
        sequential, seq_counts = parallel.accumulate_terms(payload, modulus)
        partition = _draw_shards(data, payload)
        partials = [parallel.accumulate_terms(shard, modulus) for shard in partition]
        merged, merge_muls = parallel.merge_shard_results(
            [result for result, _ in partials], modulus
        )
        assert merged == sequential
        within = sum(counts.modular_multiplications for _, counts in partials)
        assert within + merge_muls == seq_counts.modular_multiplications
        assert sum(c.postings_processed for _, c in partials) == seq_counts.postings_processed
        assert (
            sum(c.table_multiplications for _, c in partials)
            == seq_counts.table_multiplications
        )

    @given(drawn=term_payloads(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_naive_per_posting_exponentiation_is_the_same_product(self, drawn, data):
        payload, modulus = drawn
        partition = _draw_shards(data, payload)
        partials = [parallel.accumulate_terms(shard, modulus)[0] for shard in partition]
        merged, _ = parallel.merge_shard_results(partials, modulus)
        oracle: dict[int, int] = {}
        for selector, doc_ids, impacts in payload:
            for doc_id, impact in zip(doc_ids, impacts):
                contribution = pow(selector, impact, modulus)
                oracle[doc_id] = (
                    contribution
                    if doc_id not in oracle
                    else oracle[doc_id] * contribution % modulus
                )
        assert merged.encrypted_scores == oracle


class TestShardedServerProperties:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_sharded_server_ciphertexts_equal_sequential_and_naive(
        self, index, organization, benaloh_keypair, data
    ):
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        query_terms = data.draw(
            st.lists(st.sampled_from(bucketed), min_size=1, max_size=3, unique=True)
        )
        embellisher = QueryEmbellisher(
            organization=organization,
            keypair=benaloh_keypair,
            rng=random.Random(data.draw(st.integers(0, 999))),
        )
        query = embellisher.embellish(query_terms)
        kwargs = dict(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        sequential = PrivateRetrievalServer(**kwargs).process_query(query)
        naive = PrivateRetrievalServer(naive=True, **kwargs).process_query(query)
        # The payload -> shards -> merge pipeline of a sharded deployment, the
        # shards drawn here instead of split off the index.
        server = PrivateRetrievalServer(**kwargs)
        payload = server._payload(query, server._pin())
        shards = _draw_shards(data, payload)
        partials = [
            parallel.accumulate_terms(shard, benaloh_keypair.public.n)[0] for shard in shards
        ]
        merged, _ = parallel.merge_shard_results(partials, benaloh_keypair.public.n)
        assert merged == sequential == naive


class TestBatchProperties:
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_batch_results_equal_single_query_results(
        self, index, organization, benaloh_keypair, data
    ):
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        num_queries = data.draw(st.integers(2, 4))
        session = QuerySession(
            queries=tuple(
                tuple(
                    data.draw(
                        st.lists(
                            st.sampled_from(bucketed), min_size=1, max_size=2, unique=True
                        )
                    )
                )
                for _ in range(num_queries)
            )
        )
        kwargs = dict(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(11)
        )
        embellisher.prestock(session.selector_budget(organization))
        refills_before = embellisher.pool.seed_encryptions
        queries = [embellisher.embellish(list(q)) for q in session]
        # The pre-stocked pool never refills mid-batch: the amortisation claim.
        assert embellisher.pool.seed_encryptions == refills_before

        batch_server = PrivateRetrievalServer(**kwargs)
        batch = batch_server.process_batch(queries)
        singles = [PrivateRetrievalServer(**kwargs).process_query(q) for q in queries]
        assert [r.encrypted_scores for r in batch] == [
            r.encrypted_scores for r in singles
        ]
        assert batch_server.counters.queries_processed == num_queries
