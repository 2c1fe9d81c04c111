"""Property-based equivalence tests for the persistent execution engine.

Engine routing -- resident pool, hybrid batch scheduling, streaming delivery
-- must never change results, only wall-clock:

* the hybrid plan (every query >= 1 worker, leftovers to the heaviest
  queries) partitions and merges back to ciphertexts *bit-identical* to the
  sequential fast path and the naive per-posting-exponentiation oracle;
* operation counts are conserved: per query, within-shard plus merge
  multiplications total exactly the sequential count, and postings/table
  multiplications are untouched by scheduling;
* streaming a batch yields the same results in the same order as collecting
  it wholesale.

The hybrid plan/partition/merge plumbing is driven in-process here (the exact
pipeline the engine dispatches; hypothesis spawning a process pool per example
would be all start-up cost).  Real resident worker pools are exercised by
``tests/core/test_engine.py`` and ``tests/core/test_server.py``.
"""

import random
from array import array

from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.core.embellish import QueryEmbellisher
from repro.core.engine import ExecutionEngine
from repro.core.partitioning import proportional_shares
from repro.core.server import PrivateRetrievalServer


@st.composite
def payload_batches(draw):
    """Arbitrary batches of per-query term payloads plus a modulus."""
    modulus = draw(st.sampled_from([1009 * 1013, 2003 * 1999, 10007 * 10009]))
    num_queries = draw(st.integers(1, 5))
    batch = []
    for _ in range(num_queries):
        num_terms = draw(st.integers(0, 5))
        payload = []
        for _ in range(num_terms):
            selector = draw(st.integers(2, modulus - 1))
            length = draw(st.integers(0, 10))
            doc_ids = draw(st.lists(st.integers(0, 25), min_size=length, max_size=length))
            impacts = draw(st.lists(st.integers(0, 30), min_size=length, max_size=length))
            payload.append((selector, array("I", doc_ids), array("I", impacts)))
        batch.append(payload)
    return batch, modulus


def _hybrid_in_process(batch, modulus, parallelism):
    """Replay exactly what ExecutionEngine.submit_batch dispatches, in-process."""
    plan = proportional_shares(
        [sum(len(doc_ids) for _, doc_ids, _ in payload) for payload in batch],
        parallelism,
    )
    outputs = []
    for payload, share in zip(batch, plan):
        shards = parallel.partition_payload(payload, share)
        partials = [parallel.accumulate_terms(shard, modulus) for shard in shards]
        merged, counts, merge_muls = parallel.collect_shard_results(partials, modulus)
        outputs.append((merged, counts, merge_muls, len(shards)))
    return outputs


class TestHybridSchedulingProperties:
    @given(data=payload_batches(), parallelism=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_plan_allocates_every_query_at_least_one_worker(self, data, parallelism):
        batch, _ = data
        weights = [sum(len(doc_ids) for _, doc_ids, _ in payload) for payload in batch]
        plan = proportional_shares(weights, parallelism)
        assert len(plan) == len(batch)
        assert all(share >= 1 for share in plan)
        assert sum(plan) <= max(parallelism, len(batch))
        # Leftover workers go to queries with postings, never to empty ones.
        for weight, share in zip(weights, plan):
            if weight == 0:
                assert share == 1

    @given(data=payload_batches(), parallelism=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_hybrid_routing_is_bit_identical_to_sequential_and_naive(
        self, data, parallelism
    ):
        batch, modulus = data
        outputs = _hybrid_in_process(batch, modulus, parallelism)
        for (merged, counts, merge_muls, shards), payload in zip(outputs, batch):
            sequential, seq_counts = parallel.accumulate_terms(payload, modulus)
            assert merged == sequential
            # Scheduling conserves the op totals: it moves work, never makes it.
            assert counts.postings == seq_counts.postings
            assert counts.table_multiplications == seq_counts.table_multiplications
            assert (
                counts.accumulator_multiplications + merge_muls
                == seq_counts.accumulator_multiplications
            )
            oracle: dict[int, int] = {}
            for selector, doc_ids, impacts in payload:
                for doc_id, impact in zip(doc_ids, impacts):
                    contribution = pow(selector, impact, modulus)
                    oracle[doc_id] = (
                        contribution
                        if doc_id not in oracle
                        else oracle[doc_id] * contribution % modulus
                    )
            assert merged == oracle
            if not payload:
                assert shards == 0


class TestStreamingProperties:
    @given(data=payload_batches())
    @settings(max_examples=40, deadline=None)
    def test_streamed_collection_equals_wholesale_collection(self, data):
        """PendingResult streaming (the sequential in-process flavour) yields
        the same per-query results, in order, as accumulating directly."""
        batch, modulus = data
        engine = ExecutionEngine(parallelism=1)
        pending = engine.submit_batch(batch, modulus)
        streamed = [p.result() for p in pending]
        direct = [parallel.accumulate_terms(payload, modulus) for payload in batch]
        assert [acc for acc, *_ in streamed] == [acc for acc, _ in direct]
        assert [counts for _, counts, *_ in streamed] == [c for _, c in direct]
        assert not engine.running  # sequential streaming never starts a pool
        engine.shutdown()


class TestEngineRoutedServerProperties:
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_engine_routed_batch_equals_singles_and_naive(
        self, index, organization, benaloh_keypair, data
    ):
        """Server batches routed through a (shared, resident) engine stay
        bit-identical to the sequential fast path and the naive oracle, with
        op-count totals unchanged -- streamed or collected wholesale."""
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        num_queries = data.draw(st.integers(2, 4))
        genuine_queries = [
            data.draw(
                st.lists(st.sampled_from(bucketed), min_size=1, max_size=2, unique=True)
            )
            for _ in range(num_queries)
        ]
        embellisher = QueryEmbellisher(
            organization=organization,
            keypair=benaloh_keypair,
            rng=random.Random(data.draw(st.integers(0, 999))),
        )
        queries = [embellisher.embellish(genuine) for genuine in genuine_queries]
        kwargs = dict(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        singles_server = PrivateRetrievalServer(**kwargs)
        singles = []
        single_muls = []
        for query in queries:
            singles.append(singles_server.process_query(query).encrypted_scores)
            single_muls.append(singles_server.counters.modular_multiplications)
        naive_server = PrivateRetrievalServer(naive=True, **kwargs)
        naives = [naive_server.process_query(q).encrypted_scores for q in queries]

        # In-process engine routing: hybrid plan + shard + merge, the exact
        # pipeline the resident pool executes (real pools run in tier-1 unit
        # tests; forking one per hypothesis example would be all start-up).
        payloads = [
            [(selector, *index.columns(term)) for term, selector in query]
            for query in queries
        ]
        outputs = _hybrid_in_process(
            payloads, benaloh_keypair.public.n, data.draw(st.integers(2, 6))
        )
        for (merged, counts, merge_muls, _), single, naive, muls in zip(
            outputs, singles, naives, single_muls
        ):
            assert merged == single == naive
            assert counts.accumulator_multiplications + merge_muls == muls
