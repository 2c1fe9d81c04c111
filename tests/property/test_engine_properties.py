"""Property-based equivalence tests for the persistent execution engine.

Engine routing -- resident pool, whole-query dispatch, streaming delivery --
must never change results, only wall-clock:

* a batch routed through an engine (one pool task per query of a multi-query
  batch, in-process otherwise) answers ciphertexts *bit-identical* to the
  sequential fast path and the naive per-posting-exponentiation oracle, in
  the same candidate order;
* operation counts are conserved: postings, table and accumulator
  multiplications are untouched by scheduling;
* streaming a batch yields the same results in the same order as collecting
  it wholesale.

One resident two-thread pool serves every hypothesis example (starting one
per example would be all start-up cost).
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.core.embellish import QueryEmbellisher
from repro.core.engine import ExecutionEngine
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


@pytest.fixture(scope="module")
def pooled_engine():
    with ExecutionEngine(parallelism=2) as engine:
        yield engine


class TestHybridSchedulingProperties:
    @given(data=payload_batches())
    @settings(max_examples=60, deadline=None)
    def test_hybrid_routing_is_bit_identical_to_sequential_and_naive(
        self, data, pooled_engine
    ):
        batch, modulus = data
        before = pooled_engine.counters.tasks_dispatched
        handles = pooled_engine.submit_batch(batch, modulus)
        tasks = sum(1 for payload in batch if payload)
        # Whole queries only: one task each, and only when there are several.
        assert pooled_engine.counters.tasks_dispatched - before == (
            tasks if tasks > 1 else 0
        )
        for handle, payload in zip(handles, batch):
            merged, counts = handle.result()
            sequential, seq_counts = parallel.accumulate_terms(payload, modulus)
            assert merged == sequential and list(merged) == list(sequential)
            # Scheduling conserves the op totals: it moves work, never makes it.
            assert counts == seq_counts
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
            assert counts.shards_executed == (1 if payload else 0)


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
        self, index, organization, benaloh_keypair, pooled_engine, data
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

        routed = PrivateRetrievalServer(engine=pooled_engine, **kwargs)
        before = pooled_engine.counters.tasks_dispatched
        if data.draw(st.booleans()):
            pairs = list(routed.iter_batch(queries))
        else:
            results = routed.process_batch(queries)
            pairs = list(zip(results, routed.last_batch_counters))
        assert pooled_engine.counters.tasks_dispatched - before == len(queries)
        for (result, per_query), single, naive, muls in zip(
            pairs, singles, naives, single_muls
        ):
            assert result.encrypted_scores == single == naive
            assert per_query.modular_multiplications == muls
            assert per_query.shards_executed == 1 and per_query.merge_multiplications == 0
