"""Unit tests for the accumulation kernel, the merge algebra and pooled servers."""

import random
from array import array

import pytest

from repro.core import parallel
from repro.core.embellish import QueryEmbellisher
from repro.core.engine import ExecutionEngine
from repro.core.server import PrivateRetrievalServer
from repro.crypto import benaloh, kernels


def _payload(entries):
    """Build term payloads from ``[(selector, [(doc, impact), ...]), ...]``."""
    return [
        (
            selector,
            array("I", [doc for doc, _ in postings]),
            array("I", [impact for _, impact in postings]),
        )
        for selector, postings in entries
    ]


def _results(score_maps, modulus):
    return [parallel.EncryptedResult(scores, modulus) for scores in score_maps]


class TestMergeShardResults:
    def test_merge_counts_one_multiplication_per_extra_appearance(self):
        modulus = 1009 * 1013
        partials = _results([{1: 7, 2: 11}, {1: 13, 3: 17}, {1: 19}], modulus)
        merged, merge_muls = parallel.merge_shard_results(partials, modulus)
        assert merged.encrypted_scores == {1: 7 * 13 * 19 % modulus, 2: 11, 3: 17}
        assert list(merged.encrypted_scores) == [1, 2, 3], "candidate order"
        assert merge_muls == 2  # document 1 appeared in three shards

    def test_merge_is_order_insensitive(self):
        modulus = 10007
        partials = _results([{1: 123, 2: 55}, {1: 456}, {2: 77, 3: 9}], modulus)
        forward, _ = parallel.merge_shard_results(partials, modulus)
        backward, _ = parallel.merge_shard_results(list(reversed(partials)), modulus)
        assert forward == backward


class TestFallbackGenerators:
    def test_reseed_default_rng_makes_fallback_encryptions_reproducible(self, benaloh_keypair):
        public = benaloh_keypair.public
        benaloh.reseed_default_rng(123)
        first = [public.encrypt(0) for _ in range(3)]
        benaloh.reseed_default_rng(123)
        assert [public.encrypt(0) for _ in range(3)] == first

    def test_in_process_fallbacks_never_reseed_the_callers_generators(self):
        """Accumulation draws no randomness, and nothing on the dispatch path
        may re-seed the caller's generators: that would make its subsequent
        fallback encryptions predictable."""
        modulus = 1009 * 1013
        payload = _payload([(17, [(1, 2), (2, 1)])])
        benaloh._DEFAULT_RNG.seed(987654321)
        expected = benaloh._DEFAULT_RNG.getstate()
        engine = ExecutionEngine(parallelism=4)  # lazy: no pool is ever started
        engine.run_batch([payload[:1]], modulus)[0]  # single shard: in-process
        assert not engine.running
        engine.shutdown()
        engine = ExecutionEngine(parallelism=1)  # one worker: deferred in-process
        engine.run_batch([payload, payload], modulus)
        assert not engine.running
        engine.shutdown()
        assert benaloh._DEFAULT_RNG.getstate() == expected


class TestBuildPowerTable:
    def test_empty_impacts_yield_empty_table(self):
        """Regression: empty ``impacts`` used to raise IndexError on distinct[0]."""
        assert kernels.build_power_table(17, [], 10007) == ({}, 0)
        assert kernels.build_power_table(17, array("I"), 10007) == ({}, 0)

    def test_zero_only_impacts_need_no_multiplications(self):
        table, multiplications = kernels.build_power_table(17, [0, 0], 10007)
        assert table == {0: 1} and multiplications == 0


class TestAccumulationKernel:
    def test_kernel_counts_match_manual_expectation(self):
        modulus = 1009 * 1013
        # Two terms over overlapping documents; impacts {1,2} and {3}.
        payload = _payload([(17, [(1, 2), (2, 1)]), (23, [(1, 3), (3, 3)])])
        result, counts = parallel.accumulate_terms(payload, modulus)
        accumulators = result.encrypted_scores
        assert counts.postings_processed == 4
        # 4 postings, 3 distinct candidates -> 1 accumulator multiplication.
        assert counts.modular_multiplications == 1
        assert accumulators[1] == pow(17, 2, modulus) * pow(23, 3, modulus) % modulus
        assert accumulators[2] == pow(17, 1, modulus)
        assert accumulators[3] == pow(23, 3, modulus)

    def test_kernel_skips_empty_lists(self):
        result, counts = parallel.accumulate_terms(
            [(9, array("I"), array("I"))], 10007
        )
        assert result.encrypted_scores == {} and counts.postings_processed == 0


class TestShardedServer:
    """A server with a real two-thread pool (reached by multi-query batches only)."""

    @pytest.fixture(scope="class")
    def query(self, index, organization, benaloh_keypair):
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(31)
        )
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        return embellisher.embellish(bucketed[:3])

    def test_two_worker_processes_match_sequential_bit_for_bit(
        self, index, organization, benaloh_keypair, query
    ):
        kwargs = dict(index=index, organization=organization, public_key=benaloh_keypair.public)
        sequential = PrivateRetrievalServer(**kwargs)
        sharded = PrivateRetrievalServer(parallelism=2, **kwargs)
        queries = [query, query]  # a pool is only exercised by a multi-query batch
        assert [r.encrypted_scores for r in sharded.process_batch(queries)] == [
            r.encrypted_scores for r in sequential.process_batch(queries)
        ]
        assert sharded.engine.counters.tasks_dispatched == 2
        seq, par = sequential.counters, sharded.counters
        assert par.shards_executed == 2 and par.merge_multiplications == 0
        # Placement moves multiplications, it never creates or destroys them.
        assert par.modular_multiplications == seq.modular_multiplications
        assert par.postings_processed == seq.postings_processed
        assert par.table_multiplications == seq.table_multiplications

    def test_process_batch_with_workers_matches_sequential_batch(
        self, index, organization, benaloh_keypair, query
    ):
        kwargs = dict(index=index, organization=organization, public_key=benaloh_keypair.public)
        queries = [query, query]
        sequential = PrivateRetrievalServer(**kwargs).process_batch(queries)
        parallel_server = PrivateRetrievalServer(parallelism=2, **kwargs)
        parallel_results = parallel_server.process_batch(queries)
        assert [r.encrypted_scores for r in parallel_results] == [
            r.encrypted_scores for r in sequential
        ]
        assert parallel_server.counters.queries_processed == 2
        assert len(parallel_server.last_batch_counters) == 2

    def test_sharded_runs_are_reproducible(self, index, organization, benaloh_keypair, query):
        kwargs = dict(index=index, organization=organization, public_key=benaloh_keypair.public)
        first = PrivateRetrievalServer(parallelism=2, **kwargs).process_query(query)
        second = PrivateRetrievalServer(parallelism=2, **kwargs).process_query(query)
        assert first.encrypted_scores == second.encrypted_scores
