"""Unit tests for the parallel execution subsystem (sharding, merging, seeding)."""

import random
from array import array

import pytest

from repro.core import parallel
from repro.core.embellish import QueryEmbellisher
from repro.core.engine import ExecutionEngine
from repro.core.server import PrivateRetrievalServer
from repro.crypto import benaloh


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


class TestPartitionPayload:
    def test_single_shard_passthrough(self):
        payload = _payload([(3, [(1, 2)]), (5, [(2, 4)])])
        assert parallel.partition_payload(payload, 1) == [payload]

    def test_empty_payload_yields_no_shards(self):
        assert parallel.partition_payload([], 4) == []

    def test_never_more_shards_than_terms(self):
        payload = _payload([(3, [(1, 2)]), (5, [(2, 4)])])
        shards = parallel.partition_payload(payload, 8)
        assert len(shards) == 2

    def test_partition_preserves_every_term_exactly_once(self):
        rng = random.Random(5)
        payload = _payload(
            [
                (i, [(rng.randrange(50), rng.randrange(1, 9)) for _ in range(rng.randrange(1, 20))])
                for i in range(13)
            ]
        )
        shards = parallel.partition_payload(payload, 4)
        flattened = [term for shard in shards for term in shard]
        assert sorted(t[0] for t in flattened) == sorted(t[0] for t in payload)

    def test_greedy_balance_within_one_longest_list(self):
        payload = _payload(
            [(i, [(d, 1) for d in range(length)]) for i, length in enumerate([30, 20, 12, 9, 7, 3])]
        )
        shards = parallel.partition_payload(payload, 3)
        loads = [sum(len(t[1]) for t in shard) for shard in shards]
        longest = max(len(t[1]) for t in payload)
        assert max(loads) - min(loads) <= longest


class TestMergeShardResults:
    def test_merge_counts_one_multiplication_per_extra_appearance(self):
        modulus = 1009 * 1013
        partials = [{1: 7, 2: 11}, {1: 13, 3: 17}, {1: 19}]
        merged, merge_muls = parallel.merge_shard_results(partials, modulus)
        assert merged[1] == 7 * 13 * 19 % modulus
        assert merged[2] == 11 and merged[3] == 17
        assert merge_muls == 2  # document 1 appeared in three shards

    def test_merge_is_order_insensitive(self):
        modulus = 10007
        partials = [{1: 123, 2: 55}, {1: 456}, {2: 77, 3: 9}]
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
        assert parallel.build_power_table(17, [], 10007) == ({}, 0)
        assert parallel.build_power_table(17, array("I"), 10007) == ({}, 0)

    def test_zero_only_impacts_need_no_multiplications(self):
        table, multiplications = parallel.build_power_table(17, [0, 0], 10007)
        assert table == {0: 1} and multiplications == 0


class TestAccumulationKernel:
    def test_kernel_counts_match_manual_expectation(self):
        modulus = 1009 * 1013
        # Two terms over overlapping documents; impacts {1,2} and {3}.
        payload = _payload([(17, [(1, 2), (2, 1)]), (23, [(1, 3), (3, 3)])])
        accumulators, counts = parallel.accumulate_terms(payload, modulus)
        assert counts.postings == 4
        # 4 postings, 3 distinct candidates -> 1 accumulator multiplication.
        assert counts.accumulator_multiplications == 1
        assert accumulators[1] == pow(17, 2, modulus) * pow(23, 3, modulus) % modulus
        assert accumulators[2] == pow(17, 1, modulus)
        assert accumulators[3] == pow(23, 3, modulus)

    def test_kernel_skips_empty_lists(self):
        accumulators, counts = parallel.accumulate_terms(
            [(9, array("I"), array("I"))], 10007
        )
        assert accumulators == {} and counts.postings == 0


class TestShardedServer:
    """Real multiprocess execution: workers are actual forked/spawned processes."""

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
        assert (
            sharded.process_query(query).encrypted_scores
            == sequential.process_query(query).encrypted_scores
        )
        seq, par = sequential.counters, sharded.counters
        assert par.shards_executed == 2
        # Sharding moves multiplications, it never creates or destroys them.
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


class TestCostWeightedPartition:
    """Regression: the LPT partition assumed uniform per-posting cost, but the
    power-table build makes per-term cost depend on the distinct-impact
    spread; shards must balance estimated multiplications, not list lengths."""

    def _skewed_payload(self):
        # Four equally long lists: one quantises across a wide sparse range
        # (expensive power table), three to a single level (almost free).
        expensive = (3, [(d, 1 + 25 * d) for d in range(10)])
        cheap = [(5 + i, [(d, 4) for d in range(10)]) for i in range(3)]
        return _payload([expensive, *cheap])

    def test_term_cost_counts_postings_plus_table_work(self):
        payload = self._skewed_payload()
        modulus = 1009 * 1013
        for entry in payload:
            _, counts = parallel.accumulate_terms([entry], modulus)
            assert parallel.term_cost(entry) == (
                counts.postings + counts.table_multiplications
            )
        assert parallel.term_cost((7, array("I"), array("I"))) == 0

    def test_skewed_lists_balance_by_realised_multiplications(self):
        payload = self._skewed_payload()
        modulus = 1009 * 1013
        shards = parallel.partition_payload(payload, 2)
        assert len(shards) == 2

        def realised(shard):
            _, counts = parallel.accumulate_terms(shard, modulus)
            return counts.table_multiplications + counts.accumulator_multiplications

        loads = sorted(realised(shard) for shard in shards)
        # Length-based LPT would pair the expensive list with a cheap one
        # (every shard gets two 10-posting lists), leaving the other shard
        # with only two cheap lists -- a spread of a full power-table build.
        length_balanced = [[payload[0], payload[1]], [payload[2], payload[3]]]
        old_loads = sorted(realised(shard) for shard in length_balanced)
        assert loads[-1] - loads[0] < old_loads[-1] - old_loads[0]
        # LPT bound under the cost weighting: spread within one term cost.
        assert loads[-1] - loads[0] <= max(
            parallel.term_cost(entry) for entry in payload
        )

    def test_op_totals_conserved_under_cost_weighting(self):
        payload = self._skewed_payload()
        modulus = 1009 * 1013
        sequential, seq_counts = parallel.accumulate_terms(payload, modulus)
        partition = parallel.partition_payload(payload, 3)
        partials = [parallel.accumulate_terms(shard, modulus) for shard in partition]
        merged, merge_muls = parallel.merge_shard_results(
            [accumulators for accumulators, _ in partials], modulus
        )
        assert merged == sequential
        within = sum(c.accumulator_multiplications for _, c in partials)
        assert within + merge_muls == seq_counts.accumulator_multiplications
