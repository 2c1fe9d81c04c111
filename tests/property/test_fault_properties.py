"""Fault-injected execution must be indistinguishable in its answers.

The recovery machinery (pool restarts, shard retries, in-process
degradation) exists to mask failures, so its correctness criterion is
absolute: a run with workers dying and erroring on a seeded schedule must
produce ciphertexts **bit-identical** to the clean sequential fast path and
the naive per-posting-exponentiation oracle, conserve the operation counts,
and confess everything that happened through the resilience counters -- all
the way up to :meth:`repro.core.costs.CostModel.pr_report`.

The engine-level property drives a *real* resident pool (module-scoped; the
fault plan kills the first shard of every call, so each example exercises an
actual worker death and restart).
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.core.client import PrivateSearchSystem
from repro.core.embellish import QueryEmbellisher
from repro.core.engine import ExecutionEngine, RetryPolicy
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.server import PrivateRetrievalServer


def _fast_policy() -> RetryPolicy:
    return RetryPolicy(backoff_base=0.0, sleep=lambda _s: None)


def _faulted_engine(workers: int = 3) -> ExecutionEngine:
    """An engine that loses the first shard's first attempt of every call to
    a worker kill and sprinkles seeded transient errors on top."""
    plan = FaultPlan(seed=0xBAD, kill_at=frozenset({(0, 0)}), transient_rate=0.15)
    return ExecutionEngine(
        parallelism=workers,
        retry_policy=_fast_policy(),
        fault_injector=FaultInjector(plan=plan),
    )


def _oracle(payload, modulus):
    """Naive per-posting exponentiation accumulation."""
    scores: dict[int, int] = {}
    for selector, doc_ids, impacts in payload:
        for doc_id, impact in zip(doc_ids, impacts):
            contribution = pow(selector, impact, modulus)
            scores[doc_id] = (
                contribution
                if doc_id not in scores
                else scores[doc_id] * contribution % modulus
            )
    return scores


@st.composite
def payload_batches(draw):
    """Arbitrary batches of per-query term payloads plus a modulus."""
    modulus = draw(st.sampled_from([1009 * 1013, 10007 * 10009]))
    num_queries = draw(st.integers(1, 4))
    batch = []
    for _ in range(num_queries):
        num_terms = draw(st.integers(0, 4))
        payload = []
        for _ in range(num_terms):
            selector = draw(st.integers(2, modulus - 1))
            length = draw(st.integers(0, 8))
            doc_ids = draw(st.lists(st.integers(0, 20), min_size=length, max_size=length))
            impacts = draw(st.lists(st.integers(0, 20), min_size=length, max_size=length))
            payload.append((selector, array("I", doc_ids), array("I", impacts)))
        batch.append(payload)
    return batch, modulus


@pytest.fixture(scope="module")
def faulted_engine():
    engine = _faulted_engine()
    yield engine
    engine.shutdown()


class TestFaultedEngineProperties:
    @given(data=payload_batches())
    @settings(max_examples=8, deadline=None)
    def test_faulted_batch_is_bit_identical_to_sequential_and_oracle(
        self, faulted_engine, data
    ):
        batch, modulus = data
        outputs = faulted_engine.run_batch(batch, modulus)
        for (merged, counts, merge_muls, _shards), payload in zip(outputs, batch):
            sequential, seq_counts = parallel.accumulate_terms(payload, modulus)
            assert merged == sequential
            assert merged == _oracle(payload, modulus)
            # Recovery re-runs work whose results are bit-identical; the
            # op totals attributed to the query are conserved exactly.
            assert counts.postings == seq_counts.postings
            assert counts.table_multiplications == seq_counts.table_multiplications
            assert (
                counts.accumulator_multiplications + merge_muls
                == seq_counts.accumulator_multiplications
            )

    @given(data=payload_batches())
    @settings(max_examples=6, deadline=None)
    def test_faulted_single_query_batch_matches_sequential(self, faulted_engine, data):
        batch, modulus = data
        for payload in batch:
            merged, *_ = faulted_engine.run_batch([payload], modulus)[0]
            sequential, _ = parallel.accumulate_terms(payload, modulus)
            assert merged == sequential

    def test_the_fault_plan_actually_fired(self, faulted_engine):
        """Guard against a vacuous property: the module's examples must have
        killed workers and re-dispatched shards for the equality above to
        mean anything.  (Runs last in file order; hypothesis examples with a
        single worker task stay in-process and legitimately skip faults, but
        across the suite multi-task examples are overwhelmingly likely.)"""
        counters = faulted_engine.counters
        assert counters.pool_restarts >= 1
        assert counters.tasks_retried >= 1


class TestFaultedServerEquivalence:
    @pytest.fixture()
    def embellisher(self, organization, benaloh_keypair):
        return QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(3)
        )

    @pytest.fixture()
    def faulted_server(self, index, organization, benaloh_keypair):
        engine = _faulted_engine(workers=2)
        server = PrivateRetrievalServer(
            index=index,
            organization=organization,
            public_key=benaloh_keypair.public,
            parallelism=2,
            engine=engine,
        )
        yield server
        engine.shutdown()

    @pytest.fixture()
    def sequential_server(self, index, organization, benaloh_keypair):
        return PrivateRetrievalServer(
            index=index,
            organization=organization,
            public_key=benaloh_keypair.public,
            parallelism=1,
        )

    def test_process_query_survives_kills_bit_identically(
        self, embellisher, faulted_server, sequential_server, organization
    ):
        genuine = [organization.buckets[0][0], organization.buckets[3][1]]
        query = embellisher.embellish(genuine)
        faulted = faulted_server.process_query(query)
        clean = sequential_server.process_query(query)
        assert faulted.encrypted_scores == clean.encrypted_scores
        assert faulted.modulus == clean.modulus
        # The failure story is confessed, not hidden.
        assert faulted_server.counters.pool_restarts >= 1
        assert faulted_server.counters.tasks_retried >= 1
        assert sequential_server.counters.pool_restarts == 0

    def test_streamed_batch_survives_kills_in_order(
        self, embellisher, faulted_server, sequential_server, organization
    ):
        queries = [
            embellisher.embellish([organization.buckets[0][0]]),
            embellisher.embellish(
                [organization.buckets[2][0], organization.buckets[5][1]]
            ),
            embellisher.embellish([organization.buckets[7][0]]),
        ]
        faulted = list(faulted_server.iter_batch(queries))
        clean = [sequential_server.process_query(query) for query in queries]
        assert [r.encrypted_scores for r in faulted] == [
            r.encrypted_scores for r in clean
        ]
        # Per-query snapshots carry the resilience attribution; the engine
        # deltas observed during the batch all land somewhere.
        snapshots = faulted_server.last_batch_counters
        assert len(snapshots) == len(queries)
        assert sum(s.pool_restarts for s in snapshots) >= 1
        assert faulted_server.counters.pool_restarts == sum(
            s.pool_restarts for s in snapshots
        )
        assert faulted_server.counters.tasks_retried == sum(
            s.tasks_retried for s in snapshots
        )


class TestResilienceCountersReachCostReports:
    def test_pr_report_carries_resilience_counts(self):
        from repro.core.costs import CostModel

        report = CostModel().pr_report(
            buckets_fetched=1,
            blocks_read=2,
            server_exponentiations=0,
            server_multiplications=10,
            upstream_bytes=100,
            downstream_bytes=100,
            client_encryptions=4,
            client_decryptions=4,
            pool_restarts=2,
            tasks_retried=3,
            tasks_timed_out=1,
            degraded_queries=1,
        )
        assert report.counts["pool_restarts"] == 2
        assert report.counts["tasks_retried"] == 3
        assert report.counts["tasks_timed_out"] == 1
        assert report.counts["degraded_queries"] == 1

    def test_resilience_counters_do_not_change_modelled_costs(self):
        from repro.core.costs import CostModel

        model = CostModel()
        base = dict(
            buckets_fetched=1,
            blocks_read=2,
            server_exponentiations=5,
            server_multiplications=10,
            upstream_bytes=100,
            downstream_bytes=100,
            client_encryptions=4,
            client_decryptions=4,
        )
        clean = model.pr_report(**base)
        stormy = model.pr_report(
            **base, pool_restarts=7, tasks_retried=9, tasks_timed_out=3, degraded_queries=2
        )
        assert stormy.server_cpu_ms == clean.server_cpu_ms
        assert stormy.server_io_ms == clean.server_io_ms
        assert stormy.user_cpu_ms == clean.user_cpu_ms
        assert stormy.traffic_kbytes == clean.traffic_kbytes

    def test_end_to_end_search_reports_the_failure_story(self, index, organization):
        """A full client/server search over a fault-injected engine: the cost
        report's counts include the pool restarts and retries that happened
        while answering, and the ranking machinery is none the wiser."""
        system = PrivateSearchSystem(
            index=index,
            organization=organization,
            key_bits=128,
            rng=random.Random(5),
            parallelism=2,
        )
        engine = _faulted_engine(workers=2)
        system.server.engine = engine  # shared engine: inject before first use
        try:
            genuine = [organization.buckets[0][0]]
            ranking, report = system.search(genuine, k=5)
            assert report.counts["pool_restarts"] >= 1
            assert report.counts["tasks_retried"] >= 1
            # Same query through a clean sequential system ranks identically.
            clean = PrivateSearchSystem(
                index=index,
                organization=organization,
                key_bits=128,
                rng=random.Random(5),
                parallelism=1,
            )
            with clean:
                clean_ranking, clean_report = clean.search(genuine, k=5)
            assert ranking.ranking == clean_ranking.ranking
            assert clean_report.counts["pool_restarts"] == 0
        finally:
            engine.shutdown()
            system.close()
