"""Scatter-gather coordination: bit-identity with the single-node oracle,
replica failover, graceful degradation and epoch-skew detection.

The one invariant everything here leans on: Benaloh accumulation is a product
in Z*_n, so merging per-shard partials by modular multiplication must be
**bit-identical** to the unsplit server -- for any shard count, any
partitioner, and any failover path that still reaches a live replica.
"""

from __future__ import annotations

import dataclasses
import logging
import random

import pytest

from repro.core.coordinator import (
    FaultedBackend,
    LocalShardBackend,
    QueryCoordinator,
    ShardEpochSkewError,
    ShardResponse,
    ShardTopology,
    ShardUnavailableError,
    data_epoch,
    shard_partials,
)
from repro.core.embellish import QueryEmbellisher
from repro.core.faults import FaultPlan, PermanentFaultError, RetryPolicy
from repro.core.partitioning import (
    BucketPartitioner,
    HashPartitioner,
    shard_organization,
)
from repro.core.server import EncryptedResult, PrivateRetrievalServer, ServerCounters
from repro.lexicon.specificity import hypernym_depth_specificity
from repro.core.sequencing import concatenate_sequences, sequence_dictionary
from repro.core.buckets import generate_buckets
from repro.lexicon.builder import build_lexicon
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.synthetic import SyntheticCorpusGenerator


def _fast_retry(max_retries: int = 3) -> RetryPolicy:
    """Failover without wall-clock cost: zero backoff, no-op sleep."""
    return RetryPolicy(max_retries=max_retries, backoff_base=0.0, sleep=lambda s: None)


def _shard_backends(index, organization, public_key, partitioner, epoch=None):
    """Split ``index`` and stand up one LocalShardBackend per shard."""
    return [
        LocalShardBackend(
            PrivateRetrievalServer(
                index=shard,
                organization=shard_organization(organization, set(shard.terms)),
                public_key=public_key,
            ),
            epoch=epoch,
        )
        for shard in index.split(partitioner)
    ]


def _topology(backends, partitioner, expected_epochs=()):
    return ShardTopology(
        partitioner=partitioner,
        replicas=tuple((backend,) for backend in backends),
        expected_epochs=expected_epochs,
    )


class CountingBackend:
    """Wrap a backend, recording calls (and optionally tampering)."""

    def __init__(self, inner, tamper=None):
        self.inner = inner
        self.calls = 0
        self.tamper = tamper

    def accumulate(self, subqueries):
        self.calls += 1
        response = self.inner.accumulate(subqueries)
        return self.tamper(response) if self.tamper else response

    def close(self):
        self.inner.close()


@pytest.fixture(scope="module")
def embellisher(organization, benaloh_keypair):
    return QueryEmbellisher(
        organization=organization, keypair=benaloh_keypair, rng=random.Random(41)
    )


@pytest.fixture(scope="module")
def query_terms(index, organization):
    searchable = [t for b in organization.buckets for t in b]
    rng = random.Random(4091)
    return [rng.sample(searchable, 3) for _ in range(4)]


@pytest.fixture(scope="module")
def queries(embellisher, query_terms):
    return [embellisher.embellish(terms) for terms in query_terms]


@pytest.fixture(scope="module")
def oracle(index, organization, benaloh_keypair):
    return PrivateRetrievalServer(
        index=index, organization=organization, public_key=benaloh_keypair.public
    )


@pytest.fixture(scope="module")
def oracle_results(oracle, queries):
    return oracle.process_batch(queries)


# -- bit-identity with the single-node oracle --------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_bit_identical_to_single_node_hash(
    index, organization, benaloh_keypair, queries, oracle_results, num_shards
):
    part = HashPartitioner(num_shards=num_shards)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    with QueryCoordinator(
        topology=_topology(backends, part), public_key=benaloh_keypair.public
    ) as coordinator:
        results = coordinator.process_batch(queries)
    for got, expected in zip(results, oracle_results):
        assert got.encrypted_scores == expected.encrypted_scores
        assert got.modulus == expected.modulus


def test_bit_identical_to_single_node_bucket_partitioner(
    index, organization, benaloh_keypair, queries, oracle_results
):
    part = BucketPartitioner.from_organization(organization, 3)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    coordinator = QueryCoordinator(
        topology=_topology(backends, part), public_key=benaloh_keypair.public
    )
    results = coordinator.process_batch(queries)
    for got, expected in zip(results, oracle_results):
        assert got.encrypted_scores == expected.encrypted_scores


def test_random_queries_property_vs_oracle(
    index, organization, benaloh_keypair, embellisher, oracle
):
    """Property-style sweep: fresh random queries, several widths, both
    partitioner families -- every draw must merge bit-identically."""
    searchable = [t for b in organization.buckets for t in b]
    rng = random.Random(77)
    partitioners = [
        HashPartitioner(num_shards=2),
        HashPartitioner(num_shards=5, seed=9),
        BucketPartitioner.from_organization(organization, 4),
    ]
    for part in partitioners:
        backends = _shard_backends(index, organization, benaloh_keypair.public, part)
        coordinator = QueryCoordinator(
            topology=_topology(backends, part), public_key=benaloh_keypair.public
        )
        batch = [
            embellisher.embellish(rng.sample(searchable, rng.randint(1, 5)))
            for _ in range(3)
        ]
        expected = oracle.process_batch(batch)
        got = coordinator.process_batch(batch)
        for g, e in zip(got, expected):
            assert g.encrypted_scores == e.encrypted_scores


def test_counters_aggregate_shard_work(index, organization, benaloh_keypair, queries):
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    coordinator = QueryCoordinator(
        topology=_topology(backends, part), public_key=benaloh_keypair.public
    )
    coordinator.process_batch(queries)
    assert coordinator.counters.queries_processed == len(queries)
    # Embellished terms (genuine + decoys) are what the shards process.
    assert coordinator.counters.terms_processed == sum(len(q.terms) for q in queries)
    # A >1-shard merge of non-empty partials costs real multiplications, and
    # they are accounted both in the total and in the merge-specific counter.
    assert coordinator.counters.merge_multiplications > 0
    assert (
        coordinator.counters.modular_multiplications
        >= coordinator.counters.merge_multiplications
    )
    assert len(coordinator.last_batch_counters) == len(queries)
    assert ServerCounters.total(coordinator.last_batch_counters) == coordinator.counters
    # The stream yields the same per-query counters, and records nothing.
    recorded = coordinator.counters
    pairs = list(coordinator.iter_batch(queries))
    assert [counters for _, counters in pairs] == coordinator.last_batch_counters
    assert coordinator.counters is recorded


def test_interleaved_call_does_not_inherit_stream_counters(
    index, organization, benaloh_keypair, queries
):
    """Regression: finishing a stream after an interleaved process_query
    kept adding the stream's per-query counts into the coordinator's
    aggregate, so it read two queries where the newer call answered one."""
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    coordinator = QueryCoordinator(
        topology=_topology(backends, part), public_key=benaloh_keypair.public
    )
    stream = coordinator.iter_batch(queries[:2])
    next(stream)
    coordinator.process_query(queries[2])
    expected = dataclasses.replace(coordinator.counters)
    assert len(list(stream)) == 1
    assert coordinator.counters == expected
    assert coordinator.counters.queries_processed == 1


def test_single_shard_merges_for_free(index, organization, benaloh_keypair, queries):
    part = HashPartitioner(num_shards=1)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    coordinator = QueryCoordinator(
        topology=_topology(backends, part), public_key=benaloh_keypair.public
    )
    coordinator.process_batch(queries)
    assert coordinator.counters.merge_multiplications == 0


def test_local_backend_answers_the_shard_role_unchanged(
    index, organization, benaloh_keypair, queries
):
    """A partial is an ``EncryptedResult`` from every backend: the in-process
    one hands on ``shard_partials``' response as it is, rows included."""
    (backend,) = _shard_backends(
        index, organization, benaloh_keypair.public, HashPartitioner(num_shards=1)
    )
    response = backend.accumulate(
        [(query.terms, query.encrypted_selectors) for query in queries]
    )
    direct = shard_partials(backend.server, queries)
    assert response == direct
    assert all(isinstance(partial, EncryptedResult) for partial in response.partials)
    assert [p.rows for p in response.partials] == [p.rows for p in direct.partials]


# -- replica failover --------------------------------------------------------------
def test_failover_to_second_replica_bit_identical(
    index, organization, benaloh_keypair, queries, oracle_results
):
    """Kill replica 0 of every shard on its first call; the batch must
    complete bit-identically off replica 1, with the retries counted."""
    part = HashPartitioner(num_shards=2)
    primaries = _shard_backends(index, organization, benaloh_keypair.public, part)
    secondaries = _shard_backends(index, organization, benaloh_keypair.public, part)
    plan = FaultPlan(kill_at=frozenset({(0, 0)}))
    replicas = tuple(
        (FaultedBackend(primary, plan, replica_index=0), secondary)
        for primary, secondary in zip(primaries, secondaries)
    )
    coordinator = QueryCoordinator(
        topology=ShardTopology(partitioner=part, replicas=replicas),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(),
    )
    results = coordinator.process_batch(queries)
    for got, expected in zip(results, oracle_results):
        assert got.encrypted_scores == expected.encrypted_scores
    assert coordinator.counters.tasks_retried == 2  # one failover per shard


def test_transient_fault_retries_same_rotation(
    index, organization, benaloh_keypair, queries, oracle_results
):
    """A transient fault (not a death) also rotates and succeeds."""
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    plan = FaultPlan(transient_at=frozenset({(0, 0)}))
    replicas = tuple(
        (FaultedBackend(backend, plan, replica_index=0),) for backend in backends
    )
    coordinator = QueryCoordinator(
        topology=ShardTopology(partitioner=part, replicas=replicas),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(),
    )
    results = coordinator.process_batch(queries)
    for got, expected in zip(results, oracle_results):
        assert got.encrypted_scores == expected.encrypted_scores


def test_dark_shard_raises_typed_unavailable(
    index, organization, benaloh_keypair, queries
):
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    plan = FaultPlan(kill_at=frozenset({(0, 0)}))  # single replica, dead forever
    replicas = (
        (FaultedBackend(backends[0], plan, replica_index=0),),
        (backends[1],),
    )
    coordinator = QueryCoordinator(
        topology=ShardTopology(partitioner=part, replicas=replicas),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(max_retries=2),
    )
    with pytest.raises(ShardUnavailableError) as excinfo:
        coordinator.process_batch(queries)
    assert excinfo.value.shard_id == 0
    assert excinfo.value.attempts == 3
    assert excinfo.value.transient is True
    assert isinstance(excinfo.value.last_error, ConnectionError)


def test_permanent_fault_is_not_retried(index, organization, benaloh_keypair, queries):
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    plan = FaultPlan(permanent_at=frozenset({(0, 0)}))
    replicas = tuple(
        (FaultedBackend(backend, plan, replica_index=0),) for backend in backends
    )
    coordinator = QueryCoordinator(
        topology=ShardTopology(partitioner=part, replicas=replicas),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(),
    )
    with pytest.raises(PermanentFaultError):
        coordinator.process_batch(queries)


def test_allow_partial_degrades_dark_shard(
    index, organization, benaloh_keypair, queries, caplog
):
    """A fully dark shard under allow_partial: the surviving shards' merge is
    returned (bit-identical to merging just those partials), every affected
    query is counted degraded, and one WARNING names the dark shard."""
    from repro.core import parallel
    from repro.core.partitioning import split_query_terms

    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    plan = FaultPlan(kill_at=frozenset({(0, 0)}))
    replicas = (
        (FaultedBackend(backends[0], plan, replica_index=0),),
        (backends[1],),
    )
    coordinator = QueryCoordinator(
        topology=ShardTopology(partitioner=part, replicas=replicas),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(max_retries=1),
        allow_partial=True,
    )
    with caplog.at_level(logging.WARNING, logger="repro.core.coordinator"):
        results = coordinator.process_batch(queries)
    dark = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(dark) == 1 and dark[0].startswith("shard 0 is dark")

    # Expected: each query merged from shard 1's contribution only.
    modulus = benaloh_keypair.public.n
    spare = _shard_backends(index, organization, benaloh_keypair.public, part)[1]
    affected = 0
    for query, got in zip(queries, results):
        split = split_query_terms(query.terms, query.encrypted_selectors, part)
        live = []
        if 1 in split:
            live.append(spare.accumulate([split[1]]).partials[0])
        if 0 in split:
            affected += 1
        expected, _ = parallel.merge_shard_results(live, modulus)
        assert got == expected
    assert affected > 0
    assert coordinator.counters.degraded_queries == affected


# -- satellite (c): cross-shard merge edge cases -----------------------------------
def test_empty_shard_receives_no_traffic(
    index, organization, benaloh_keypair, embellisher, oracle
):
    """A query whose terms all live on one shard: the other shards see zero
    accumulate calls, and the result still matches the oracle.

    Needs the bucket partitioner: embellishment decoys are bucket-mates of
    the genuine terms, so only bucket-local routing keeps the *embellished*
    query shard-local -- exactly the shard-locality the partitioner exists
    to provide.
    """
    part = BucketPartitioner.from_organization(organization, 3)
    on_shard_zero = [
        bucket[0]
        for bucket in organization.buckets
        if bucket and part.shard_of(bucket[0]) == 0
    ][:3]
    assert len(on_shard_zero) == 3
    query = embellisher.embellish(on_shard_zero)
    assert {part.shard_of(t) for t in query.terms} == {0}
    expected = oracle.process_query(query)

    backends = [
        CountingBackend(b)
        for b in _shard_backends(index, organization, benaloh_keypair.public, part)
    ]
    coordinator = QueryCoordinator(
        topology=_topology(backends, part), public_key=benaloh_keypair.public
    )
    got = coordinator.process_query(query)
    assert got.encrypted_scores == expected.encrypted_scores
    assert backends[0].calls == 1
    assert backends[1].calls == 0 and backends[2].calls == 0


def test_fully_tombstoned_shard_bit_identical():
    """Tombstone every posting a shard owns; the coordinator over the split
    must still match the single-node oracle over the same (updated) index."""
    lexicon = build_lexicon(150, seed=5)
    corpus = SyntheticCorpusGenerator(
        lexicon=lexicon, num_documents=40, mean_document_length=40, seed=7
    ).generate()
    index = InvertedIndex.build(corpus)
    specificity = hypernym_depth_specificity(lexicon)
    sequence = concatenate_sequences(sequence_dictionary(lexicon))
    searchable = [t for t in sequence if t in set(index.terms)]
    organization = generate_buckets(searchable, specificity, bucket_size=4)
    from repro.crypto.benaloh import generate_keypair

    keypair = generate_keypair(key_bits=96, block_size=3**5, rng=random.Random(23))

    # Route the three rarest searchable terms to shard 1, then tombstone the
    # few documents that carry them: shard 1 ends up with zero live postings.
    coverage = {}
    for term in index.terms:
        doc_ids, _ = index.columns(term)
        coverage[term] = {int(d) for d in doc_ids}
    rare = sorted(searchable, key=lambda t: len(coverage[t]))[:3]
    part = BucketPartitioner(
        num_shards=2,
        assignments={t: (1 if t in rare else 0) for t in index.terms},
    )
    for doc_id in sorted(set().union(*(coverage[t] for t in rare))):
        index.remove_document(doc_id)
    shards = index.split(part)
    assert shards[1].num_terms == 0, "shard 1 must be fully tombstoned"

    oracle = PrivateRetrievalServer(
        index=index, organization=organization, public_key=keypair.public
    )
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(41)
    )
    alive = [t for t in searchable if t not in rare]
    queries = [
        embellisher.embellish([rare[0], rare[1], alive[0], alive[1]]),
        embellisher.embellish([rare[2], alive[2]]),
    ]
    expected = oracle.process_batch(queries)

    backends = [
        LocalShardBackend(
            PrivateRetrievalServer(
                index=shard,
                organization=shard_organization(organization, set(shard.terms))
                if shard.num_terms
                else organization,
                public_key=keypair.public,
            )
        )
        for shard in shards
    ]
    coordinator = QueryCoordinator(
        topology=_topology(backends, part), public_key=keypair.public
    )
    got = coordinator.process_batch(queries)
    for g, e in zip(got, expected):
        assert g.encrypted_scores == e.encrypted_scores


def test_trailing_epoch_raises_typed_skew(
    index, organization, benaloh_keypair, queries
):
    """A shard whose snapshot trails the coordinator's pinned epoch is a
    typed error -- never silently merged."""
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(
        index, organization, benaloh_keypair.public, part, epoch=3
    )
    coordinator = QueryCoordinator(
        topology=_topology(backends, part, expected_epochs=(7, 3)),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(max_retries=1),
    )
    with pytest.raises(ShardEpochSkewError) as excinfo:
        coordinator.process_batch(queries)
    assert excinfo.value.shard_id == 0
    assert excinfo.value.expected_epoch == 7
    assert excinfo.value.observed_epoch == 3
    assert "trails" in str(excinfo.value)
    assert excinfo.value.transient is False


def test_skew_fails_over_to_caught_up_replica(
    index, organization, benaloh_keypair, queries, oracle_results
):
    """Replica 0 answers from a stale snapshot, replica 1 is caught up: the
    gather rotates past the skew and the batch is bit-identical."""
    part = HashPartitioner(num_shards=2)
    stale = _shard_backends(index, organization, benaloh_keypair.public, part, epoch=3)
    fresh = _shard_backends(index, organization, benaloh_keypair.public, part, epoch=7)
    replicas = tuple(zip(stale, fresh))
    coordinator = QueryCoordinator(
        topology=ShardTopology(
            partitioner=part, replicas=replicas, expected_epochs=(7, 7)
        ),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(),
    )
    results = coordinator.process_batch(queries)
    for got, expected in zip(results, oracle_results):
        assert got.encrypted_scores == expected.encrypted_scores
    assert coordinator.counters.tasks_retried == 2


def test_skew_not_masked_by_allow_partial(
    index, organization, benaloh_keypair, queries
):
    """allow_partial degrades *missing* shards, never *stale* ones: a shard
    that answers only at the wrong epoch still raises."""
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(
        index, organization, benaloh_keypair.public, part, epoch=1
    )
    coordinator = QueryCoordinator(
        topology=_topology(backends, part, expected_epochs=(2, 1)),
        public_key=benaloh_keypair.public,
        retry=_fast_retry(max_retries=1),
        allow_partial=True,
    )
    with pytest.raises(ShardEpochSkewError):
        coordinator.process_batch(queries)


def test_modulus_mismatch_rejected_before_merge(
    index, organization, benaloh_keypair, queries
):
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)

    def tamper(response):
        return ShardResponse(
            epoch=response.epoch,
            modulus=response.modulus + 2,
            partials=response.partials,
            counters=response.counters,
        )

    wrapped = [CountingBackend(backends[0], tamper=tamper), backends[1]]
    coordinator = QueryCoordinator(
        topology=_topology(wrapped, part), public_key=benaloh_keypair.public
    )
    with pytest.raises(ValueError, match="modulus"):
        coordinator.process_batch(queries)


@pytest.mark.parametrize("short", ["partials", "counters"])
def test_partial_count_mismatch_rejected(
    index, organization, benaloh_keypair, queries, short
):
    """A shard answering too few partials -- or too few counter sets, which
    used to pass the gather and silently break counter conservation in the
    merge -- is rejected before anything reaches the merge."""
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)

    def tamper(response):
        return dataclasses.replace(response, **{short: getattr(response, short)[:-1]})

    wrapped = [CountingBackend(backends[0], tamper=tamper), backends[1]]
    coordinator = QueryCoordinator(
        topology=_topology(wrapped, part), public_key=benaloh_keypair.public
    )
    with pytest.raises(ValueError, match="partials"):
        coordinator.process_batch(queries)


def test_gather_runs_shards_concurrently(
    index, organization, benaloh_keypair, queries, oracle_results
):
    """The scatter must fan out: both shards' gathers have to be in flight at
    once (a barrier inside ``accumulate`` deadlocks a sequential gather)."""
    import threading

    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    barrier = threading.Barrier(2, timeout=10)

    class Rendezvous:
        def __init__(self, inner):
            self.inner = inner

        def accumulate(self, subqueries):
            barrier.wait()  # raises BrokenBarrierError if gathers serialise
            return self.inner.accumulate(subqueries)

        def close(self):
            self.inner.close()

    coordinator = QueryCoordinator(
        topology=_topology([Rendezvous(b) for b in backends], part),
        public_key=benaloh_keypair.public,
    )
    results = coordinator.process_batch(queries)
    for got, expected in zip(results, oracle_results):
        assert got.encrypted_scores == expected.encrypted_scores


# -- topology validation -----------------------------------------------------------
def test_topology_rejects_misaligned_shapes(index, organization, benaloh_keypair):
    part = HashPartitioner(num_shards=2)
    backends = _shard_backends(index, organization, benaloh_keypair.public, part)
    with pytest.raises(ValueError):
        ShardTopology(partitioner=part, replicas=((backends[0],),))
    with pytest.raises(ValueError):
        ShardTopology(
            partitioner=part,
            replicas=((backends[0],), (backends[1],)),
            expected_epochs=(1,),
        )
    with pytest.raises(ValueError):
        ShardTopology(partitioner=part, replicas=((backends[0],), ()))


def test_coordinator_close_closes_backends(index, organization, benaloh_keypair):
    part = HashPartitioner(num_shards=2)
    closed = []

    class Recording:
        def __init__(self, shard_id):
            self.shard_id = shard_id

        def accumulate(self, subqueries):
            raise AssertionError("not exercised")

        def close(self):
            closed.append(self.shard_id)

    coordinator = QueryCoordinator(
        topology=ShardTopology(
            partitioner=part, replicas=((Recording(0),), (Recording(1),))
        ),
        public_key=benaloh_keypair.public,
    )
    with coordinator:
        pass
    assert sorted(closed) == [0, 1]


def test_data_epoch_is_the_save_seq_last_persisted(tmp_path):
    """A shard stamps its responses with the save_seq of the record it last
    saved or loaded -- a compacted log's one record included -- and with its
    update_epoch before any."""
    index = InvertedIndex.build(
        Corpus(Document(doc_id=i, text=f"alpha beta word{i}") for i in range(4))
    )
    assert data_epoch(index) == index.update_epoch == 0
    index.save(tmp_path)
    index.add_document(Document(doc_id=9, text="gamma alpha"))
    index.save(tmp_path)
    assert data_epoch(index) == data_epoch(InvertedIndex.load(tmp_path)) == 2
    compacted = tmp_path / "compacted"
    for _ in range(3):
        index.save(compacted, wal_compact_records=1)
    loaded = InvertedIndex.load(compacted)
    assert (data_epoch(loaded), loaded.update_epoch) == (3, 0)
