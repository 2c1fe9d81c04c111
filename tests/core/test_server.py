"""Unit tests for the server-side PR processing (Algorithm 4)."""

import random

import pytest

from repro.core.embellish import QueryEmbellisher
from repro.core.server import PrivateRetrievalServer, ServerCounters
from repro.textsearch.engine import SearchEngine


@pytest.fixture()
def pr_setup(index, organization, benaloh_keypair):
    embellisher = QueryEmbellisher(
        organization=organization, keypair=benaloh_keypair, rng=random.Random(3)
    )
    server = PrivateRetrievalServer(
        index=index, organization=organization, public_key=benaloh_keypair.public
    )
    return embellisher, server


class TestProcessQuery:
    def test_scores_match_plaintext_engine(self, pr_setup, index, organization, benaloh_keypair):
        embellisher, server = pr_setup
        genuine = [organization.buckets[0][0], organization.buckets[3][1]]
        query = embellisher.embellish(genuine)
        result = server.process_query(query)
        plain = SearchEngine(index).score_all(genuine)
        decrypted = {
            doc_id: benaloh_keypair.private.decrypt(ciphertext)
            for doc_id, ciphertext in result
            if benaloh_keypair.private.decrypt(ciphertext) > 0
        }
        assert decrypted == {doc_id: int(score) for doc_id, score in plain.items()}

    def test_candidates_cover_decoy_lists_too(self, pr_setup, index, organization):
        """The server cannot skip decoys, so every embellished term's documents are candidates."""
        embellisher, server = pr_setup
        genuine = [organization.buckets[0][0]]
        query = embellisher.embellish(genuine)
        result = server.process_query(query)
        expected_candidates = set()
        for term in query.terms:
            expected_candidates.update(p.doc_id for p in index.postings(term))
        assert set(result.encrypted_scores) == expected_candidates

    def test_counters_track_work_naive(self, index, organization, benaloh_keypair):
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(3)
        )
        server = PrivateRetrievalServer(
            index=index, organization=organization, public_key=benaloh_keypair.public, naive=True
        )
        genuine = [organization.buckets[1][0]]
        query = embellisher.embellish(genuine)
        server.process_query(query)
        total_postings = sum(len(index.postings(t)) for t in query.terms)
        assert server.counters.postings_processed == total_postings
        assert server.counters.modular_exponentiations == total_postings
        assert server.counters.table_multiplications == 0
        assert server.counters.terms_processed == len(query.terms)
        assert server.counters.buckets_fetched == 1
        assert server.counters.blocks_read >= 1

    def test_counters_track_work_power_table(self, pr_setup, index, organization):
        from repro.core.server import power_table_strategy

        embellisher, server = pr_setup
        genuine = [organization.buckets[1][0]]
        query = embellisher.embellish(genuine)
        server.process_query(query)
        expected_table_muls = 0
        total_postings = 0
        for term in query.terms:
            impacts = [p.quantised_impact for p in index.postings(term)]
            if not impacts:
                continue
            total_postings += len(impacts)
            distinct = sorted(set(impacts))
            expected_table_muls += power_table_strategy(distinct, distinct[-1])[1]
        assert server.counters.postings_processed == total_postings
        # The fast path never exponentiates: the whole table is built by
        # ladder or square-and-multiply multiplications.
        assert server.counters.modular_exponentiations == 0
        assert server.counters.table_multiplications == expected_table_muls
        assert server.counters.terms_processed == len(query.terms)
        assert server.counters.buckets_fetched == 1

    def test_power_table_handles_zero_impacts(self, benaloh_keypair):
        """Hand-built postings may carry quantised impact 0 (E(u)^0 = 1)."""
        from repro.core.buckets import BucketOrganization
        from repro.core.embellish import EmbellishedQuery
        from repro.textsearch.inverted_index import InvertedIndex, Posting
        from repro.textsearch.scoring import CorpusStatistics

        postings = {
            "zeroish": [
                Posting(doc_id=1, impact=3.0, quantised_impact=3),
                Posting(doc_id=2, impact=0.0, quantised_impact=0),
            ]
        }
        stats = CorpusStatistics(
            num_documents=2, document_frequencies={"zeroish": 2}, average_document_length=1.0
        )
        index = InvertedIndex(postings=postings, stats=stats, quantise_levels=255)
        organization = BucketOrganization(
            buckets=(("zeroish",),), bucket_size=1, segment_size=0, specificity={"zeroish": 1}
        )
        query = EmbellishedQuery(
            terms=("zeroish",),
            encrypted_selectors=(benaloh_keypair.public.encrypt(1, random.Random(1)),),
        )
        kwargs = dict(index=index, organization=organization, public_key=benaloh_keypair.public)
        fast = PrivateRetrievalServer(**kwargs).process_query(query)
        naive = PrivateRetrievalServer(naive=True, **kwargs).process_query(query)
        assert fast.encrypted_scores == naive.encrypted_scores
        assert benaloh_keypair.private.decrypt(fast.encrypted_scores[2]) == 0

    def test_power_table_matches_naive_ciphertexts(self, index, organization, benaloh_keypair):
        """The fast path must produce bit-identical encrypted accumulators."""
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(11)
        )
        query = embellisher.embellish(
            [organization.buckets[0][0], organization.buckets[2][1]]
        )
        fast = PrivateRetrievalServer(
            index=index, organization=organization, public_key=benaloh_keypair.public
        ).process_query(query)
        naive = PrivateRetrievalServer(
            index=index, organization=organization, public_key=benaloh_keypair.public, naive=True
        ).process_query(query)
        assert fast.encrypted_scores == naive.encrypted_scores

    def test_counters_reset_between_queries(self, pr_setup, organization):
        embellisher, server = pr_setup
        query = embellisher.embellish([organization.buckets[0][0]])
        server.process_query(query)
        first = server.counters.postings_processed
        server.process_query(query)
        assert server.counters.postings_processed == first

    def test_io_charged_once_per_bucket(self, pr_setup, organization, index):
        embellisher, server = pr_setup
        bucket = organization.buckets[0]
        # Two genuine terms in the same bucket: the bucket is fetched once.
        query = embellisher.embellish([bucket[0], bucket[1]])
        server.process_query(query)
        assert server.counters.buckets_fetched == 1

    def test_result_downstream_size(self, pr_setup, organization, benaloh_keypair):
        embellisher, server = pr_setup
        query = embellisher.embellish([organization.buckets[2][0]])
        result = server.process_query(query)
        ciphertext_bytes = (benaloh_keypair.n.bit_length() + 7) // 8
        assert result.downstream_bytes() == len(result.encrypted_scores) * (4 + ciphertext_bytes)

    def test_unbucketed_terms_charged_as_loose_io(self, index, organization, benaloh_keypair):
        # Build a query containing a term the organisation does not know.
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(5)
        )
        unbucketed = [t for t in index.terms if t not in organization]
        if not unbucketed:
            pytest.skip("every searchable term is bucketed in this fixture")
        server = PrivateRetrievalServer(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        query = embellisher.embellish([unbucketed[0]])
        server.process_query(query)
        assert server.counters.buckets_fetched == 0
        assert server.counters.blocks_read >= 1


class TestBatchCounterHygiene:
    def test_process_query_replaces_the_previous_batch_record(self, pr_setup, organization):
        """Regression: process_query reset `counters` but left the previous
        batch's per-query counters in last_batch_counters, so callers reading
        them after a single query saw stale data.  A query is a batch of one
        and records exactly its own counters."""
        embellisher, server = pr_setup
        query = embellisher.embellish([organization.buckets[0][0]])
        server.process_batch([query, query])
        assert len(server.last_batch_counters) == 2
        assert server.counters.queries_processed == 2
        server.process_query(query)
        assert server.last_batch_counters == [server.counters]
        assert server.counters.queries_processed == 1

    def test_empty_query_executes_zero_shards(self, pr_setup):
        from repro.core.embellish import EmbellishedQuery

        _, server = pr_setup
        result = server.process_query(EmbellishedQuery(terms=(), encrypted_selectors=()))
        assert len(result) == 0
        assert server.counters.shards_executed == 0


class TestResidentEngine:
    def test_sharded_server_keeps_one_resident_pool(
        self, index, organization, benaloh_keypair
    ):
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(7)
        )
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        query = embellisher.embellish(bucketed[:3])
        sequential = PrivateRetrievalServer(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        with PrivateRetrievalServer(
            index=index,
            organization=organization,
            public_key=benaloh_keypair.public,
            parallelism=2,
        ) as server:
            first = server.process_batch([query, query])
            second = server.process_batch([query, query])
            assert server.engine is not None
            assert server.engine.counters.pool_starts == 1
            assert server.engine.counters.pool_reuses >= 1
        assert server.engine is None  # context exit shut the owned engine down
        expected = sequential.process_query(query).encrypted_scores
        assert [r.encrypted_scores for r in first + second] == [expected] * 4

    def test_close_is_idempotent_and_leaves_shared_engines_alone(
        self, index, organization, benaloh_keypair
    ):
        from repro.core.engine import ExecutionEngine

        with ExecutionEngine(parallelism=2) as shared:
            server = PrivateRetrievalServer(
                index=index,
                organization=organization,
                public_key=benaloh_keypair.public,
                parallelism=2,
                engine=shared,
            )
            server.close()
            server.close()
            assert not shared.closed  # shared engines are the caller's to shut down

    def test_parallel_call_after_close_creates_a_fresh_engine(
        self, index, organization, benaloh_keypair
    ):
        """close() releases the pool but is not terminal: the next parallel
        call lazily creates (and the server again owns) a fresh engine."""
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(13)
        )
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        query = embellisher.embellish(bucketed[:3])
        server = PrivateRetrievalServer(
            index=index,
            organization=organization,
            public_key=benaloh_keypair.public,
            parallelism=2,
        )
        first = server.process_query(query)
        old_engine = server.engine
        server.close()
        assert old_engine.closed and server.engine is None
        second = server.process_query(query)
        assert server.engine is not None and server.engine is not old_engine
        assert second.encrypted_scores == first.encrypted_scores
        server.close()

    def test_injected_engine_is_used_whole_without_a_parallelism(
        self, index, organization, benaloh_keypair
    ):
        """``engine=`` alone places the work: the server dispatches on all of
        the injected pool, whatever its own ``parallelism`` field says."""
        from repro.core.engine import ExecutionEngine

        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(9)
        )
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        query = embellisher.embellish(bucketed[:3])
        kwargs = dict(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        in_process = PrivateRetrievalServer(**kwargs).process_query(query)
        with ExecutionEngine(parallelism=2) as shared:
            server = PrivateRetrievalServer(engine=shared, **kwargs)
            pooled = server.process_batch([query, query])
            assert server.counters.shards_executed == 2
            assert shared.counters.tasks_dispatched == 2
        assert [r.encrypted_scores for r in pooled] == [in_process.encrypted_scores] * 2


class TestIterBatch:
    def test_streamed_pairs_match_batch_in_order(
        self, index, organization, benaloh_keypair
    ):
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(11)
        )
        bucketed = [t for bucket in organization.buckets for t in bucket if t in index]
        queries = [embellisher.embellish([t]) for t in bucketed[:4]]
        kwargs = dict(
            index=index, organization=organization, public_key=benaloh_keypair.public
        )
        batch_server = PrivateRetrievalServer(**kwargs)
        batch = batch_server.process_batch(queries)
        with PrivateRetrievalServer(parallelism=2, **kwargs) as server:
            streamed = list(server.iter_batch(queries))
            # Each query's counters travel with its result; the stream
            # records nothing on the server, whatever the worker budget.
            assert server.counters == ServerCounters()
            assert server.last_batch_counters == []
        assert [r.encrypted_scores for r, _ in streamed] == [
            r.encrypted_scores for r in batch
        ]
        assert [c for _, c in streamed] == batch_server.last_batch_counters
        assert all(c.queries_processed == 1 for _, c in streamed)
        assert ServerCounters.total(c for _, c in streamed) == batch_server.counters

    def test_streaming_sequential_path_is_lazy(self, pr_setup, organization):
        embellisher, server = pr_setup
        queries = [
            embellisher.embellish([organization.buckets[i][0]]) for i in range(3)
        ]
        iterator = server.iter_batch(queries)
        first, counters = next(iterator)
        assert counters.queries_processed == 1 and counters.postings_processed
        rest = list(iterator)
        assert len(first.encrypted_scores) and len(rest) == 2
        assert server.counters == ServerCounters()  # recorded only by process_*

    def test_interleaved_call_does_not_inherit_stream_counters(
        self, pr_setup, organization
    ):
        """Regression: finishing a stream after an interleaved process_query
        used to keep adding the stream's per-query counts into the shared
        aggregate, contaminating the newer call's counters."""
        embellisher, server = pr_setup
        queries = [
            embellisher.embellish([organization.buckets[i][0]]) for i in range(2)
        ]
        interleaved = embellisher.embellish([organization.buckets[5][0]])
        stream = server.iter_batch(queries)
        next(stream)
        server.process_query(interleaved)
        expected = ServerCounters.total([server.counters])
        remainder = list(stream)  # the stream still yields correct results
        assert len(remainder) == 1 and len(remainder[0][0].encrypted_scores)
        assert server.counters == expected  # aggregate untouched by the stream
        assert server.counters.queries_processed == 1
        assert server.last_batch_counters == [expected]


class TestEngineFinalizerGuard:
    def test_gc_reclaimed_server_shuts_down_owned_engine(
        self, index, organization, benaloh_keypair
    ):
        """Regression: a server dropped without close()/with used to strand
        its owned engine's worker pool until interpreter exit."""
        import gc

        server = PrivateRetrievalServer(
            index=index,
            organization=organization,
            public_key=benaloh_keypair.public,
            parallelism=2,
        )
        engine = server._resident_engine()
        engine.start()  # a real resident pool is up
        assert engine.running and not engine.closed
        del server
        gc.collect()
        assert engine.closed
        assert not engine.running  # the worker pool was shut down, not stranded

    def test_finalizer_leaves_shared_engines_running(
        self, index, organization, benaloh_keypair
    ):
        import gc

        from repro.core.engine import ExecutionEngine

        with ExecutionEngine(parallelism=2) as shared:
            server = PrivateRetrievalServer(
                index=index,
                organization=organization,
                public_key=benaloh_keypair.public,
                parallelism=2,
                engine=shared,
            )
            del server
            gc.collect()
            assert not shared.closed  # shared engines are the caller's to shut down

    def test_finalizer_after_explicit_close_is_harmless(
        self, index, organization, benaloh_keypair
    ):
        import gc

        server = PrivateRetrievalServer(
            index=index,
            organization=organization,
            public_key=benaloh_keypair.public,
        )
        server._resident_engine()
        server.close()
        server.close()  # idempotent
        assert server.engine is None
        del server
        gc.collect()  # __del__ after close must not raise
