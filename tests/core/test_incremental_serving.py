"""Serving-layer behaviour under incremental index updates.

Whatever is derived from the index must track it: every mutation bumps
``update_epoch`` and maintenance never does, so the analytic cost estimate
stays exact, the PIR servers' per-bucket bit-matrix databases are rebuilt
after an update and kept across a compaction, and newly introduced terms gain
bucket coverage.
"""

import random

import pytest

from repro.core.buckets import simple_buckets
from repro.core.embellish import QueryEmbellisher
from repro.core.pir_retrieval import PIRRetrievalServer
from repro.core.server import PrivateRetrievalServer
from repro.crypto.benaloh import generate_keypair
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex

KEYPAIR = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(77))


@pytest.fixture()
def documents():
    return [
        Document(doc_id=1, text="night keeper keeps the keep in the town"),
        Document(doc_id=2, text="big old house and the big old gown"),
        Document(doc_id=3, text="house in the town had the big old keep"),
    ]


@pytest.fixture()
def index(documents):
    return InvertedIndex.build(Corpus(documents))


@pytest.fixture()
def organization(index):
    return simple_buckets(sorted(index.terms), {}, bucket_size=3)


@pytest.fixture()
def server(index, organization):
    return PrivateRetrievalServer(
        index=index, organization=organization, public_key=KEYPAIR.public
    )


class TestEstimateCosts:
    def test_estimate_stays_exact_across_an_update(self, documents, index):
        from repro.core.client import PrivateSearchSystem

        system = PrivateSearchSystem(
            index=index,
            organization=simple_buckets(sorted(index.terms), {}, bucket_size=3),
            key_bits=128,
            block_size=3**6,
            rng=random.Random(5),
        )
        genuine = [sorted(index.terms)[0]]
        estimate = system.estimate_costs(genuine)
        _, real = system.search(genuine)
        for key in ("server_table_multiplications", "server_multiplications"):
            assert estimate.counts[key] == real.counts[key], key
        # After an update the estimate tracks.
        index.add_document(Document(doc_id=9, text="night keeper gown town"))
        estimate = system.estimate_costs(genuine)
        _, real = system.search(genuine)
        for key in ("server_table_multiplications", "server_multiplications"):
            assert estimate.counts[key] == real.counts[key], key


class TestAccommodateNewTerms:
    def test_new_terms_get_appended_buckets(self, server, index, organization):
        old_buckets = organization.buckets
        index.add_document(Document(doc_id=9, text="zanzibar spice market"))
        adopted = server.accommodate_new_terms()
        assert set(adopted) == {"zanzibar", "spice", "market"}
        # Existing assignments never move.
        assert server.organization.buckets[: len(old_buckets)] == old_buckets
        for term in adopted:
            assert term in server.organization
        # Idempotent once covered.
        assert server.accommodate_new_terms() == ()

    def test_queries_over_new_terms_gain_decoys(self, server, index):
        index.add_document(Document(doc_id=9, text="zanzibar spice market"))
        server.accommodate_new_terms()
        embellisher = QueryEmbellisher(
            organization=server.organization, keypair=KEYPAIR, rng=random.Random(3)
        )
        query = embellisher.embellish(["zanzibar"])
        assert embellisher.last_unbucketed_terms == ()
        assert len(query) == len(server.organization.bucket_of("zanzibar"))
        result = server.process_query(query)
        assert 9 in result.encrypted_scores

    def test_extended_preserves_lookup_invariants(self, organization):
        extended = organization.extended(["aaa", "bbb", "ccc", "ddd"], {"aaa": 7})
        assert extended.num_terms == organization.num_terms + 4
        for term in ("aaa", "bbb", "ccc", "ddd"):
            assert extended.bucket_of(term)  # assigned exactly once (ctor checks)
        # Specificity sorting: the most specific new term leads its bucket.
        new_buckets = extended.buckets[organization.num_buckets :]
        assert new_buckets[0][0] == "aaa"
        assert organization.extended([]) is organization
        assert extended.extended(["aaa"]) is extended  # already covered


class TestPIRDatabaseInvalidation:
    def test_touched_bucket_rebuilt_untouched_kept(self, index, organization):
        pir = PIRRetrievalServer(index=index, organization=organization)
        gown_bucket = organization.bucket_id_of("gown")
        keep_bucket = organization.bucket_id_of("keep")
        before = {b: pir.bucket_database(b) for b in range(organization.num_buckets)}
        index.add_document(Document(doc_id=9, text="keep the keep"))
        after_keep = pir.bucket_database(keep_bucket)
        assert after_keep is not before[keep_bucket]  # rebuilt
        # Whatever was evicted, every served database must equal one
        # rebuilt from the live index's serialised lists.
        from repro.crypto.pir import PIRDatabase
        from repro.textsearch.inverted_index import POSTING_BYTES

        for bucket_id in (keep_bucket, gown_bucket):
            expected = PIRDatabase.from_columns(
                [
                    index.serialise_list(term) or b"\x00" * POSTING_BYTES
                    for term in organization.buckets[bucket_id]
                ]
            )
            served = pir.bucket_database(bucket_id)
            assert served.row_masks == expected.row_masks
            assert served.cols == expected.cols

    def test_compaction_does_not_evict_databases(self, index, organization):
        pir = PIRRetrievalServer(index=index, organization=organization)
        index.add_document(Document(doc_id=9, text="night watch"))
        databases = {
            b: pir.bucket_database(b) for b in range(organization.num_buckets)
        }
        index.compact()
        for bucket_id, database in databases.items():
            assert pir.bucket_database(bucket_id) is database
