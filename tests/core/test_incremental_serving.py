"""Serving-layer behaviour under incremental index updates.

Whatever is derived from the index must track it: every mutation bumps
``update_epoch`` and maintenance never does, so the analytic cost estimate
stays exact, the PIR servers' per-bucket bit-matrix databases are rebuilt
after an update and kept across a compaction, and newly introduced terms gain
bucket coverage.  A server over a pinned snapshot is the other side: its
answers and its databases never move, whatever the live index does -- also
while a real writer thread maintains the index under a reading one.
"""

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buckets import simple_buckets
from repro.core.client import PrivateSearchSystem
from repro.core.embellish import QueryEmbellisher
from repro.core.pir_retrieval import PIRRetrievalClient, PIRRetrievalServer
from repro.core.server import PrivateRetrievalServer
from repro.crypto.benaloh import generate_keypair
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CosineScorer
from repro.textsearch.segments import TieredMergePolicy

KEYPAIR = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(77))

_WORDS = (
    "osteosarcoma radiation therapy water soaked tissues yeast nitrogen "
    "diving wine terrorism huntsville cellar train sleep town keep"
).split()

document_text = st.lists(st.sampled_from(_WORDS[:12]), min_size=1, max_size=12).map(" ".join)
STEPS = ["add", "remove", "seal", "maintain"]


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


def _query_for(terms, seed, organization):
    genuine = random.Random(seed).sample(terms, k=min(2, len(terms)))
    embellisher = QueryEmbellisher(
        organization=organization, keypair=KEYPAIR, rng=random.Random(seed + 1)
    )
    return embellisher.embellish(genuine)


def _server_for(view, organization):
    return PrivateRetrievalServer(index=view, organization=organization, public_key=KEYPAIR.public)


def _databases(pir):
    """Every bucket's database as served right now, by identity and by value."""
    served = [pir.bucket_database(b) for b in range(pir.organization.num_buckets)]
    return served, [(database.row_masks, database.cols) for database in served]


class TestConcurrentReaderThread:
    def test_reader_thread_pinned_across_real_concurrent_maintenance(self):
        """A reader thread hammering a pinned snapshot races a writer doing
        adds, removes, seals, merges and a compaction on the live index --
        every answer the reader gets is bit-identical to its first."""
        rng = random.Random(4242)
        base = [Document(doc_id=i, text=" ".join(rng.sample(_WORDS, 4))) for i in range(12)]
        index = InvertedIndex.build(Corpus(base), merge_policy=TieredMergePolicy(fanout=2))
        snapshot = index.snapshot()
        terms = sorted(snapshot.terms)
        organization = simple_buckets(terms, {}, bucket_size=3)
        query = _query_for(terms, 7, organization)
        server = _server_for(snapshot, organization)
        baseline = server.process_query(query).encrypted_scores

        stop = threading.Event()
        divergences: list[str] = []

        def read_loop() -> None:
            reader = _server_for(snapshot, organization)
            while not stop.is_set():
                result = reader.process_query(query)
                if result.encrypted_scores != baseline:
                    divergences.append("ciphertext mismatch under concurrency")
                    return

        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for round_no in range(30):
                doc_id = 1000 + round_no
                index.add_document(Document(doc_id=doc_id, text=" ".join(rng.sample(_WORDS, 5))))
                index.seal_delta()
                if round_no % 3 == 0:
                    index.remove_document(doc_id)
                index.maintain(force_seal=round_no % 2 == 0)
                if round_no % 10 == 9:
                    index.compact()
        finally:
            stop.set()
            thread.join()
        assert divergences == []
        # And once more after the dust settles: still the pinned answer.
        assert server.process_query(query).encrypted_scores == baseline


class TestServingCacheRegression:
    def test_pinned_cache_survives_journal_horizon_advancing(self):
        """A PIR server over a pinned snapshot keeps its database objects
        and its bit-identical answers while the live index takes updates,
        maintenance and a compaction -- the cache follows the *pinned
        view's* epoch, which never moves; one over the live index rebuilds.
        """
        documents = [
            Document(doc_id=1, text="water soaked tissues wine"),
            Document(doc_id=2, text="yeast nitrogen diving wine"),
            Document(doc_id=3, text="radiation therapy water"),
        ]
        index = InvertedIndex.build(Corpus(documents), merge_policy=TieredMergePolicy(fanout=2))
        snapshot = index.snapshot()
        pinned_epoch = snapshot.update_epoch
        organization = simple_buckets(sorted(snapshot.terms), {}, bucket_size=3)
        client = PIRRetrievalClient(organization=organization, key_bits=96, rng=random.Random(11))
        bucket_id, query = client.build_query("wine")
        pinned = PIRRetrievalServer(index=snapshot, organization=organization)
        live = PIRRetrievalServer(index=index, organization=organization)
        baseline = pinned.answer(bucket_id, query)
        assert live.answer(bucket_id, query) == baseline
        pinned_before, _ = _databases(pinned)
        live_before, _ = _databases(live)

        for i in range(8):
            index.add_document(Document(doc_id=100 + i, text="wine cellar water therapy"))
            index.maintain(force_seal=True)
        index.compact()
        assert index.update_epoch > pinned_epoch

        assert pinned.answer(bucket_id, query) == baseline
        pinned_after, _ = _databases(pinned)
        assert all(a is b for a, b in zip(pinned_after, pinned_before))
        assert pinned._databases_epoch == pinned_epoch

        assert live.answer(bucket_id, query) != baseline
        live_after, live_values = _databases(live)
        assert not any(a is b for a, b in zip(live_after, live_before))
        fresh = PIRRetrievalServer(index=index, organization=organization)
        assert live_values == _databases(fresh)[1]

    @given(
        base=st.lists(document_text, min_size=2, max_size=7),
        # (what, the text an add adds, which live document a remove takes)
        steps=st.lists(
            st.tuples(st.sampled_from(STEPS), document_text, st.integers(0, 63)),
            min_size=2,
            max_size=9,
        ),
        fanout=st.integers(2, 3),
        seed=st.integers(0, 2**16),
        scorer=st.sampled_from([CosineScorer(), BM25Scorer()]),
    )
    @settings(max_examples=20, deadline=None)
    def test_derived_state_equals_a_fresh_derivation_after_every_step(
        self, base, steps, fanout, seed, scorer
    ):
        """After every add/remove/seal/maintain step and a final compact, a
        long-lived PIR server's databases equal a freshly built server's --
        on the live index and on a pin taken mid-sequence, whose objects
        are never evicted -- and ``estimate_costs`` equals the counters of a
        real ``search``."""
        corpus = Corpus(Document(doc_id=i, text=text) for i, text in enumerate(base))
        policy = TieredMergePolicy(fanout=fanout)
        index = InvertedIndex.build(corpus, scorer=scorer, merge_policy=policy)
        terms = sorted(index.terms)
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        genuine = random.Random(seed).sample(terms, k=min(2, len(terms)))
        system = PrivateSearchSystem(
            index, organization, key_bits=128, block_size=3**6, rng=random.Random(seed)
        )
        long_lived = PIRRetrievalServer(index=index, organization=organization)
        pinned = pinned_objects = None
        live_ids = list(range(len(base)))

        def check(context):
            fresh = PIRRetrievalServer(index=index, organization=organization)
            assert _databases(long_lived)[1] == _databases(fresh)[1], context
            if pinned is not None:
                fresh = PIRRetrievalServer(index=pinned.index, organization=organization)
                served, values = _databases(pinned)
                assert values == _databases(fresh)[1], context
                assert all(a is b for a, b in zip(served, pinned_objects)), context
            estimate = dict(system.estimate_costs(genuine).counts)
            _, real = system.search(genuine)
            # Not operation counts: placement, and a wire size the estimator
            # takes from the nominal key length, a run from the real modulus.
            del estimate["shards_executed"], estimate["downstream_bytes"]
            assert estimate == {key: real.counts[key] for key in estimate}, context

        check("built")
        for position, (kind, text, nth) in enumerate(steps):
            if kind == "add":
                live_ids.append(100 + position)
                index.add_document(Document(doc_id=live_ids[-1], text=text))
            elif kind == "remove" and live_ids:
                index.remove_document(live_ids.pop(nth % len(live_ids)))
            elif kind == "seal":
                index.seal_delta()
            elif kind == "maintain":
                index.maintain(force_seal=True)
            if position == len(steps) // 2:
                pinned = PIRRetrievalServer(index=index.snapshot(), organization=organization)
                pinned_objects = _databases(pinned)[0]
            check((position, kind))
        index.compact()
        check("compacted")

    def test_fresh_server_on_live_index_does_resync(self):
        """Counter-check: a server over the *live* index (not a snapshot)
        still follows its epoch and serves the new truth."""
        index = InvertedIndex.build(Corpus([Document(doc_id=1, text="water soaked tissues")]))
        terms = sorted(index.terms)
        organization = simple_buckets(terms, {}, bucket_size=3)
        query = _query_for(terms, 3, organization)
        server = _server_for(index, organization)
        before = server.process_query(query)
        index.add_document(Document(doc_id=2, text="water water water soaked"))
        index.maintain(force_seal=True)
        after = server.process_query(query)
        # Impacts changed under the added document; the live-index server
        # re-synced and answers differently...
        assert after.encrypted_scores != before.encrypted_scores
        # ...and identically to a quiesced fresh server over the same state.
        fresh = _server_for(index, organization).process_query(query)
        assert after.encrypted_scores == fresh.encrypted_scores
