"""Property tests: snapshot-isolated reads under concurrent maintenance.

The MVCC acceptance property: a reader that pins an
:class:`~repro.textsearch.inverted_index.IndexSnapshot` keeps returning
**bit-identical ciphertexts and operation counters** -- exactly what a
quiesced run at the pinned epoch returns -- while the live index seals,
merges, compacts and takes further updates, from hypothesis-driven mutation
schedules and from a real reader thread racing real maintenance.  The
serving-cache contract rides along: whatever is derived from list content
(the PIR bucket databases, the analytic cost estimate) follows the pinned
view's ``update_epoch`` -- always equal to a fresh derivation, never evicted
while the epoch stands still.
"""

import random
import tempfile
import threading

from hypothesis import given, settings, strategies as st

from repro.core.buckets import simple_buckets
from repro.core.client import PrivateSearchSystem
from repro.core.embellish import QueryEmbellisher
from repro.core.partitioning import HashPartitioner
from repro.core.pir_retrieval import PIRRetrievalClient, PIRRetrievalServer
from repro.core.server import PrivateRetrievalServer
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import IndexSnapshot, InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CorpusStatistics, CosineScorer
from repro.textsearch.tokenizer import Tokenizer
from repro.textsearch.segments import TieredMergePolicy

from tests.property.test_segment_properties import (
    KEYPAIR,
    _apply,
    segmented_scenarios,
)

SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}


def _content(view):
    """The full observable read state of an index or snapshot, bit-exact."""
    return {
        term: (
            tuple(
                (p.doc_id, p.quantised_impact) for p in view.postings(term)
            ),
            view.serialise_list(term),
            view.document_frequency(term),
        )
        for term in sorted(view.terms)
    }


def _apply_trailing(operations, index, live):
    """Apply a second scenario's operations on top of an existing history.

    Its doc ids were drawn independently of the first scenario's final state,
    so adds are re-numbered past every live id and removes target documents
    actually present.
    """
    next_id = max((doc.doc_id for doc in live), default=0) + 1
    for kind, payload in operations:
        if kind == "add":
            renumbered = Document(doc_id=next_id, text=payload.text)
            next_id += 1
            index.add_document(renumbered)
            live.append(renumbered)
        elif kind == "remove":
            if not live:
                continue
            victim = live[payload % len(live)].doc_id
            index.remove_document(victim)
            live[:] = [doc for doc in live if doc.doc_id != victim]
        elif kind == "seal":
            index.seal_delta()
        else:
            index.maintain(force_seal=True)


def _server_for(view, organization):
    return PrivateRetrievalServer(
        index=view, organization=organization, public_key=KEYPAIR.public
    )


def _query_for(terms, seed, organization):
    rng = random.Random(seed)
    genuine = rng.sample(terms, k=min(2, len(terms)))
    embellisher = QueryEmbellisher(
        organization=organization, keypair=KEYPAIR, rng=random.Random(seed + 1)
    )
    return embellisher.embellish(genuine)


class TestPinnedReaderIsolation:
    @given(
        scenario=segmented_scenarios(),
        trailing=segmented_scenarios(),
        seed=st.integers(0, 2**16),
        scorer_name=st.sampled_from(["cosine", "bm25"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_pinned_reader_bit_identical_across_seal_merge_compact(
        self, scenario, trailing, seed, scorer_name
    ):
        """Pin, then mutate/seal/merge/compact/save the live index: the
        pinned snapshot's ciphertexts, counters and full read state never
        move, and no segment sealed at the pin gains, loses or swaps a list."""
        base, operations, fanout = scenario
        scorer = SCORERS[scorer_name]
        index = InvertedIndex.build(
            Corpus(base),
            scorer=scorer,
            merge_policy=TieredMergePolicy(fanout=fanout),
        )
        live = list(base)
        _apply(operations, index, live)

        snapshot = index.snapshot()
        sealed = [(segment, dict(segment.lists)) for segment in index._segments]
        terms = sorted(snapshot.terms)
        if not terms:
            return
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        query = _query_for(terms, seed, organization)
        pinned_server = _server_for(snapshot, organization)
        before_content = _content(snapshot)
        before_result = pinned_server.process_query(query)
        before_counters = ServerCountersTuple(pinned_server)

        # Concurrent history: a wholesale save, more updates, seals, merges,
        # an incremental save, then a full compaction -- every way a new
        # manifest can be published.
        _, trailing_ops, _ = trailing
        with tempfile.TemporaryDirectory() as tmp:
            index.save(tmp)
            _apply_trailing(trailing_ops, index, live)
            index.maintain(force_seal=True)
            index.save(tmp)
        index.compact()
        for segment, lists in sealed:
            assert segment.lists.keys() == lists.keys()
            assert all(segment.lists[term] is columns for term, columns in lists.items())

        after_result = pinned_server.process_query(query)
        after_counters = ServerCountersTuple(pinned_server)
        assert after_result.encrypted_scores == before_result.encrypted_scores
        assert after_counters == before_counters
        assert _content(snapshot) == before_content

        # The live index meanwhile serves the *new* truth, matching a
        # rebuild -- isolation, not staleness of the live path.
        rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)
        fresh = index.snapshot()
        assert _content(fresh) == _content(rebuilt)

    @given(scenario=segmented_scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_snapshot_equals_rebuild_of_live_corpus_at_pin_time(self, scenario, seed):
        """A snapshot serves what a from-scratch rebuild of the corpus live
        at the pin would: identical content and identical query answers.
        (The live index's own reads forward to its snapshot, so comparing
        those two would be a tautology; the rebuild is the oracle.)"""
        base, operations, fanout = scenario
        index = InvertedIndex.build(
            Corpus(base), merge_policy=TieredMergePolicy(fanout=fanout)
        )
        live = list(base)
        _apply(operations, index, live)
        snapshot = index.snapshot()
        rebuilt = InvertedIndex.build(Corpus(live))
        assert _content(snapshot) == _content(rebuilt)
        terms = sorted(snapshot.terms)
        if not terms:
            return
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        query = _query_for(terms, seed, organization)
        from_snapshot = _server_for(snapshot, organization).process_query(query)
        from_rebuild = _server_for(rebuilt, organization).process_query(query)
        assert from_snapshot.encrypted_scores == from_rebuild.encrypted_scores

    def test_snapshot_handle_is_reused_until_a_mutation(self):
        """The no-change fast path is lock-free handle reuse; any mutation or
        manifest publication mints a fresh pin."""
        index = InvertedIndex.build(
            Corpus([Document(doc_id=1, text="water soaked tissues")])
        )
        first = index.snapshot()
        assert index.snapshot() is first
        index.add_document(Document(doc_id=2, text="yeast nitrogen diving"))
        second = index.snapshot()
        assert second is not first
        assert index.snapshot() is second
        index.seal_delta()
        assert index.snapshot() is not second


def ServerCountersTuple(server):
    """Counters as a comparable tuple (ServerCounters is mutable/dataclass)."""
    from dataclasses import astuple

    return astuple(server.counters)


class TestConcurrentReaderThread:
    def test_reader_thread_pinned_across_real_concurrent_maintenance(self):
        """A reader thread hammering a pinned snapshot races a writer doing
        adds, removes, seals, merges and a compaction on the live index --
        every answer the reader gets is bit-identical to its first."""
        rng = random.Random(4242)
        base = [
            Document(doc_id=i, text=" ".join(rng.sample(_WORDS, 4)))
            for i in range(12)
        ]
        index = InvertedIndex.build(
            Corpus(base), merge_policy=TieredMergePolicy(fanout=2)
        )
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
            next_id = 1000
            for round_no in range(30):
                index.add_document(
                    Document(
                        doc_id=next_id, text=" ".join(rng.sample(_WORDS, 5))
                    )
                )
                next_id += 1
                index.seal_delta()
                if round_no % 3 == 0:
                    index.remove_document(next_id - 1)
                index.maintain(force_seal=round_no % 2 == 0)
                if round_no % 10 == 9:
                    index.compact()
        finally:
            stop.set()
            thread.join()
        assert divergences == []
        # And once more after the dust settles: still the pinned answer.
        assert server.process_query(query).encrypted_scores == baseline


_WORDS = (
    "osteosarcoma radiation therapy water soaked tissues yeast nitrogen "
    "diving wine terrorism huntsville cellar train sleep town keep"
).split()


def _databases(pir):
    """Every bucket's database as served right now, by identity and by value."""
    served = [
        pir.bucket_database(b) for b in range(pir.organization.num_buckets)
    ]
    return served, [(database.row_masks, database.cols) for database in served]


class TestServingCacheRegression:
    def test_pinned_cache_survives_journal_horizon_advancing(self):
        """A PIR server over a pinned snapshot keeps its database objects
        and its bit-identical answers while the live index takes updates,
        maintenance and a compaction -- the cache follows the *pinned
        view's* epoch, which never moves; one over the live index rebuilds.
        """
        index = InvertedIndex.build(
            Corpus(
                [
                    Document(doc_id=1, text="water soaked tissues wine"),
                    Document(doc_id=2, text="yeast nitrogen diving wine"),
                    Document(doc_id=3, text="radiation therapy water"),
                ]
            ),
            merge_policy=TieredMergePolicy(fanout=2),
        )
        snapshot = index.snapshot()
        pinned_epoch = snapshot.update_epoch
        organization = simple_buckets(sorted(snapshot.terms), {}, bucket_size=3)
        client = PIRRetrievalClient(
            organization=organization, key_bits=96, rng=random.Random(11)
        )
        bucket_id, query = client.build_query("wine")
        pinned = PIRRetrievalServer(index=snapshot, organization=organization)
        live = PIRRetrievalServer(index=index, organization=organization)
        baseline = pinned.answer(bucket_id, query)
        assert live.answer(bucket_id, query) == baseline
        pinned_before, _ = _databases(pinned)
        live_before, _ = _databases(live)

        for i in range(8):
            index.add_document(
                Document(doc_id=100 + i, text="wine cellar water therapy")
            )
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
        scenario=segmented_scenarios(),
        seed=st.integers(0, 2**16),
        scorer_name=st.sampled_from(["cosine", "bm25"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_derived_state_equals_a_fresh_derivation_after_every_step(
        self, scenario, seed, scorer_name
    ):
        """After every add/remove/seal/maintain step and a final compact, a
        long-lived PIR server's databases equal a freshly built server's --
        on the live index and on a pin taken mid-sequence, whose objects
        are never evicted -- and ``estimate_costs`` equals the counters of a
        real ``search``."""
        base, operations, fanout = scenario
        index = InvertedIndex.build(
            Corpus(base),
            scorer=SCORERS[scorer_name],
            merge_policy=TieredMergePolicy(fanout=fanout),
        )
        terms = sorted(index.terms)
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        genuine = random.Random(seed).sample(terms, k=min(2, len(terms)))
        system = PrivateSearchSystem(
            index=index,
            organization=organization,
            key_bits=128,
            block_size=3**6,
            rng=random.Random(seed),
        )
        long_lived = PIRRetrievalServer(index=index, organization=organization)
        pinned = pinned_objects = None
        live = list(base)

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
        for position, operation in enumerate(operations):
            _apply([operation], index, live)
            if position == len(operations) // 2:
                pinned = PIRRetrievalServer(
                    index=index.snapshot(), organization=organization
                )
                pinned_objects = _databases(pinned)[0]
            check((position, operation[0]))
        index.compact()
        check("compacted")

    def test_fresh_server_on_live_index_does_resync(self):
        """Counter-check: a server over the *live* index (not a snapshot)
        still follows its epoch and serves the new truth."""
        index = InvertedIndex.build(
            Corpus([Document(doc_id=1, text="water soaked tissues")])
        )
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


def _assert_kept_dictionary_is_derived(index, context):
    """The pinned dictionary equals the one the merged lists derive: its
    terms are exactly those whose merged list is non-empty, each with the
    list's length as ``f_t``.  Dictionary reads merge no list: on a fresh
    pin they leave the list memo empty."""
    view = IndexSnapshot(index)
    # The records hold every segment's lists and, last, the unsealed delta's.
    candidates = {term for lists, _, _ in view._records for term in lists}
    candidates |= set(view.terms)
    for term in candidates:
        _ = term in view, view.document_frequency(term), view.list_size_bytes(term)
    assert view.num_terms == len(view.terms) and not view._merged and not view._live, context
    derived = {term: len(view.postings(term)) for term in candidates}
    assert set(view.terms) == {term for term, rows in derived.items() if rows}, context
    for term, rows in derived.items():
        assert view.document_frequency(term) == rows, (context, term)
        assert (term in view) == bool(rows), (context, term)
        assert view.list_size_bytes(term) == 8 * rows, (context, term)


class TestKeptDictionary:
    @given(
        scenario=segmented_scenarios(),
        checkpoints=st.lists(
            st.sampled_from(["none", "compact", "save", "load", "load_mmap"]),
            min_size=9,
            max_size=9,
        ),
        scorer_name=st.sampled_from(["cosine", "bm25"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_pinned_dictionary_equals_the_merged_lists(
        self, scenario, checkpoints, scorer_name
    ):
        """Across add/remove/seal/maintain sequences interleaved with
        compactions, saves and eager or mmap loads, the snapshot's kept
        dictionary is the derived one; so is a split shard's and a hand-built
        index's (whatever statistics it was handed).  A fresh build lists
        its terms in first-occurrence order over the corpus."""
        base, operations, fanout = scenario
        index = InvertedIndex.build(
            Corpus(base),
            scorer=SCORERS[scorer_name],
            merge_policy=TieredMergePolicy(fanout=fanout),
        )
        tokenizer = Tokenizer()
        assert index.terms == tuple(
            dict.fromkeys(
                term for doc in base for term in tokenizer.term_frequencies(doc.text)
            )
        )
        _assert_kept_dictionary_is_derived(index, "built")
        live = list(base)
        with tempfile.TemporaryDirectory() as tmp:
            for position, (operation, checkpoint) in enumerate(
                zip(operations, checkpoints)
            ):
                _apply([operation], index, live)
                if checkpoint == "compact":
                    index.compact()
                elif checkpoint != "none":
                    index.save(tmp)
                    if checkpoint != "save":
                        index = InvertedIndex.load(tmp, mmap=checkpoint == "load_mmap")
                _assert_kept_dictionary_is_derived(index, (position, checkpoint))
            rebuilt = InvertedIndex.build(Corpus(live), scorer=SCORERS[scorer_name])
            assert set(index.terms) == set(rebuilt.terms)
            for shard in index.split(HashPartitioner(num_shards=2)):
                _assert_kept_dictionary_is_derived(shard, "shard")
                lists = {term: shard.postings(term) for term in shard.terms}
                lists["never-indexed"] = []
                hand_built = InvertedIndex(
                    postings=lists,
                    stats=CorpusStatistics(
                        num_documents=1,
                        document_frequencies={"phantom": 3},
                        average_document_length=1.0,
                    ),
                    quantise_levels=index.quantise_levels,
                )
                _assert_kept_dictionary_is_derived(hand_built, "hand-built")
                assert hand_built.terms == shard.terms
