"""Unit tests for incremental index updates (delta segments, tombstones, compact)."""

from collections import Counter

import pytest

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex, Posting
from repro.textsearch.scoring import BM25Scorer, CorpusStatistics, CosineScorer
from repro.textsearch.segments import TieredMergePolicy
from repro.textsearch.tokenizer import Tokenizer
from tests.textsearch.oracles import representatives, scan_max_impact


@pytest.fixture()
def base_documents():
    return [
        Document(doc_id=1, text="the old night keeper keeps the keep in the town"),
        Document(doc_id=2, text="in the big old house in the big old gown"),
        Document(doc_id=3, text="the house in the town had the big old keep"),
        Document(doc_id=4, text="where the old night keeper never did sleep"),
    ]


@pytest.fixture()
def index(base_documents):
    return InvertedIndex.build(Corpus(base_documents))


def assert_indexes_identical(incremental, rebuilt):
    """Structural bit-identity: terms, stats, calibration, per-list columns."""
    assert set(incremental.terms) == set(rebuilt.terms)
    assert incremental.max_impact == rebuilt.max_impact
    assert incremental.stats.num_documents == rebuilt.stats.num_documents
    assert incremental.stats.average_document_length == rebuilt.stats.average_document_length
    assert dict(incremental.stats.document_frequencies) == dict(
        rebuilt.stats.document_frequencies
    )
    for term in rebuilt.terms:
        assert incremental.document_frequency(term) == rebuilt.document_frequency(term)
        # columns() serves each live row once, in run order: compare rows.
        assert Counter(zip(*incremental.columns(term))) == Counter(
            zip(*rebuilt.columns(term))
        ), term
        assert incremental.postings(term) == rebuilt.postings(term), term
        assert incremental.serialise_list(term) == rebuilt.serialise_list(term)


class TestAddDocument:
    def test_add_matches_rebuild_before_and_after_compact(self, base_documents, index):
        new = Document(doc_id=9, text="night watch keeper of the old house gown")
        index.add_document(new)
        rebuilt = InvertedIndex.build(Corpus(base_documents + [new]))
        assert index.has_pending_updates
        assert_indexes_identical(index, rebuilt)
        assert index.compact()
        assert not index.has_pending_updates
        assert_indexes_identical(index, rebuilt)

    def test_duplicate_live_id_rejected(self, index):
        with pytest.raises(ValueError, match="duplicate document id 2"):
            index.add_document(Document(doc_id=2, text="anything"))

    def test_stats_updated_incrementally(self, base_documents, index):
        before_n = index.stats.num_documents
        index.add_document(Document(doc_id=9, text="gown gown town"))
        assert index.stats.num_documents == before_n + 1
        assert index.stats.document_frequencies["gown"] == 2
        assert index.document_frequency("gown") == 2

    def test_stopword_only_document_adds_no_postings(self, base_documents, index):
        """A document with no indexable terms is a delta no-op -- but it still
        counts towards the corpus statistics, exactly as a rebuild counts it."""
        empty = Document(doc_id=9, text="the and of to in a")
        terms_before = set(index.terms)
        index.add_document(empty)
        assert not index.has_pending_updates  # nothing staged
        assert index.num_delta_documents == 0
        assert set(index.terms) == terms_before
        assert index.compact() is False
        rebuilt = InvertedIndex.build(Corpus(base_documents + [empty]))
        assert_indexes_identical(index, rebuilt)


class TestRemoveDocument:
    def test_remove_matches_rebuild_before_and_after_compact(self, base_documents, index):
        index.remove_document(2)
        rebuilt = InvertedIndex.build(
            Corpus([d for d in base_documents if d.doc_id != 2])
        )
        assert index.num_tombstones == 1
        assert_indexes_identical(index, rebuilt)
        assert index.compact()
        assert all(2 not in columns.doc_ids for columns in index._segments[0].lists.values())
        assert index.num_tombstones == 0
        assert_indexes_identical(index, rebuilt)

    def test_removing_last_document_of_term_drops_term(self, index):
        # "gown" appears only in document 2.
        assert "gown" in index
        index.remove_document(2)
        assert "gown" not in index
        assert index.document_frequency("gown") == 0
        assert "gown" not in index.terms
        assert "gown" not in index.stats.document_frequencies
        assert index.postings("gown") == ()
        assert index.serialise_list("gown") == b""
        index.compact()
        assert "gown" not in index

    def test_unknown_id_raises(self, index):
        with pytest.raises(KeyError, match="unknown document id 99"):
            index.remove_document(99)

    def test_tombstone_read_path_filters_without_compaction(self, index):
        """Removed documents vanish from every read path while their rows are
        still physically present in the main lists (the tombstone cost)."""
        index.remove_document(3)
        assert index.has_pending_updates
        for term in index.terms:
            doc_ids, _ = index.columns(term)
            assert 3 not in set(doc_ids), term
            assert all(p.doc_id != 3 for p in index.postings(term))
            recovered = InvertedIndex.deserialise_list(index.serialise_list(term))
            assert all(p.doc_id != 3 for p in recovered)

    def test_remove_document_still_in_delta(self, base_documents, index):
        new = Document(doc_id=9, text="night watch keeper")
        index.add_document(new)
        index.remove_document(9)
        assert index.num_tombstones == 0  # never reached the main lists
        rebuilt = InvertedIndex.build(Corpus(base_documents))
        assert_indexes_identical(index, rebuilt)


class TestQuantisationDrift:
    def test_high_impact_late_insert_triggers_requantisation(self, base_documents, index):
        """Regression (quantisation drift): an added document with an impact
        above the build-time maximum must re-quantise the affected lists --
        clamping it to the old ``max_impact`` would corrupt impact order."""
        _ = index.terms  # force initial freshness
        old_max = index.max_impact
        # A one-term document: its single impact is the full term weight,
        # which exceeds every length-normalised impact of the base corpus.
        spike = Document(doc_id=9, text="zanzibar")
        index.add_document(spike)
        rebuilt = InvertedIndex.build(Corpus(base_documents + [spike]))
        assert rebuilt.max_impact > old_max  # the scenario is real
        assert index.max_impact == rebuilt.max_impact
        assert_indexes_identical(index, rebuilt)
        # Reads evaluate the deferred rewrites snapshot-locally; the counter
        # tracks rewrites a writer path materialises into the segments, so
        # it is checked after a flush.
        index.compact()
        assert index.update_counters.lists_requantised > 0
        assert_indexes_identical(index, rebuilt)
        # The spike itself occupies the top quantisation level, not a clamp
        # of the old scale.
        (posting,) = index.postings("zanzibar")
        assert posting.quantised_impact == index.quantise_levels

    def test_requantisation_skipped_when_nothing_moved(self, base_documents, index):
        """Removing a document and re-adding it unchanged restores the exact
        statistics, so no main list is re-quantised (the 'only when
        max_impact actually moves' guarantee)."""
        _ = index.terms
        requantised_before = index.update_counters.lists_requantised
        index.remove_document(2)
        index.add_document(base_documents[1])
        _ = index.terms  # force the refresh
        assert index.update_counters.lists_requantised == requantised_before
        rebuilt = InvertedIndex.build(
            Corpus([base_documents[0], base_documents[2], base_documents[3], base_documents[1]])
        )
        assert_indexes_identical(index, rebuilt)


class TestCompaction:
    def test_compact_on_empty_delta_is_idempotent(self, index):
        snapshot = {term: index.columns(term) for term in index.terms}
        assert index.compact() is False
        assert index.compact() is False
        for term, (doc_ids, quants) in snapshot.items():
            assert index.columns(term) == (doc_ids, quants)  # same array objects

    def test_a_single_clean_run_is_served_zero_copy(self, index):
        index.add_document(Document(doc_id=9, text="night keeper town"))
        index.remove_document(2)
        index.compact()
        (base,) = index._segments
        for term in index.terms:
            doc_ids, quants = index.columns(term)
            assert doc_ids is base.lists[term].doc_ids, term
            assert quants is base.lists[term].quants, term

    def test_compact_merges_and_counts(self, base_documents, index):
        new = Document(doc_id=9, text="night keeper town")
        index.add_document(new)
        index.remove_document(2)
        assert index.compact()
        (base,) = index._segments
        # The delta's three rows are folded in; the removed document's rows are gone.
        assert sum(columns.doc_ids.count(9) for columns in base.lists.values()) == 3
        assert all(2 not in columns.doc_ids for columns in base.lists.values())
        assert index.update_counters.compactions == 1
        assert not index.has_pending_updates
        rebuilt = InvertedIndex.build(
            Corpus([d for d in base_documents if d.doc_id != 2] + [new])
        )
        assert_indexes_identical(index, rebuilt)

    def test_interleaved_updates_and_queries(self, base_documents, index):
        """Reads between updates must never observe half-applied state."""
        live = list(base_documents)
        for step, doc in enumerate(
            [
                Document(doc_id=10, text="wine cellar below the old house"),
                Document(doc_id=11, text="the night train to huntsville"),
                Document(doc_id=12, text="gown of the town keeper"),
            ]
        ):
            index.add_document(doc)
            live.append(doc)
            removed = live.pop(0)
            index.remove_document(removed.doc_id)
            assert_indexes_identical(index, InvertedIndex.build(Corpus(live)))
            if step == 1:
                index.compact()
                assert_indexes_identical(index, InvertedIndex.build(Corpus(live)))


class TestUpdateJournal:
    def test_compaction_does_not_advance_the_epoch(self, index):
        index.add_document(Document(doc_id=9, text="zebra"))
        _ = index.terms
        epoch = index.update_epoch
        index.compact()
        assert index.update_epoch == epoch


class TestUpdatableGuard:
    def test_hand_built_index_rejects_updates(self):
        hand_built = InvertedIndex(
            postings={"alpha": [Posting(doc_id=1, quantised_impact=3)]},
            stats=CorpusStatistics(
                num_documents=1,
                document_frequencies={"alpha": 1},
                average_document_length=1.0,
            ),
            quantise_levels=255,
            max_impact=2.0,
        )
        assert not hand_built.supports_updates
        assert hand_built.max_impact == 2.0
        with pytest.raises(RuntimeError, match="does not support incremental updates"):
            hand_built.add_document(Document(doc_id=2, text="alpha"))
        with pytest.raises(RuntimeError, match="does not support incremental updates"):
            hand_built.remove_document(1)
        assert hand_built.compact() is False  # read-only compact is a no-op

    def test_built_index_supports_updates(self, index):
        assert index.supports_updates


class TestBM25Updates:
    def test_bm25_incremental_matches_rebuild(self, base_documents):
        """BM25 couples impacts to the average document length, so updates
        shift every impact; the refresh must still match a rebuild exactly."""
        scorer = BM25Scorer()
        index = InvertedIndex.build(Corpus(base_documents), scorer=scorer)
        extra = [
            Document(doc_id=9, text="keep keep keep town town gown night " * 5),
            Document(doc_id=10, text="gown"),
        ]
        index.add_documents(extra)
        index.remove_document(1)
        rebuilt = InvertedIndex.build(
            Corpus([d for d in base_documents if d.doc_id != 1] + extra),
            scorer=scorer,
        )
        assert_indexes_identical(index, rebuilt)
        index.compact()
        assert_indexes_identical(index, rebuilt)


class _CountingScorer(CosineScorer):
    """Cosine, counting every per-document scoring call, factored or not."""

    calls = [0]

    def document_factor(self, term_frequencies):
        self.calls[0] += 1
        return super().document_factor(term_frequencies)

    def document_impacts(self, term_frequencies, stats):
        self.calls[0] += 1
        return super().document_impacts(term_frequencies, stats)


class _ColumnCountingScorer(CosineScorer):
    """Cosine, counting the impact columns it composes."""

    columns = [0]

    def impact_column(self, documents, term, corpus):
        self.columns[0] += 1
        return super().impact_column(documents, term, corpus)


class TestFactoredRefresh:
    def test_an_update_scores_only_the_new_documents(self, base_documents):
        scorer = _CountingScorer()
        index = InvertedIndex.build(Corpus(base_documents), scorer=scorer)
        scorer.calls[0] = 0
        added = [
            Document(doc_id=9, text="night watch keeper of the old house gown"),
            Document(doc_id=10, text="zanzibar town"),
        ]
        index.add_documents(added)
        index.remove_document(2)
        index.maintain(force_seal=True)
        assert scorer.calls[0] == len(added)
        assert index.update_counters.documents_factored == len(added)
        live = [d for d in base_documents if d.doc_id != 2] + added
        assert_indexes_identical(index, InvertedIndex.build(Corpus(live)))

    def test_a_refresh_scans_one_representative_per_impact_class(self):
        index = InvertedIndex.build(Corpus([Document(doc_id=1, text="alpha beta gamma")]))
        # "beta" once more, with the same w_{d,t}: the class it joins has one
        # representative, so 5 live postings are 4 classes.
        index.add_document(Document(doc_id=2, text="beta delta"))
        index.compact()
        assert index.update_counters.impact_classes_scanned == 4
        assert index.update_counters.documents_factored == 1

    def test_a_merge_of_stale_segments_recomposes_nothing(self, tmp_path, base_documents):
        scorer = _ColumnCountingScorer()
        index = InvertedIndex.build(
            Corpus(base_documents), scorer=scorer, merge_policy=TieredMergePolicy(fanout=2)
        )
        index.save(tmp_path / "tree")
        added = [
            Document(doc_id=9, text="night watch keeper of the old house gown"),
            Document(doc_id=10, text="zanzibar town"),
        ]
        index.add_document(added[0])
        index.maintain(force_seal=True)
        index.add_document(added[1])
        index.remove_document(2)
        stale = set(index._stale_ids)
        scorer.columns[0] = 0
        report = index.maintain(force_seal=True)  # the refresh marks the first seal stale
        assert report["merges_committed"] == 1
        assert scorer.columns[0] == 0
        (merged,) = [s for s in index._segments if s.generation == 1]
        assert merged.segment_id in index._stale_ids and merged.segment_id not in stale
        assert index.update_counters.lists_requantised == 0
        live = [d for d in base_documents if d.doc_id != 2] + added
        rebuilt = InvertedIndex.build(Corpus(live))
        assert_indexes_identical(index, rebuilt)
        report = index.save(tmp_path / "tree")
        assert report["mode"] == "incremental"
        assert report["arrays_fresh"] is False
        for mmap in (False, True):
            loaded = InvertedIndex.load(tmp_path / "tree", mmap=mmap, scorer=CosineScorer())
            assert_indexes_identical(loaded, rebuilt)

    def stale_pair(self, base_documents):
        """Two sealed segments, both stale, that ``maintain`` merges."""
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=2)
        )
        index.add_document(Document(doc_id=9, text="night watch keeper of the old house"))
        index.seal_delta()
        index.add_document(Document(doc_id=10, text="zanzibar town"))
        index.seal_delta()
        index.add_document(Document(doc_id=11, text="gown town keep"))
        _ = index.terms  # the refresh marks both sealed segments stale
        inputs = {s.segment_id for s in index._segments if not s.base}
        assert len(inputs) == 2 and inputs <= index._stale_ids
        return index, inputs

    def test_a_merge_consumes_its_stale_inputs_ids(self, base_documents):
        index, inputs = self.stale_pair(base_documents)
        assert index.maintain()["merges_committed"] == 1
        live_ids = {s.segment_id for s in index._segments}
        assert inputs.isdisjoint(index._stale_ids)
        assert index._stale_ids <= live_ids
        (merged,) = [s for s in index._segments if s.generation == 1]
        assert merged.segment_id in index._stale_ids

    def test_compact_consumes_every_stale_id(self, base_documents):
        index, inputs = self.stale_pair(base_documents)
        index.compact()
        assert inputs.isdisjoint(index._stale_ids)
        assert index._stale_ids <= {s.segment_id for s in index._segments}

    def test_a_loaded_index_factors_its_documents_once(self, tmp_path, base_documents, index):
        index.save(tmp_path / "saved")
        loaded = InvertedIndex.load(tmp_path / "saved")
        loaded.add_document(Document(doc_id=9, text="night watch"))
        _ = loaded.terms
        assert loaded.update_counters.documents_factored == len(base_documents) + 1
        loaded.add_document(Document(doc_id=10, text="gown town"))
        _ = loaded.terms
        assert loaded.update_counters.documents_factored == len(base_documents) + 2

    def test_a_snapshot_pins_its_statistics(self):
        """Regression: a snapshot shared the live document-frequency dict, so
        a later add showed through it while its ``num_documents`` stood still."""
        index = InvertedIndex.build(
            Corpus([Document(doc_id=1, text="alpha beta"), Document(doc_id=2, text="beta gamma")])
        )
        for doc_id in (3, 4):  # pinned at build, then pinned after a refresh
            pinned = index.snapshot()
            frequencies = dict(pinned.stats.document_frequencies)
            documents = pinned.stats.num_documents
            index.add_document(Document(doc_id=doc_id, text=f"beta delta{doc_id}"))
            assert dict(pinned.stats.document_frequencies) == frequencies
            assert pinned.stats.num_documents == documents
            assert index.snapshot().stats.document_frequencies["beta"] == doc_id

    @pytest.mark.parametrize("scorer", [CosineScorer(), BM25Scorer()], ids=["cosine", "bm25"])
    def test_a_pinned_snapshot_composes_from_its_own_factors(self, base_documents, scorer):
        """Lists left stale at pin time are first read after later updates
        dropped and added document factors: the snapshot still serves its
        own epoch."""
        index = InvertedIndex.build(Corpus(base_documents), scorer=scorer)
        extra = Document(doc_id=9, text="night keeper of the gown")
        index.add_document(extra)
        pinned = index.snapshot()
        index.remove_document(1)
        index.add_document(Document(doc_id=10, text="town town keep"))
        index.maintain(force_seal=True)
        assert_indexes_identical(
            pinned, InvertedIndex.build(Corpus(base_documents + [extra]), scorer=scorer)
        )


def assert_max_is_the_scan(index, live: dict[int, str], scorer) -> None:
    """``index``'s ``max_impact`` is the scan over every posting of the
    documents ``live`` maps id -> text, bit for bit, and its impact classes
    are the representatives slot for slot: one slot per live ``(term, key)``
    class, holding the class's smallest rank."""
    tokenizer = Tokenizer()
    frequencies = {doc_id: tokenizer.term_frequencies(t) for doc_id, t in live.items()}
    stats = CorpusStatistics.of_documents(frequencies)
    factors = [scorer.document_factor(f) for f in frequencies.values()]
    expected = scan_max_impact(scorer, factors, scorer.corpus_factor(stats))
    assert index.max_impact.hex() == expected.hex()
    classes = index._classes
    if classes is None:  # a loaded index before its first refresh
        return
    assert not classes.dirty
    slots = list(zip(classes.terms, classes.keys))
    assert len(set(slots)) == len(slots), "a class holds more than one slot"
    terms, keys, ranks = representatives(factors, stats.document_frequencies)
    assert dict(zip(slots, classes.ranks)) == dict(zip(zip(terms, keys), ranks))


@pytest.mark.parametrize("scorer", [CosineScorer(), BM25Scorer()], ids=["cosine", "bm25"])
class TestImpactClassEvents:
    """One case per event that moves a class's representative."""

    def build(self, scorer, texts):
        live = dict(enumerate(texts))
        index = InvertedIndex.build(
            Corpus(Document(doc_id=d, text=t) for d, t in live.items()), scorer=scorer
        )
        return index, live

    def remove(self, index, live, doc_id):
        index.remove_document(doc_id)
        del live[doc_id]

    def test_a_representative_is_removed(self, scorer):
        # "alpha" once in each: one class, whose representative is the
        # shortest document.
        index, live = self.build(scorer, ["alpha", "alpha beta", "alpha beta gamma"])
        self.remove(index, live, 0)
        assert "alpha" in index._classes.dirty
        assert_max_is_the_scan(index, live, scorer)
        slots = [k for k, term in enumerate(index._classes.terms) if term == "alpha"]
        assert len(slots) == 1
        assert index._classes.ranks[slots[0]] == scorer.document_factor({"alpha": 1, "beta": 1})[1]

    def test_a_class_loses_its_last_member(self, scorer):
        index, live = self.build(scorer, ["alpha alpha", "alpha beta", "gamma"])
        self.remove(index, live, 0)  # the only "alpha" twice
        self.remove(index, live, 2)  # the only "gamma"
        assert_max_is_the_scan(index, live, scorer)
        assert "gamma" not in index._classes.terms
        assert index._classes.terms.count("alpha") == 1
        assert len(index._classes) == 2

    def test_two_members_of_equal_rank(self, scorer):
        index, live = self.build(scorer, ["alpha beta", "beta alpha", "alpha beta gamma"])
        self.remove(index, live, 0)  # a tied representative: its twin still attains the rank
        assert_max_is_the_scan(index, live, scorer)
        self.remove(index, live, 1)
        assert_max_is_the_scan(index, live, scorer)

    def test_an_id_re_added_with_different_text(self, scorer):
        index, live = self.build(scorer, ["alpha", "alpha beta gamma", "beta"])
        self.remove(index, live, 0)
        index.add_document(Document(doc_id=0, text="alpha alpha beta delta"))
        live[0] = "alpha alpha beta delta"
        assert_max_is_the_scan(index, live, scorer)
        self.remove(index, live, 0)
        index.add_document(Document(doc_id=0, text="gamma"))
        live[0] = "gamma"
        assert_max_is_the_scan(index, live, scorer)

    def test_a_loaded_index_runs_its_first_refresh(self, scorer, tmp_path):
        index, live = self.build(scorer, ["alpha", "alpha beta", "beta gamma gamma"])
        index.save(tmp_path / "tree")
        loaded = InvertedIndex.load(tmp_path / "tree")
        assert loaded._classes is None  # a server that never updates never builds them
        loaded.remove_document(0)
        del live[0]
        assert loaded._classes is None
        assert_max_is_the_scan(loaded, live, scorer)
        assert len(loaded._classes) == 3  # (alpha, 1), (beta, 1), (gamma, 2)
