"""Unit tests for the impact-ordered inverted index (Figure 9)."""

import pytest
from hypothesis import given, strategies as st

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import POSTING_BYTES, InvertedIndex, Posting
from repro.textsearch.scoring import BM25Scorer


@pytest.fixture()
def tiny_corpus():
    """The nursery-rhyme-style corpus echoing the paper's Figure 9 example."""
    return Corpus(
        [
            Document(doc_id=1, text="the old night keeper keeps the keep in the town"),
            Document(doc_id=2, text="in the big old house in the big old gown"),
            Document(doc_id=3, text="the house in the town had the big old keep"),
            Document(doc_id=4, text="where the old night keeper never did sleep"),
            Document(doc_id=5, text="the night keeper keeps the keep in the night"),
            Document(doc_id=6, text="and keeps in the dark and sleeps in the light"),
        ]
    )


@pytest.fixture()
def tiny_index(tiny_corpus):
    return InvertedIndex.build(tiny_corpus)


class TestBuild:
    def test_dictionary_contents(self, tiny_index):
        assert "keeper" in tiny_index
        assert "night" in tiny_index
        # Stopwords never enter the dictionary.
        assert "the" not in tiny_index
        assert "in" not in tiny_index

    def test_document_frequencies_match_corpus(self, tiny_index):
        assert tiny_index.document_frequency("keeper") == 3
        assert tiny_index.document_frequency("night") == 3
        assert tiny_index.document_frequency("gown") == 1
        assert tiny_index.document_frequency("unknown") == 0

    def test_quantised_impacts_are_positive_integers(self, tiny_index):
        for term in tiny_index.terms:
            for posting in tiny_index.postings(term):
                assert isinstance(posting.quantised_impact, int)
                assert 1 <= posting.quantised_impact <= tiny_index.quantise_levels

    def test_zero_impact_documents_absent(self, tiny_index):
        # A document not containing the term must not appear in its list.
        doc_ids = {p.doc_id for p in tiny_index.postings("gown")}
        assert doc_ids == {2}

    def test_alternative_scorer(self, tiny_corpus):
        index = InvertedIndex.build(tiny_corpus, scorer=BM25Scorer())
        assert index.document_frequency("keeper") == 3

    def test_stats_exposed(self, tiny_index):
        assert tiny_index.stats.num_documents == 6
        assert tiny_index.stats.average_document_length > 0


class TestStorageModel:
    def test_posting_pack_roundtrip(self):
        posting = Posting(doc_id=123456, quantised_impact=7)
        unpacked = Posting.unpack(posting.pack())
        assert unpacked.doc_id == 123456
        assert unpacked.quantised_impact == 7

    def test_list_sizes(self, tiny_index):
        assert tiny_index.list_size_bytes("keeper") == 3 * POSTING_BYTES
        assert tiny_index.list_size_blocks("keeper") == 1
        assert tiny_index.list_size_bytes("unknown") == 0
        assert tiny_index.list_size_blocks("unknown") == 0

    def test_total_size(self, tiny_index):
        assert tiny_index.total_size_bytes() == sum(
            tiny_index.list_size_bytes(t) for t in tiny_index.terms
        )

    def test_block_rounding(self, tiny_corpus):
        index = InvertedIndex.build(tiny_corpus, block_size=16)
        # 3 postings * 8 bytes = 24 bytes -> 2 blocks of 16.
        assert index.list_size_blocks("keeper") == 2

    def test_serialise_roundtrip(self, tiny_index):
        data = tiny_index.serialise_list("keeper")
        postings = InvertedIndex.deserialise_list(data)
        assert [p.doc_id for p in postings] == [p.doc_id for p in tiny_index.postings("keeper")]
        assert [p.quantised_impact for p in postings] == [
            p.quantised_impact for p in tiny_index.postings("keeper")
        ]

    def test_deserialise_ignores_zero_padding(self, tiny_index):
        data = tiny_index.serialise_list("gown") + b"\x00" * 24
        postings = InvertedIndex.deserialise_list(data)
        assert [p.doc_id for p in postings] == [2]

    def test_deserialise_fully_padded_column_is_empty(self):
        """Regression: an all-padding PIR column (a bucket mate with no
        postings, padded to the tallest column) used to decode to a phantom
        Posting(doc_id=0, quantised_impact=0) at offset 0."""
        assert InvertedIndex.deserialise_list(b"\x00" * 32) == ()
        assert InvertedIndex.deserialise_list(b"") == ()


class TestIteration:
    def test_iterate_lists_skips_unknown_terms(self, tiny_index):
        listed = dict(tiny_index.iterate_lists(["keeper", "no-such-term", "night"]))
        assert set(listed) == {"keeper", "night"}

    def test_num_terms(self, tiny_index):
        assert tiny_index.num_terms == len(tiny_index.terms)


class TestSerialiseRoundTripUnderPendingUpdates:
    """Pinned behaviour: ``serialise_list`` always reflects the *effective*
    main+delta view the PIR layer serves, even while delta postings and
    tombstones are pending, and ``deserialise_list`` inverts it exactly."""

    @pytest.fixture()
    def pending_index(self, tiny_corpus):
        index = InvertedIndex.build(tiny_corpus)
        index.add_document(
            Document(doc_id=9, text="night watch keeper of the old house gown")
        )
        index.remove_document(2)
        assert index.has_pending_updates
        return index

    def test_round_trip_matches_effective_postings(self, pending_index):
        for term in pending_index.terms:
            recovered = InvertedIndex.deserialise_list(
                pending_index.serialise_list(term)
            )
            effective = pending_index.postings(term)
            assert [(p.doc_id, p.quantised_impact) for p in recovered] == [
                (p.doc_id, p.quantised_impact) for p in effective
            ], term

    def test_pending_bytes_equal_rebuild_bytes(self, tiny_corpus, pending_index):
        live = [doc for doc in tiny_corpus if doc.doc_id != 2] + [
            Document(doc_id=9, text="night watch keeper of the old house gown")
        ]
        rebuilt = InvertedIndex.build(Corpus(live))
        for term in rebuilt.terms:
            assert pending_index.serialise_list(term) == rebuilt.serialise_list(term), term

    def test_pending_bytes_equal_post_compact_bytes(self, pending_index):
        before = {
            term: pending_index.serialise_list(term) for term in pending_index.terms
        }
        pending_index.compact()
        for term, data in before.items():
            assert pending_index.serialise_list(term) == data, term

    def test_tombstoned_rows_never_serialised(self, pending_index):
        for term in pending_index.terms:
            recovered = InvertedIndex.deserialise_list(
                pending_index.serialise_list(term)
            )
            assert all(p.doc_id != 2 for p in recovered), term

    def test_delta_rows_round_trip_through_pir_padding(self, pending_index):
        """A pending-update column padded by the PIR database layer decodes
        back to the effective postings -- padding is dropped, delta rows kept."""
        data = pending_index.serialise_list("gown")  # doc 9's delta row only
        padded = data + b"\x00" * (4 * POSTING_BYTES)
        recovered = InvertedIndex.deserialise_list(padded)
        assert [p.doc_id for p in recovered] == [9]

    def test_removed_term_serialises_empty_while_pending(self, tiny_corpus):
        index = InvertedIndex.build(tiny_corpus)
        index.remove_document(2)  # the only "gown" document
        assert index.serialise_list("gown") == b""
        assert InvertedIndex.deserialise_list(index.serialise_list("gown")) == ()


class TestPostingRoundtrip:
    @given(
        doc_id=st.integers(min_value=0, max_value=2**32 - 1),
        impact=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_pack_unpack(self, doc_id, impact):
        posting = Posting(doc_id=doc_id, quantised_impact=impact)
        recovered = Posting.unpack(posting.pack())
        assert recovered.doc_id == doc_id
        assert recovered.quantised_impact == impact
