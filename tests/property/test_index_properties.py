"""Property-based tests for the text-search substrate invariants."""

from hypothesis import given, settings, strategies as st

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.engine import SearchEngine
from repro.textsearch.inverted_index import InvertedIndex, Posting
from repro.textsearch.tokenizer import Tokenizer

# A tiny closed vocabulary keeps generated corpora overlapping enough to be
# interesting (shared terms across documents) while staying fast.
VOCABULARY = [
    "osteosarcoma", "radiation", "therapy", "water", "soaked", "tissues",
    "yeast", "nitrogen", "diving", "wine", "terrorism", "huntsville",
]

document_strategy = st.lists(
    st.sampled_from(VOCABULARY), min_size=1, max_size=30
).map(" ".join)
corpus_strategy = st.lists(document_strategy, min_size=1, max_size=15).map(
    lambda texts: Corpus([Document(doc_id=i, text=t) for i, t in enumerate(texts)])
)


class TestIndexInvariants:
    @given(corpus=corpus_strategy)
    @settings(max_examples=40, deadline=None)
    def test_document_frequency_matches_corpus(self, corpus):
        index = InvertedIndex.build(corpus)
        tokenizer = Tokenizer()
        for term in index.terms:
            expected = sum(1 for doc in corpus if term in tokenizer.term_frequencies(doc.text))
            assert index.document_frequency(term) == expected

    @given(corpus=corpus_strategy)
    @settings(max_examples=40, deadline=None)
    def test_lists_impact_ordered_and_positive(self, corpus):
        index = InvertedIndex.build(corpus)
        for term in index.terms:
            postings = index.postings(term)
            keys = [(-p.quantised_impact, p.doc_id) for p in postings]
            # Strictly increasing keys: the whole (-quant, doc_id) order.
            assert all(a < b for a, b in zip(keys, keys[1:])), term
            # Each document once (keys of one document with two quants
            # would still increase).
            assert len({p.doc_id for p in postings}) == len(postings), term
            assert all(p.quantised_impact >= 1 for p in postings)

    @given(corpus=corpus_strategy)
    @settings(max_examples=30, deadline=None)
    def test_serialisation_roundtrip(self, corpus):
        index = InvertedIndex.build(corpus)
        for term in index.terms:
            recovered = InvertedIndex.deserialise_list(index.serialise_list(term))
            assert [p.doc_id for p in recovered] == [p.doc_id for p in index.postings(term)]


class TestEngineInvariants:
    @given(corpus=corpus_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_top_k_is_prefix_of_full_ranking(self, corpus, data):
        index = InvertedIndex.build(corpus)
        if not index.terms:
            return
        engine = SearchEngine(index)
        query = data.draw(st.lists(st.sampled_from(list(index.terms)), min_size=1, max_size=4))
        k = data.draw(st.integers(min_value=1, max_value=5))
        top = engine.top_k(query, k=k)
        full = engine.rank_all(query)
        assert top.doc_ids == full.doc_ids[:k]

    @given(corpus=corpus_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scores_are_sums_of_query_term_impacts(self, corpus, data):
        index = InvertedIndex.build(corpus)
        if not index.terms:
            return
        engine = SearchEngine(index)
        query = data.draw(st.lists(st.sampled_from(list(index.terms)), min_size=1, max_size=4, unique=True))
        scores = engine.score_all(query)
        for doc_id, score in scores.items():
            expected = sum(
                p.quantised_impact
                for term in query
                for p in index.postings(term)
                if p.doc_id == doc_id
            )
            assert score == expected


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
