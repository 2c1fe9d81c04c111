"""Unit tests for query evaluation (Figure 10) and the Boolean baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.engine import BooleanSearchEngine, SearchEngine, SearchResult
from repro.textsearch.inverted_index import InvertedIndex

# A tiny closed vocabulary keeps generated corpora overlapping enough to be
# interesting (shared terms across documents) while staying fast.
VOCABULARY = """osteosarcoma radiation therapy water soaked tissues yeast nitrogen diving
wine terrorism huntsville""".split()
text = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=30).map(" ".join)
corpus_strategy = st.lists(text, min_size=1, max_size=15).map(
    lambda texts: Corpus([Document(doc_id=i, text=t) for i, t in enumerate(texts)])
)


@pytest.fixture()
def engine_fixture():
    corpus = Corpus(
        [
            Document(doc_id=1, text="osteosarcoma therapy radiation accelerated"),
            Document(doc_id=2, text="radiation therapy for tumours radiation"),
            Document(doc_id=3, text="water soaked tissues in plants"),
            Document(doc_id=4, text="osteosarcoma symptoms and osteosarcoma staging"),
            Document(doc_id=5, text="wine yeast and dry fermentation"),
        ]
    )
    index = InvertedIndex.build(corpus)
    return index, SearchEngine(index), BooleanSearchEngine(index)


class TestSearchEngine:
    def test_topical_query_finds_relevant_documents(self, engine_fixture):
        _, engine, _ = engine_fixture
        result = engine.top_k(["osteosarcoma", "therapy"], k=3)
        assert set(result.doc_ids) <= {1, 2, 4}
        assert 1 in result.doc_ids

    def test_top_k_matches_exhaustive_ranking(self, engine_fixture):
        _, engine, _ = engine_fixture
        query = ["radiation", "osteosarcoma", "yeast"]
        top = engine.top_k(query, k=3)
        full = engine.rank_all(query)
        assert top.doc_ids == full.doc_ids[:3]
        assert top.scores == full.scores[:3]

    def test_scores_accumulate_over_query_terms(self, engine_fixture):
        _, engine, _ = engine_fixture
        single = engine.score_all(["osteosarcoma"])
        double = engine.score_all(["osteosarcoma", "therapy"])
        assert double[1] > single[1]

    def test_duplicate_query_terms_counted_once(self, engine_fixture):
        _, engine, _ = engine_fixture
        once = engine.score_all(["radiation"])
        twice = engine.score_all(["radiation", "radiation"])
        assert once == twice

    def test_unknown_terms_ignored(self, engine_fixture):
        _, engine, _ = engine_fixture
        assert engine.score_all(["zzz-not-a-term"]) == {}

    def test_only_candidate_documents_scored(self, engine_fixture):
        _, engine, _ = engine_fixture
        scores = engine.score_all(["yeast"])
        assert set(scores) == {5}

    def test_k_must_be_positive(self, engine_fixture):
        _, engine, _ = engine_fixture
        with pytest.raises(ValueError):
            engine.top_k(["radiation"], k=0)

    def test_ties_broken_deterministically(self, engine_fixture):
        _, engine, _ = engine_fixture
        a = engine.rank_all(["osteosarcoma", "water", "yeast"])
        b = engine.rank_all(["osteosarcoma", "water", "yeast"])
        assert a.ranking == b.ranking

    def test_postings_scanned_counter(self, engine_fixture):
        index, engine, _ = engine_fixture
        engine.score_all(["radiation", "osteosarcoma"])
        expected = len(index.postings("radiation")) + len(index.postings("osteosarcoma"))
        assert engine.postings_scanned == expected


class TestSearchResult:
    def test_accessors(self):
        result = SearchResult(ranking=((3, 2.0), (1, 1.0)))
        assert result.doc_ids == (3, 1)
        assert result.scores == (2.0, 1.0)
        assert len(result) == 2
        assert list(result) == [(3, 2.0), (1, 1.0)]


class TestBooleanEngine:
    def test_conjunction(self, engine_fixture):
        _, _, boolean = engine_fixture
        assert boolean.match_conjunct(["osteosarcoma", "therapy"]) == {1}

    def test_disjunction_of_conjuncts(self, engine_fixture):
        _, _, boolean = engine_fixture
        matched = boolean.match([["osteosarcoma"], ["yeast"]])
        assert matched == {1, 4, 5}

    def test_no_ranking_information(self, engine_fixture):
        _, _, boolean = engine_fixture
        assert isinstance(boolean.match([["radiation"]]), set)

    def test_empty_conjunct_matches_nothing(self, engine_fixture):
        _, _, boolean = engine_fixture
        assert boolean.match_conjunct([]) == set()
        assert boolean.match([]) == set()

    def test_boolean_misses_partial_matches_that_similarity_finds(self, engine_fixture):
        """The Appendix-B motivation: Boolean AND is all-or-nothing."""
        _, engine, boolean = engine_fixture
        query = ["osteosarcoma", "radiation", "accelerated"]
        boolean_hits = boolean.match_conjunct(query)
        similarity_hits = set(engine.score_all(query))
        assert boolean_hits == {1}
        assert {2, 4} <= similarity_hits


class TestEngineInvariants:
    @given(corpus=corpus_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_top_k_is_prefix_of_full_ranking(self, corpus, data):
        index = InvertedIndex.build(corpus)
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
        engine = SearchEngine(index)
        query = data.draw(
            st.lists(st.sampled_from(list(index.terms)), min_size=1, max_size=4, unique=True)
        )
        scores = engine.score_all(query)
        for doc_id, score in scores.items():
            expected = sum(
                p.quantised_impact
                for term in query
                for p in index.postings(term)
                if p.doc_id == doc_id
            )
            assert score == expected
