"""Unit tests for the scoring functions (Equation 3 cosine and Okapi BM25)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.textsearch.scoring import BM25Scorer, CorpusStatistics, CosineScorer
from repro.textsearch.segments import quantise_column, quantise_impact
from tests.textsearch.oracles import representatives, scan_max_impact


STATS = CorpusStatistics(
    num_documents=100,
    document_frequencies={"rare": 2, "common": 80, "medium": 20},
    average_document_length=50.0,
)


@pytest.fixture()
def stats():
    return STATS


class TestCosineScorer:
    def test_impacts_match_equation_three(self, stats):
        scorer = CosineScorer()
        frequencies = {"rare": 3, "common": 3}
        impacts = scorer.document_impacts(frequencies, stats)
        w_dt = 1.0 + math.log(3)
        norm = math.sqrt(2 * w_dt**2)
        assert impacts["rare"] == pytest.approx(w_dt * math.log(1 + 100 / 2) / norm)
        assert impacts["common"] == pytest.approx(w_dt * math.log(1 + 100 / 80) / norm)

    def test_rare_terms_have_higher_impact(self, stats):
        impacts = CosineScorer().document_impacts({"rare": 2, "common": 2}, stats)
        assert impacts["rare"] > impacts["common"]

    def test_repeated_terms_have_higher_weight_but_sublinear(self, stats):
        single = CosineScorer().document_impacts({"medium": 1, "rare": 1}, stats)["medium"]
        many = CosineScorer().document_impacts({"medium": 10, "rare": 1}, stats)["medium"]
        assert many > single
        assert many < 10 * single

    def test_unknown_term_gets_zero(self, stats):
        impacts = CosineScorer().document_impacts({"unseen": 1}, stats)
        assert impacts["unseen"] == 0.0

    def test_empty_document(self, stats):
        assert CosineScorer().document_impacts({}, stats) == {}

    def test_longer_documents_are_normalised_down(self, stats):
        short = CosineScorer().document_impacts({"rare": 1}, stats)["rare"]
        long_doc = {"rare": 1, **{f"filler{i}": 1 for i in range(20)}}
        # Filler terms are out-of-corpus (zero impact) but still inflate W_d.
        long_impact = CosineScorer().document_impacts(long_doc, stats)["rare"]
        assert long_impact < short


class TestBM25Scorer:
    def test_rare_terms_have_higher_impact(self, stats):
        impacts = BM25Scorer().document_impacts({"rare": 2, "common": 2}, stats)
        assert impacts["rare"] > impacts["common"]

    def test_term_frequency_saturates(self, stats):
        one = BM25Scorer().document_impacts({"medium": 1}, stats)["medium"]
        ten = BM25Scorer().document_impacts({"medium": 10}, stats)["medium"]
        hundred = BM25Scorer().document_impacts({"medium": 100}, stats)["medium"]
        assert one < ten < hundred
        assert (hundred - ten) < (ten - one)

    def test_document_length_normalisation(self, stats):
        short = BM25Scorer().document_impacts({"medium": 2}, stats)["medium"]
        long_doc = {"medium": 2, **{f"pad{i}": 5 for i in range(30)}}
        long_impact = BM25Scorer().document_impacts(long_doc, stats)["medium"]
        assert long_impact < short

    def test_b_zero_disables_length_normalisation(self, stats):
        scorer = BM25Scorer(b=0.0)
        short = scorer.document_impacts({"medium": 2}, stats)["medium"]
        long_doc = {"medium": 2, **{f"pad{i}": 5 for i in range(30)}}
        assert scorer.document_impacts(long_doc, stats)["medium"] == pytest.approx(short)

    def test_unknown_term_gets_zero(self, stats):
        assert BM25Scorer().document_impacts({"unseen": 3}, stats)["unseen"] == 0.0

    @pytest.mark.parametrize("params", [dict(k1=-0.5), dict(b=-0.1)])
    def test_a_negative_parameter_is_refused(self, params):
        # An impact that grew with |d| would break the impact-class max.
        with pytest.raises(ValueError, match="k1 >= 0 and b >= 0"):
            BM25Scorer(**params)


class TestCorpusStatistics:
    def test_document_frequency_lookup(self, stats):
        assert stats.document_frequency("rare") == 2
        assert stats.document_frequency("never-seen") == 0


def _ulps(value: float, steps: int) -> float:
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


@st.composite
def near_tie_cosine_factors(draw):
    """Cosine factors whose products ``w_{d,t} w_t`` and norms ``W_d`` sit
    within a few ulps of each other, plus terms without a ``w_t``."""
    vocabulary = [f"t{i}" for i in range(draw(st.integers(1, 6)))]
    weight = draw(st.floats(1.0, 4.0))
    term_weight = draw(st.floats(0.1, 7.0))
    norm = draw(st.floats(1.0, 30.0))
    ulps = st.integers(-4, 4)
    corpus = {term: _ulps(term_weight, draw(ulps)) for term in vocabulary}
    documents = []
    for _ in range(draw(st.integers(1, 8))):
        terms = draw(st.lists(st.sampled_from(vocabulary + ["unseen"]), min_size=1, unique=True))
        weights = {term: _ulps(weight, draw(ulps)) for term in terms}
        documents.append((weights, _ulps(norm, draw(ulps))))
    return documents, corpus


frequencies = st.dictionaries(
    st.sampled_from(["rare", "common", "medium", "unseen", "pad"]),
    st.integers(1, 40),
    min_size=1,
)


class TestFactoredScoring:
    @given(factors=near_tie_cosine_factors())
    @settings(max_examples=300, deadline=None)
    def test_cosine_factored_max_is_the_composed_max_bit_for_bit(self, factors):
        documents, corpus = factors
        scorer = CosineScorer()
        composed = scan_max_impact(scorer, documents, corpus)
        got = scorer.max_impact(*representatives(documents, corpus), corpus)
        assert got.hex() == composed.hex()

    @pytest.mark.parametrize("scorer", [CosineScorer(), BM25Scorer()], ids=["cosine", "bm25"])
    @given(documents=st.lists(frequencies, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_every_path_composes_the_same_impacts(self, scorer, documents):
        corpus = scorer.corpus_factor(STATS)
        factors = [scorer.document_factor(freqs) for freqs in documents]
        composed = [scorer.impacts(factor, corpus) for factor in factors]
        for freqs, factor, impacts in zip(documents, factors, composed):
            assert scorer.document_impacts(freqs, STATS) == impacts
            for term, value in impacts.items():
                assert scorer.impact(factor, term, corpus).hex() == value.hex()
            assert scorer.impact(factor, "absent", corpus) == 0.0
        best = scan_max_impact(scorer, factors, corpus)
        columns = representatives(factors, STATS.document_frequencies)
        assert scorer.max_impact(*columns, corpus).hex() == best.hex()


class TestColumnKernels:
    """The one-pass kernels a stale run is recomposed with: each scorer's
    ``impact_column`` and ``quantise_column`` equal the per-row compositions
    (``impact``, ``quantise_impact``) bit for bit."""

    @given(
        documents=st.lists(frequencies, min_size=0, max_size=8),
        corpus_documents=st.lists(frequencies, min_size=1, max_size=8),
        term=st.sampled_from(["rare", "common", "pad", "absent"]),
        k1=st.floats(0.1, 3.0),
        b=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_impact_column_equals_impact_per_row(self, documents, corpus_documents, term, k1, b):
        stats = CorpusStatistics.of_documents(dict(enumerate(corpus_documents)))
        for scorer in (CosineScorer(), BM25Scorer(k1=k1, b=b)):
            corpus = scorer.corpus_factor(stats)
            factors = [scorer.document_factor(f) for f in documents]
            # An empty document: zero norm under cosine, zero length under BM25.
            factors.append(scorer.document_factor({}))
            if isinstance(scorer, CosineScorer):
                factors.append(({term: 1.5}, 0.0))  # the term, but a zero norm
            expected = [scorer.impact(factor, term, corpus) for factor in factors]
            column = scorer.impact_column(iter(factors), term, corpus)
            assert [x.hex() for x in column] == [x.hex() for x in expected], scorer

    @given(
        max_impact=st.floats(-1.0, 1e3, allow_nan=False),
        fractions=st.lists(st.floats(0.0, 1.5), max_size=24),
        levels=st.integers(1, 400),
    )
    @settings(max_examples=120, deadline=None)
    def test_quantise_column_equals_quantise_impact(self, max_impact, fractions, levels):
        impacts = [fraction * max_impact for fraction in fractions]
        # The top of the scale, and values that round to level 0.
        impacts += [max_impact, 0.0, max_impact / (4 * levels), max_impact / (2 * levels)]
        column = quantise_column(impacts, max_impact, levels)
        assert column.typecode == "I"
        assert list(column) == [quantise_impact(x, max_impact, levels) for x in impacts]
