"""Unit tests for client-side post filtering (Algorithm 5)."""


import pytest

from repro.core.postfilter import PostFilterCounters, post_filter
from repro.core.server import EncryptedResult


@pytest.fixture()
def encrypted_result(benaloh_keypair, rng):
    """An EncryptedResult with known plaintext scores (doc 7 has score 0)."""
    scores = {1: 30, 2: 75, 3: 75, 7: 0, 9: 12}
    encrypted = {
        doc_id: benaloh_keypair.public.encrypt(score, rng) for doc_id, score in scores.items()
    }
    return EncryptedResult(encrypted_scores=encrypted, modulus=benaloh_keypair.n)


class TestPostFilter:
    def test_ranking_by_decreasing_score(self, encrypted_result, benaloh_keypair):
        result = post_filter(encrypted_result, benaloh_keypair.private)
        assert result.doc_ids == (2, 3, 1, 9)
        assert result.scores == (75.0, 75.0, 30.0, 12.0)

    def test_ties_broken_by_doc_id(self, encrypted_result, benaloh_keypair):
        result = post_filter(encrypted_result, benaloh_keypair.private)
        assert result.doc_ids.index(2) < result.doc_ids.index(3)

    def test_zero_scores_dropped_by_default(self, encrypted_result, benaloh_keypair):
        result = post_filter(encrypted_result, benaloh_keypair.private)
        assert 7 not in result.doc_ids

    def test_top_k_truncation(self, encrypted_result, benaloh_keypair):
        result = post_filter(encrypted_result, benaloh_keypair.private, k=2)
        assert result.doc_ids == (2, 3)

    def test_invalid_k_rejected(self, encrypted_result, benaloh_keypair):
        with pytest.raises(ValueError):
            post_filter(encrypted_result, benaloh_keypair.private, k=0)

    def test_counters(self, encrypted_result, benaloh_keypair):
        counters = PostFilterCounters()
        post_filter(encrypted_result, benaloh_keypair.private, counters=counters)
        assert counters.decryptions == 5
        assert counters.candidates_received == 5
        assert counters.candidates_with_positive_score == 4

    def test_empty_result(self, benaloh_keypair):
        empty = EncryptedResult(encrypted_scores={}, modulus=benaloh_keypair.n)
        result = post_filter(empty, benaloh_keypair.private)
        assert len(result) == 0
