"""Unit tests for query embellishment (Algorithm 3)."""

import random

import pytest

from repro.core.embellish import EmbellishedQuery, QueryEmbellisher


@pytest.fixture()
def embellisher(organization, benaloh_keypair):
    return QueryEmbellisher(
        organization=organization, keypair=benaloh_keypair, rng=random.Random(7)
    )


class TestEmbellishedQuery:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            EmbellishedQuery(terms=("a", "b"), encrypted_selectors=(1,))

    def test_upstream_bytes(self):
        query = EmbellishedQuery(terms=("a", "b"), encrypted_selectors=(1, 2))
        assert query.upstream_bytes(key_bits=256) == 2 * (8 + 32)

    def test_iteration(self):
        query = EmbellishedQuery(terms=("a",), encrypted_selectors=(5,))
        assert list(query) == [("a", 5)]
        assert len(query) == 1


class TestEmbellish:
    def test_whole_bucket_included(self, embellisher, organization):
        genuine = organization.buckets[0][0]
        query = embellisher.embellish([genuine])
        assert set(query.terms) == set(organization.bucket_of(genuine))

    def test_selectors_decrypt_to_membership(self, embellisher, organization, benaloh_keypair):
        genuine = [organization.buckets[2][1], organization.buckets[5][0]]
        query = embellisher.embellish(genuine)
        for term, ciphertext in query:
            expected = 1 if term in genuine else 0
            assert benaloh_keypair.private.decrypt(ciphertext) == expected

    def test_two_genuine_terms_in_same_bucket(self, embellisher, organization, benaloh_keypair):
        bucket = organization.buckets[1]
        query = embellisher.embellish([bucket[0], bucket[1]])
        assert sorted(query.terms) == sorted(bucket)
        decrypted = {t: benaloh_keypair.private.decrypt(c) for t, c in query}
        assert decrypted[bucket[0]] == 1 and decrypted[bucket[1]] == 1
        assert sum(decrypted.values()) == 2

    def test_duplicates_collapsed(self, embellisher, organization):
        genuine = organization.buckets[0][0]
        query = embellisher.embellish([genuine, genuine])
        assert len(query) == len(organization.bucket_of(genuine))

    def test_query_is_permuted(self, organization, benaloh_keypair):
        """The embellished order must not systematically expose bucket grouping."""
        genuine = [organization.buckets[0][0], organization.buckets[1][0]]
        orders = set()
        for seed in range(5):
            embellisher = QueryEmbellisher(
                organization=organization, keypair=benaloh_keypair, rng=random.Random(seed)
            )
            orders.add(embellisher.embellish(genuine).terms)
        assert len(orders) > 1

    def test_empty_query_rejected(self, embellisher):
        with pytest.raises(ValueError):
            embellisher.embellish([])

    def test_unbucketed_term_nonstrict(self, embellisher, benaloh_keypair):
        query = embellisher.embellish(["definitely-not-a-term"])
        assert query.terms == ("definitely-not-a-term",)
        assert benaloh_keypair.private.decrypt(query.encrypted_selectors[0]) == 1
        assert embellisher.last_unbucketed_terms == ("definitely-not-a-term",)

    def test_unbucketed_term_strict(self, organization, benaloh_keypair):
        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, strict=True
        )
        with pytest.raises(KeyError):
            embellisher.embellish(["definitely-not-a-term"])

    def test_encryption_counter(self, embellisher, organization):
        genuine = organization.buckets[3][0]
        embellisher.embellish([genuine])
        assert embellisher.encryptions_performed == len(organization.bucket_of(genuine))

    def test_generates_keypair_when_missing(self, organization):
        embellisher = QueryEmbellisher(organization=organization, rng=random.Random(2))
        assert embellisher.keypair is not None
        query = embellisher.embellish([organization.buckets[0][0]])
        assert len(query) == len(organization.buckets[0])

    def test_ciphertexts_are_fresh_across_queries(self, embellisher, organization):
        genuine = organization.buckets[0][0]
        first = embellisher.embellish([genuine])
        second = embellisher.embellish([genuine])
        assert set(first.encrypted_selectors) != set(second.encrypted_selectors)
