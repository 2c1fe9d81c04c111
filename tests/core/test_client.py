"""Unit tests for the PR end-to-end facade and its analytic estimator."""

import random

import pytest

from repro.core.client import PrivateSearchClient, PrivateSearchSystem
from repro.textsearch.engine import SearchEngine
from repro.textsearch.evaluation import rankings_identical


@pytest.fixture(scope="module")
def system(index, organization):
    return PrivateSearchSystem(
        index=index,
        organization=organization,
        key_bits=128,
        block_size=3**7,
        rng=random.Random(19),
    )


class TestPrivateSearchClient:
    def test_max_supported_query_size(self, organization):
        client = PrivateSearchClient(
            organization=organization, key_bits=128, block_size=3**7, rng=random.Random(1)
        )
        assert client.max_supported_query_size(quantise_levels=255) == (3**7 - 1) // 255

    def test_formulate_and_postfilter_roundtrip(self, system, organization, index):
        genuine = [organization.buckets[0][0]]
        query = system.client.formulate(genuine)
        encrypted = system.server.process_query(query)
        ranking = system.client.post_filter(encrypted, k=5)
        assert len(ranking) <= 5


class TestSearch:
    def test_search_matches_plaintext_ranking(self, system, index, organization):
        genuine = [organization.buckets[4][0], organization.buckets[9][1]]
        private_ranking, report = system.search(genuine, k=None)
        plain_ranking = SearchEngine(index).rank_all(genuine)
        assert rankings_identical(private_ranking.ranking, plain_ranking.ranking)
        assert report.scheme == "PR"

    def test_search_top_k(self, system, organization):
        genuine = [organization.buckets[1][0]]
        ranking, _ = system.search(genuine, k=3)
        assert len(ranking) <= 3

    def test_cost_report_fields(self, system, organization):
        genuine = [organization.buckets[2][0], organization.buckets[7][0]]
        _, report = system.search(genuine, k=10)
        assert report.server_io_ms > 0
        assert report.server_cpu_ms > 0
        assert report.traffic_kbytes > 0
        assert report.user_cpu_ms > 0
        assert report.counts["buckets_fetched"] == 2

    def test_query_too_long_for_plaintext_space_rejected(self, index, organization):
        tight = PrivateSearchSystem(
            index=index,
            organization=organization,
            key_bits=128,
            block_size=3**5,  # only 243 < one max-impact posting per many terms
            rng=random.Random(5),
        )
        too_many = list(index.terms[:2])
        with pytest.raises(ValueError):
            tight.search(too_many, k=5)


class TestRunSession:
    def test_session_rankings_match_single_query_search(self, system, index, organization):
        from repro.core.session import QuerySession

        session = QuerySession(
            queries=(
                (organization.buckets[4][0], organization.buckets[9][1]),
                (organization.buckets[4][0], organization.buckets[2][0]),
                (organization.buckets[1][0],),
            )
        )
        batch = system.run_session(session, k=None)
        assert len(batch) == len(session)
        for (ranking, report), genuine in zip(batch, session):
            plain_ranking = SearchEngine(index).rank_all(list(genuine))
            assert rankings_identical(ranking.ranking, plain_ranking.ranking)
            assert report.scheme == "PR"
            assert report.counts["client_encryptions"] > 0

    def test_session_prestocks_pool_once(self, index, organization):
        from repro.core.session import QuerySession

        system = PrivateSearchSystem(
            index=index,
            organization=organization,
            key_bits=128,
            block_size=3**7,
            rng=random.Random(37),
        )
        session = QuerySession(
            queries=((organization.buckets[0][0],), (organization.buckets[3][0],))
        )
        pool = system.client.embellisher.pool
        system.run_session(session, k=5)
        stocked = pool.seed_encryptions
        # A second identical session over a now-stocked pool refills at most
        # the budget delta, never mid-query.
        system.client.embellisher.prestock(session.selector_budget(organization))
        before = pool.seed_encryptions
        system.run_session(session, k=5)
        assert pool.seed_encryptions == max(before, stocked)

    def test_overflowing_session_query_rejected(self, index, organization):
        from repro.core.session import QuerySession

        tight = PrivateSearchSystem(
            index=index,
            organization=organization,
            key_bits=128,
            block_size=3**5,
            rng=random.Random(5),
        )
        session = QuerySession(queries=(tuple(index.terms[:2]),))
        with pytest.raises(ValueError):
            tight.run_session(session, k=5)


class TestEstimateCosts:
    def test_estimate_matches_real_counters(self, system, organization):
        genuine = [organization.buckets[3][0], organization.buckets[6][2]]
        _, real_report = system.search(genuine, k=None)
        estimate = system.estimate_costs(genuine)
        for key in (
            "buckets_fetched",
            "blocks_read",
            "server_exponentiations",
            "client_encryptions",
            "client_decryptions",
            "upstream_bytes",
            "downstream_bytes",
        ):
            assert estimate.counts[key] == real_report.counts[key], key

    def test_estimate_matches_real_counters_naive_mode(self, index, organization):
        naive_system = PrivateSearchSystem(
            index=index,
            organization=organization,
            key_bits=128,
            block_size=3**7,
            rng=random.Random(29),
            naive=True,
        )
        genuine = [organization.buckets[3][0], organization.buckets[6][2]]
        _, real_report = naive_system.search(genuine, k=None)
        estimate = naive_system.estimate_costs(genuine)
        for key in (
            "server_exponentiations",
            "server_table_multiplications",
            "server_multiplications",
            "client_encryptions",
            "client_pooled_encryptions",
            "client_pool_multiplications",
        ):
            assert estimate.counts[key] == real_report.counts[key], key

    def test_estimate_pool_multiplications_match_real_run(self, system, organization):
        genuine = [organization.buckets[2][0], organization.buckets[8][1]]
        _, real_report = system.search(genuine, k=None)
        estimate = system.estimate_costs(genuine)
        for key in (
            "server_table_multiplications",
            "server_multiplications",
            "client_pooled_encryptions",
            "client_pool_multiplications",
        ):
            assert estimate.counts[key] == real_report.counts[key], key

    def test_estimate_without_keypair_setup(self, index, organization):
        """The estimator must work on a bare system (no crypto initialisation)."""
        from repro.core.costs import CostModel

        bare = PrivateSearchSystem.__new__(PrivateSearchSystem)
        bare.index = index
        bare.organization = organization
        bare.key_bits = 768
        bare.cost_model = CostModel()
        report = bare.estimate_costs([organization.buckets[0][0]])
        assert report.counts["client_encryptions"] == len(organization.buckets[0])

    def test_estimate_grows_with_bucket_size(self, index, searchable_sequence, specificity):
        from repro.core.buckets import generate_buckets
        from repro.core.costs import CostModel

        def estimate_for(bucket_size):
            organization = generate_buckets(searchable_sequence, specificity, bucket_size=bucket_size)
            system = PrivateSearchSystem.__new__(PrivateSearchSystem)
            system.index = index
            system.organization = organization
            system.key_bits = 256
            system.cost_model = CostModel()
            term = searchable_sequence[0]
            return system.estimate_costs([term])

        small = estimate_for(2)
        large = estimate_for(8)
        assert large.counts["client_encryptions"] > small.counts["client_encryptions"]
        assert large.counts["server_exponentiations"] >= small.counts["server_exponentiations"]
