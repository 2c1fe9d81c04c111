"""Property tests: incremental index updates are equivalent to a rebuild.

The acceptance property of the incremental-update subsystem: for random
corpora, random add/remove sequences and both scorers, a query answered against the
incrementally-updated index produces **bit-identical ciphertexts** and
**conserved operation counters** versus a from-scratch
:meth:`InvertedIndex.build` of the equivalent corpus -- both *before* and
*after* :meth:`InvertedIndex.compact`.  The same embellished query (same
selector ciphertexts) is submitted to servers over both indexes, so any
divergence in list content, impact order, quantisation or statistics would
surface as a differing ciphertext or counter.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.buckets import simple_buckets
from repro.core.embellish import QueryEmbellisher
from repro.core.server import PrivateRetrievalServer
from repro.crypto.benaloh import generate_keypair
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CosineScorer

# One small key pair for the whole module: key size affects only ciphertext
# width, never the equivalence being tested.
KEYPAIR = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(401))

# A tiny closed vocabulary keeps generated corpora overlapping enough to be
# interesting (shared terms across documents) while staying fast.
VOCABULARY = [
    "osteosarcoma", "radiation", "therapy", "water", "soaked", "tissues",
    "yeast", "nitrogen", "diving", "wine", "terrorism", "huntsville",
]

SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}

document_text = st.lists(
    st.sampled_from(VOCABULARY), min_size=1, max_size=12
).map(" ".join)


@st.composite
def update_scenarios(draw):
    """A base corpus plus a random interleaved add/remove sequence."""
    base_texts = draw(st.lists(document_text, min_size=2, max_size=8))
    base = [Document(doc_id=i, text=t) for i, t in enumerate(base_texts)]
    operations = []
    live_ids = [doc.doc_id for doc in base]
    next_id = 100
    for _ in range(draw(st.integers(1, 6))):
        if live_ids and draw(st.booleans()):
            victim = draw(st.sampled_from(live_ids))
            live_ids.remove(victim)
            operations.append(("remove", victim))
        else:
            operations.append(
                ("add", Document(doc_id=next_id, text=draw(document_text)))
            )
            live_ids.append(next_id)
            next_id += 1
    return base, operations


def _apply(operations, index, live):
    """Apply the operation sequence to the index and the mirror document list."""
    for kind, payload in operations:
        if kind == "add":
            index.add_document(payload)
            live.append(payload)
        else:
            index.remove_document(payload)
            live[:] = [doc for doc in live if doc.doc_id != payload]


def _query_both(incremental, rebuilt, seed):
    """Answer one embellished query on both indexes; ciphertexts + counters."""
    terms = sorted(rebuilt.terms)
    if not terms:
        return
    organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
    rng = random.Random(seed)
    genuine = rng.sample(terms, k=min(2, len(terms)))
    embellisher = QueryEmbellisher(
        organization=organization, keypair=KEYPAIR, rng=random.Random(seed + 1)
    )
    query = embellisher.embellish(genuine)
    results = []
    for index in (incremental, rebuilt):
        server = PrivateRetrievalServer(
            index=index, organization=organization, public_key=KEYPAIR.public
        )
        result = server.process_query(query)
        results.append((result, server.counters))
    (inc_result, inc_counters), (ref_result, ref_counters) = results
    assert inc_result.encrypted_scores == ref_result.encrypted_scores
    assert inc_counters == ref_counters


class TestIncrementalEquivalence:
    @given(
        scenario=update_scenarios(),
        seed=st.integers(0, 2**16),
        scorer_name=st.sampled_from(sorted(SCORERS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_queries_bit_identical_to_rebuild(self, scenario, seed, scorer_name):
        base, operations = scenario
        scorer = SCORERS[scorer_name]
        incremental = InvertedIndex.build(Corpus(base), scorer=scorer)
        live = list(base)
        _apply(operations, incremental, live)
        rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)

        # Structural identity: dictionary, statistics, calibration, columns.
        for index_state in ("delta", "compacted"):
            assert set(incremental.terms) == set(rebuilt.terms), index_state
            assert incremental.max_impact == rebuilt.max_impact
            assert incremental.stats.num_documents == rebuilt.stats.num_documents
            assert (
                incremental.stats.average_document_length
                == rebuilt.stats.average_document_length
            )
            assert dict(incremental.stats.document_frequencies) == dict(
                rebuilt.stats.document_frequencies
            )
            for term in rebuilt.terms:
                inc_docs, inc_quants = incremental.columns(term)
                ref_docs, ref_quants = rebuilt.columns(term)
                assert list(inc_docs) == list(ref_docs), (index_state, term)
                assert list(inc_quants) == list(ref_quants), (index_state, term)
                assert incremental.serialise_list(term) == rebuilt.serialise_list(term)
                assert incremental.document_frequency(term) == rebuilt.document_frequency(term)
                # The maintained statistics agree with the live lists.
                assert (
                    incremental.stats.document_frequencies[term]
                    == incremental.document_frequency(term)
                )

            # Ciphertext identity under the same embellished query.
            _query_both(incremental, rebuilt, seed)
            if index_state == "delta":
                incremental.compact()
        assert not incremental.has_pending_updates

    @given(scenario=update_scenarios(), scorer_name=st.sampled_from(sorted(SCORERS)))
    @settings(max_examples=40, deadline=None)
    def test_max_impact_matches_rebuild_after_every_step(self, scenario, scorer_name):
        """Each update is followed by a read, so every step runs its own
        refresh: the factored max scan must equal the rebuild's maximum
        over composed impacts bit for bit, step by step."""
        base, operations = scenario
        scorer = SCORERS[scorer_name]
        stepwise = InvertedIndex.build(Corpus(base), scorer=scorer)
        live = list(base)
        for operation in operations:
            _apply([operation], stepwise, live)
            rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)
            assert stepwise.max_impact.hex() == rebuilt.max_impact.hex(), operation

    @given(scenario=update_scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_naive_oracle_agrees_on_updated_index(self, scenario, seed):
        """The fast path over an updated index still matches the naive oracle."""
        base, operations = scenario
        incremental = InvertedIndex.build(Corpus(base))
        live = list(base)
        _apply(operations, incremental, live)
        terms = sorted(incremental.terms)
        if not terms:
            return
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        embellisher = QueryEmbellisher(
            organization=organization, keypair=KEYPAIR, rng=random.Random(seed)
        )
        query = embellisher.embellish([terms[seed % len(terms)]])
        fast = PrivateRetrievalServer(
            index=incremental, organization=organization, public_key=KEYPAIR.public
        ).process_query(query)
        naive = PrivateRetrievalServer(
            index=incremental,
            organization=organization,
            public_key=KEYPAIR.public,
            naive=True,
        ).process_query(query)
        assert fast.encrypted_scores == naive.encrypted_scores
